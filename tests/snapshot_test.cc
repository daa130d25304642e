/**
 * @file
 * Machine snapshot/restore (MarionetteMachine::snapshot) and the
 * sweep layer's SnapshotCache warm starts.
 *
 * Restoring must be bit-identical to preparing from scratch:
 * restoring a post-prepare checkpoint into the same or a fresh
 * machine reproduces the straight run exactly — RunResult, the full
 * renderAllStats() dump and the whole scratchpad — which is what
 * lets the SnapshotCache warm-start repeated cells.  restore()
 * rewrites the whole machine state in bulk, so this suite also runs
 * under the sanitizer builds.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machine.h"
#include "compiler/compiler.h"
#include "compiler/program_cache.h"
#include "sim/sweep.h"
#include "workloads/workload.h"

namespace marionette
{
namespace
{

struct RunCapture
{
    RunResult result;
    std::string stats;
    std::vector<Word> memDump;
};

void
expectSame(const RunCapture &a, const RunCapture &b,
           const std::string &label)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles) << label;
    EXPECT_EQ(a.result.finished, b.result.finished) << label;
    EXPECT_EQ(a.result.totalFires, b.result.totalFires) << label;
    EXPECT_EQ(a.result.outputs, b.result.outputs) << label;
    EXPECT_DOUBLE_EQ(a.result.peUtilization, b.result.peUtilization)
        << label;
    EXPECT_EQ(a.result.error, b.result.error) << label;
    EXPECT_EQ(a.stats, b.stats) << label;
    EXPECT_EQ(a.memDump, b.memDump) << label;
}

/** Restoring a post-prepare checkpoint — into the same machine
 *  after a run, or into a fresh machine — reproduces the straight
 *  prepare-and-run byte for byte. */
TEST(Snapshot, SnapshotRestoreDeterminism)
{
    MachineConfig config; // paper-prototype defaults.
    CompileResult r = Compiler(config).compile("SI");
    ASSERT_TRUE(r.ok()) << r.report.toString();
    const CompiledKernel &kernel = *r.kernel;

    auto capture = [&](MarionetteMachine &m) {
        RunCapture cap;
        cap.result = m.run(kernel.cycleBudget);
        cap.stats = m.renderAllStats();
        cap.memDump = m.scratchpad().dump(
            0, static_cast<int>(config.scratchpadBytes /
                                sizeof(Word)));
        EXPECT_EQ(kernel.validate(m, cap.result), "");
        return cap;
    };

    MarionetteMachine a(config);
    kernel.prepare(a);
    MachineSnapshot snap = a.snapshot();
    RunCapture straight = capture(a);

    // Rewind the very machine that just ran.
    a.restore(snap);
    RunCapture rewound = capture(a);
    expectSame(straight, rewound, "in-place restore");

    // Warm-start a machine that never saw prepare().
    MarionetteMachine b(config);
    b.restore(snap);
    RunCapture warmed = capture(b);
    expectSame(straight, warmed, "fresh-machine restore");

    // A snapshot of a restored machine is as good as the original.
    MarionetteMachine c(config);
    c.restore(snap);
    MachineSnapshot resnap = c.snapshot();
    MarionetteMachine d(config);
    d.restore(resnap);
    RunCapture chained = capture(d);
    expectSame(straight, chained, "snapshot-of-restore");

    // The SnapshotCache miss path resets the stats before prepare();
    // on a fresh machine that reset must change nothing, and the
    // checkpoint it publishes must warm-start the next machine.
    SnapshotCache cache;
    const ProgramKey key(*findWorkload("SI"), config, {});
    MarionetteMachine e(config);
    ASSERT_FALSE(cache.prepareOrRestore(key, kernel, e));
    expectSame(straight, capture(e), "snapshot-cache miss");
    MarionetteMachine f(config);
    ASSERT_TRUE(cache.prepareOrRestore(key, kernel, f));
    expectSame(straight, capture(f), "snapshot-cache hit");
}

/** The sweep layer's warm-start path: duplicate grid cells hit the
 *  SnapshotCache and still validate bit-exactly. */
TEST(Snapshot, SweepWarmStartHitsSnapshotCache)
{
    std::vector<KernelSweepJob> jobs;
    for (int rep = 0; rep < 3; ++rep)
        for (const char *name : {"SI", "CRC"})
            jobs.push_back(
                KernelSweepJob{findWorkload(name), evalFabric()});

    ProgramCache programs;
    SnapshotCache snapshots;
    std::vector<KernelSweepResult> results =
        SweepRunner(1).runKernels(jobs, programs, &snapshots);

    SnapshotCache::Counters counters = snapshots.counters();
    EXPECT_EQ(counters.misses, 2u); // first rep of each kernel.
    EXPECT_EQ(counters.hits, 4u);   // two further reps of each.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(results[i].compiled) << results[i].diagnostic;
        EXPECT_TRUE(results[i].validated)
            << results[i].validationError;
    }
    // Warm-started repetitions reproduce the cold run exactly.
    for (std::size_t i = 2; i < jobs.size(); ++i) {
        const KernelSweepResult &cold = results[i % 2];
        EXPECT_EQ(results[i].run.cycles, cold.run.cycles);
        EXPECT_EQ(results[i].run.outputs, cold.run.outputs);
        EXPECT_EQ(results[i].run.totalFires, cold.run.totalFires);
    }
}

} // namespace
} // namespace marionette
