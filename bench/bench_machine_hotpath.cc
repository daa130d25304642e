/**
 * @file
 * Hot-path throughput of the cycle-accurate machine, reported as
 * simulated cycles per wall-clock second and FU firings per cycle.
 *
 * Two synthetic extremes bracket the simulator's per-cycle cost:
 *
 *  - *idle-heavy*: a 16x16 array where only a 4-PE pipeline works
 *    and the other 252 PEs are unprogrammed.  This is the common
 *    shape of mapped kernels (most PEs idle most cycles) and the
 *    case activity-driven ticking targets.
 *  - *fully-active*: every PE of a 4x4 array fires every few
 *    cycles, so the active worklist is the whole array and the
 *    event-driven machinery must not cost anything.
 *
 * Both run on the reference loop (fast=0) and the activity-driven
 * hot path (fast=1).  Two real Table-5 kernels compiled for the
 * 10x10 eval fabric set the rate against actual workloads: GEMM
 * (x8-unrolled, the densest firing pattern) and CRC (a short,
 * sparse serial kernel).  Only run() is timed; compile and
 * prepare() are not.
 *
 * --report=PATH writes every benchmark's result (the median when
 * --benchmark_repetitions is set) through the report module, as
 * BENCH_hotpath.json:
 *
 *   bench_machine_hotpath --benchmark_repetitions=5 \
 *       --report=BENCH_hotpath.json
 */

#include "bench_common.h"

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "compiler/program_builder.h"
#include "report/json.h"

namespace marionette
{
namespace
{

/** Loop generator -> 3-stage add chain -> output, on a big array. */
Program
idleHeavyKernel(const MachineConfig &config, Word iterations)
{
    ProgramBuilder b("idle_heavy", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = iterations;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    for (PeId pe = 1; pe <= 3; ++pe) {
        Instruction &in = b.place(pe, 0);
        in.mode = SenderMode::Dfg;
        in.op = Opcode::Add;
        in.a = OperandSel::channel(0);
        in.b = OperandSel::immediate(1);
        in.dests = {pe == 3 ? DestSel::toOutput(0)
                            : DestSel::toPe(pe + 1, 0)};
        b.setEntry(pe, 0);
    }
    return b.finish();
}

/** Every PE is a paced loop generator streaming to an output. */
Program
fullyActiveKernel(const MachineConfig &config, Word iterations)
{
    ProgramBuilder b("fully_active", config);
    b.setNumOutputs(config.numPes());
    for (PeId pe = 0; pe < config.numPes(); ++pe) {
        Instruction &gen = b.place(pe, 0);
        gen.mode = SenderMode::LoopOp;
        gen.op = Opcode::Loop;
        gen.loopStart = 0;
        gen.loopBound = iterations;
        gen.dests = {DestSel::toOutput(pe)};
        b.setEntry(pe, 0);
    }
    return b.finish();
}

MachineConfig
bigArrayConfig()
{
    MachineConfig config;
    config.rows = 16;
    config.cols = 16;
    config.nonlinearPes = 16;
    config.instrMemBytes = 64 * 1024;
    return config;
}

/** Per-run counters every row reports (medians under repetitions);
 *  the label names the fabric and the run path. */
void
reportRun(benchmark::State &state, const MachineConfig &config,
          std::uint64_t sim_cycles, std::uint64_t fires)
{
    const double runs = static_cast<double>(state.iterations());
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(sim_cycles), benchmark::Counter::kIsRate);
    state.counters["sim_cycles"] =
        static_cast<double>(sim_cycles) / runs;
    state.counters["fires_per_cycle"] =
        sim_cycles == 0 ? 0.0
                        : static_cast<double>(fires) /
                              static_cast<double>(sim_cycles);
    state.SetLabel(std::to_string(config.rows) + "x" +
                   std::to_string(config.cols) +
                   (config.eventDrivenSim ? " event" : " reference"));
}

void
BM_IdleHeavy(benchmark::State &state)
{
    MachineConfig config = bigArrayConfig();
    config.eventDrivenSim = state.range(0) != 0;
    Program prog = idleHeavyKernel(config, 50'000);
    MarionetteMachine m(config);
    std::uint64_t sim_cycles = 0;
    std::uint64_t fires = 0;
    for (auto _ : state) {
        m.load(prog);
        RunResult r = m.run();
        sim_cycles += r.cycles;
        fires += r.totalFires;
    }
    reportRun(state, config, sim_cycles, fires);
}
BENCHMARK(BM_IdleHeavy)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"fast"})
    ->Unit(benchmark::kMillisecond);

void
BM_FullyActive(benchmark::State &state)
{
    MachineConfig config; // the 4x4 prototype.
    config.eventDrivenSim = state.range(0) != 0;
    Program prog = fullyActiveKernel(config, 50'000);
    MarionetteMachine m(config);
    std::uint64_t sim_cycles = 0;
    std::uint64_t fires = 0;
    for (auto _ : state) {
        m.load(prog);
        RunResult r = m.run();
        sim_cycles += r.cycles;
        fires += r.totalFires;
    }
    reportRun(state, config, sim_cycles, fires);
}
BENCHMARK(BM_FullyActive)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"fast"})
    ->Unit(benchmark::kMillisecond);

/** A Table-5 kernel compiled once for the 10x10 eval fabric. */
const CompiledKernel &
evalKernel(const std::string &name)
{
    static std::map<std::string, std::shared_ptr<const CompiledKernel>>
        compiled;
    std::shared_ptr<const CompiledKernel> &kernel = compiled[name];
    if (!kernel) {
        CompileResult r = Compiler(evalFabric()).compile(name);
        if (!r.ok())
            MARIONETTE_FATAL("%s does not compile: %s", name.c_str(),
                             r.report.reason.c_str());
        kernel = r.kernel;
    }
    return *kernel;
}

void
BM_EvalKernel(benchmark::State &state, const char *name)
{
    const MachineConfig config = evalFabric();
    const CompiledKernel &kernel = evalKernel(name);
    std::uint64_t sim_cycles = 0;
    std::uint64_t fires = 0;
    bool exact = true;
    // A fresh machine per run; the old one is destroyed untimed.
    std::optional<MarionetteMachine> m;
    for (auto _ : state) {
        state.PauseTiming();
        m.emplace(config);
        kernel.prepare(*m);
        state.ResumeTiming();
        RunResult r = m->run(kernel.cycleBudget);
        state.PauseTiming();
        exact = exact && r.ok() && kernel.validate(*m, r).empty();
        sim_cycles += r.cycles;
        fires += r.totalFires;
        state.ResumeTiming();
    }
    if (!exact)
        state.SkipWithError("run is not bit-exact against the golden");
    reportRun(state, config, sim_cycles, fires);
}
BENCHMARK_CAPTURE(BM_EvalKernel, GEMM, "GEMM")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EvalKernel, CRC, "CRC")
    ->Unit(benchmark::kMillisecond);

/** Console output as usual, plus every result kept for --report
 *  (per benchmark: its median aggregate, else its last run). */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    CapturingReporter() : ConsoleReporter(OO_Tabular) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            const bool median = run.run_type == Run::RT_Aggregate &&
                                run.aggregate_name == "median";
            if (run.run_type == Run::RT_Iteration || median)
                results_[run.run_name.str()] = run;
        }
        ConsoleReporter::ReportRuns(runs);
    }

    bool
    save(const std::string &path) const
    {
        report::Json::Array rows;
        std::int64_t repetitions = 1;
        for (const auto &[name, run] : results_) {
            repetitions = run.repetitions;
            auto counter = [&run](const char *key) {
                const auto it = run.counters.find(key);
                return it == run.counters.end() ? 0.0
                                                : it->second.value;
            };
            rows.push_back(
                report::Json::object()
                    .set("name", name)
                    .set("label", run.report_label)
                    .set("sim_cycles", static_cast<std::int64_t>(
                                           counter("sim_cycles")))
                    .set("sim_mcycles_per_sec",
                         counter("sim_cycles_per_sec") / 1e6)
                    .set("fires_per_cycle", counter("fires_per_cycle")));
        }
        return report::JsonWriter()
            .set("artifact", "hotpath")
            .set("benchmark", "bench/bench_machine_hotpath.cc")
            .set("metric", "simulated cycles per wall-clock second of "
                           "MarionetteMachine::run()")
            .set("method", "median of the repetitions; compile and "
                           "prepare untimed")
            .set("repetitions", repetitions)
            .set("build_type", MARIONETTE_BUILD_TYPE)
            .set("compiler", __VERSION__)
            .set("hw_threads",
                 static_cast<std::int64_t>(
                     std::thread::hardware_concurrency()))
            .set("rows", std::move(rows))
            .save(path, "hotpath");
    }

  private:
    std::map<std::string, Run> results_;
};

} // namespace
} // namespace marionette

int
main(int argc, char **argv)
{
    std::printf("machine hot-path throughput: simulated cycles per "
                "wall-clock second\n(fast=0 reference tick-all "
                "loop, fast=1 activity-driven hot path; BM_EvalKernel "
                "runs compiled Table-5 kernels on the 10x10 eval "
                "fabric)\n\n");
    // Take --report=PATH out before google-benchmark sees argv.
    std::string report_path;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--report=", 9) == 0)
            report_path = argv[i] + 9;
        else
            argv[kept++] = argv[i];
    }
    argc = kept;
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    bool saved = true;
    if (report_path.empty()) {
        ::benchmark::RunSpecifiedBenchmarks();
    } else {
        marionette::CapturingReporter reporter;
        ::benchmark::RunSpecifiedBenchmarks(&reporter);
        saved = reporter.save(report_path);
    }
    ::benchmark::Shutdown();
    return saved ? 0 : 1;
}
