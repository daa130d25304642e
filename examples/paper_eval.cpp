/**
 * @file
 * One-shot reproduction driver: prints every table and figure of
 * the paper's evaluation section from this repository's models,
 * then compiles the supported kernels through the CDFG->Program
 * pipeline and cross-validates them on the cycle-accurate machine.
 * (The bench/ binaries regenerate the same artifacts one at a time
 * with benchmark timing; this example is the human-readable tour.)
 *
 * The model x workload grid behind the tables is evaluated through
 * the parallel sweep runner (sim/sweep.h); results are keyed by
 * (model, workload), so the artifact is identical on any thread
 * count.
 *
 * Flags:
 *   --list         print the 13 workload abbreviations and exit.
 *   --kernels=a,b  restrict the grid (and the machine validation)
 *                  to the named kernels.
 *   --jobs=N       sweep-runner thread count (default: hardware).
 *   --report=PATH  write machine-readable per-kernel compile
 *                  coverage (status, failed pass, cycles, compile
 *                  time) as JSON — the bench trajectory's compiler
 *                  data points (BENCH_compile_coverage.json).
 *   --check-coverage=PATH
 *                  compare the current coverage (kernel, compiled,
 *                  failed pass, *and cycles within a tolerance
 *                  band*) against a checked-in expectation and
 *                  exit non-zero on any difference, so a change
 *                  can never quietly drop a working kernel or
 *                  regress its mapped cycles.
 *   --placer=snake|cost
 *                  backend placement algorithm for the machine
 *                  validation (default: cost; snake is the legacy
 *                  boustrophedon baseline).
 *   --mapped-report=PATH
 *                  run the snake-vs-cost placement A/B over both
 *                  evaluation fabrics and write the mapped-cycles
 *                  comparison (per-kernel cycles, hop/congestion
 *                  stats, aggregate reduction) as JSON
 *                  (BENCH_mapped_cycles.json).
 *   --unroll=N     spatial unroll factor cap for the machine
 *                  validation (0 = automatic, 1 = replication
 *                  off; see CompilerOptions::unrollFactor).
 *   --unroll-ablation=PATH
 *                  compile GEMM and LDPC at a ladder of unroll
 *                  caps on the primary fabric, run each on the
 *                  machine, and write the per-factor cycles /
 *                  chosen-factor / bit-exactness table as JSON
 *                  (BENCH_unroll_ablation.json).
 *   --snapshot-stats
 *                  run the machine validation twice through a
 *                  snapshot warm-start cache and print the
 *                  checkpoint hit/miss counters and the prepare
 *                  time the warm starts saved.
 *   --serve-smoke  push a small deterministic multi-tenant load
 *                  through the serving core (serve/server.h) with
 *                  spatial co-tenancy enabled and exit non-zero if
 *                  any response fails, diverges from the goldens,
 *                  or the latency tail blows out — CI's serving
 *                  smoke gate.
 *
 * Every JSON artifact is written, and the coverage expectation
 * read, through the report module (report/json.h): each report
 * opens with "schema_version" (report::kSchemaVersion) so
 * downstream consumers can detect shape changes, and the reader
 * rejects anything it cannot parse whole.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "compiler/program_cache.h"
#include "core/marionette.h"
#include "report/json.h"
#include "serve/server.h"

using namespace marionette;
using report::Json;
using report::JsonError;
using report::JsonWriter;

namespace
{

struct Options
{
    bool list = false;
    int jobs = 0;
    std::vector<std::string> kernels; ///< empty = all 13.
    std::string reportPath;
    std::string checkCoveragePath;
    std::string mappedReportPath;
    /** --placer and --unroll (the unroll cap: 0 = automatic,
     *  1 = replication off) for every compile. */
    CompilerOptions compile;
    /** Unroll-factor ablation mode: compile GEMM/LDPC at a ladder
     *  of caps and write the table to this path. */
    std::string unrollAblationPath;
    /** Print snapshot warm-start cache statistics (runs the
     *  validation grid twice through a SnapshotCache). */
    bool snapshotStats = false;
    /** Serving smoke mode: push a small deterministic load through
     *  the multi-tenant ServeCore and gate on bit-exactness. */
    bool serveSmoke = false;
    /** Fault-resilience mode: sweep seeded fault plans over the
     *  selected kernels instead of the model tour. */
    bool faults = false;
    /** Single (dead PEs, dead links) cell; -1 = the full grid. */
    int faultDeadPes = -1;
    int faultDeadLinks = -1;
    std::uint64_t faultSeed = 1;
    std::string resilienceReportPath;
};

bool
usageError(const char *why, const char *detail)
{
    std::fprintf(stderr, "paper_eval: %s%s%s\n", why,
                 detail ? ": " : "", detail ? detail : "");
    std::fprintf(stderr,
                 "usage: paper_eval [--list] [--kernels=a,b,c] "
                 "[--jobs=N] [--report=PATH] "
                 "[--check-coverage=PATH] [--placer=snake|cost] "
                 "[--mapped-report=PATH] [--unroll=N] "
                 "[--unroll-ablation=PATH] "
                 "[--snapshot-stats] "
                 "[--serve-smoke] [--faults] "
                 "[--fault-grid=DEADPES,DEADLINKS] "
                 "[--fault-seed=N] [--resilience-report=PATH]\n");
    return false;
}

/** Strict bounded integer parse; no atoi silence. */
bool
parseCount(const char *text, long min, long max, long &out)
{
    if (*text == '\0')
        return false;
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < min || v > max)
        return false;
    out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--list") == 0) {
            opts.list = true;
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            long jobs = 0;
            if (!parseCount(arg + 7, 0, 4096, jobs))
                return usageError("bad --jobs value (want 0..4096; "
                                  "0 = auto-detect)",
                                  arg + 7);
            opts.jobs = static_cast<int>(jobs);
        } else if (std::strncmp(arg, "--kernels=", 10) == 0) {
            std::string rest = arg + 10;
            if (rest.empty())
                return usageError("--kernels needs at least one "
                                  "name (see --list)",
                                  nullptr);
            std::size_t pos = 0;
            while (pos < rest.size()) {
                std::size_t comma = rest.find(',', pos);
                if (comma == std::string::npos)
                    comma = rest.size();
                std::string name = rest.substr(pos, comma - pos);
                if (!name.empty()) {
                    if (findWorkload(name) == nullptr)
                        return usageError(
                            "unknown kernel (see --list)",
                            name.c_str());
                    opts.kernels.push_back(name);
                }
                pos = comma + 1;
            }
            if (opts.kernels.empty())
                return usageError("--kernels needs at least one "
                                  "name (see --list)",
                                  nullptr);
        } else if (std::strncmp(arg, "--report=", 9) == 0) {
            if (arg[9] == '\0')
                return usageError("--report needs a path", nullptr);
            opts.reportPath = arg + 9;
        } else if (std::strncmp(arg, "--check-coverage=", 17) ==
                   0) {
            if (arg[17] == '\0')
                return usageError("--check-coverage needs a path",
                                  nullptr);
            opts.checkCoveragePath = arg + 17;
        } else if (std::strncmp(arg, "--mapped-report=", 16) == 0) {
            if (arg[16] == '\0')
                return usageError("--mapped-report needs a path",
                                  nullptr);
            opts.mappedReportPath = arg + 16;
        } else if (std::strncmp(arg, "--unroll=", 9) == 0) {
            long factor = 0;
            if (!parseCount(arg + 9, 0, 1024, factor))
                return usageError("bad --unroll value (want "
                                  "0..1024; 0 = automatic)",
                                  arg + 9);
            opts.compile.unrollFactor = static_cast<int>(factor);
        } else if (std::strncmp(arg, "--unroll-ablation=", 18) ==
                   0) {
            if (arg[18] == '\0')
                return usageError("--unroll-ablation needs a path",
                                  nullptr);
            opts.unrollAblationPath = arg + 18;
        } else if (std::strncmp(arg, "--placer=", 9) == 0) {
            if (!parsePlacerName(arg + 9, opts.compile.placer))
                return usageError("unknown placer (snake|cost)",
                                  arg + 9);
        } else if (std::strcmp(arg, "--snapshot-stats") == 0) {
            opts.snapshotStats = true;
        } else if (std::strcmp(arg, "--serve-smoke") == 0) {
            opts.serveSmoke = true;
        } else if (std::strcmp(arg, "--faults") == 0) {
            opts.faults = true;
        } else if (std::strncmp(arg, "--fault-grid=", 13) == 0) {
            std::string rest = arg + 13;
            std::size_t comma = rest.find(',');
            long dead_pes = 0, dead_links = 0;
            if (comma == std::string::npos ||
                !parseCount(rest.substr(0, comma).c_str(), 0, 99,
                            dead_pes) ||
                !parseCount(rest.substr(comma + 1).c_str(), 0, 99,
                            dead_links))
                return usageError(
                    "bad --fault-grid value (want DEADPES,"
                    "DEADLINKS, each 0..99)",
                    arg + 13);
            opts.faultDeadPes = static_cast<int>(dead_pes);
            opts.faultDeadLinks = static_cast<int>(dead_links);
        } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
            long seed = 0;
            if (!parseCount(arg + 13, 0, 1'000'000'000, seed))
                return usageError("bad --fault-seed value",
                                  arg + 13);
            opts.faultSeed = static_cast<std::uint64_t>(seed);
        } else if (std::strncmp(arg, "--resilience-report=", 20) ==
                   0) {
            if (arg[20] == '\0')
                return usageError("--resilience-report needs a "
                                  "path",
                                  nullptr);
            opts.resilienceReportPath = arg + 20;
        } else {
            return usageError("unknown flag", arg);
        }
    }
    if (!opts.faults &&
        (opts.faultDeadPes >= 0 ||
         !opts.resilienceReportPath.empty()))
        return usageError("--fault-grid/--resilience-report "
                          "require --faults",
                          nullptr);
    return true;
}

bool
selected(const Options &opts, const std::string &name)
{
    if (opts.kernels.empty())
        return true;
    for (const std::string &k : opts.kernels)
        if (k == name || findWorkload(k)->name() == name)
            return true;
    return false;
}

/** Per-kernel compile/run coverage on the primary fabric. */
struct KernelCoverage
{
    std::string kernel;
    bool compiled = false;
    std::string failedPass;
    std::string reason;
    bool validated = false;
    std::uint64_t cycles = 0;
    /** Structure-only analytic Marionette estimate
     *  (analyticCycleEstimate), the cross-check anchor. */
    double modelCycles = 0.0;
    /** Schedule-aware model estimate (trip counts, recurrence IIs
     *  and predicted link loads of the placed program). */
    double scheduledCycles = 0.0;
    std::int64_t compileMicros = 0;
};

/** Compile the selected kernels on two fabrics through the shared
 *  program cache and run them on the cycle-accurate machine.
 *  Returns the per-kernel coverage on the primary fabric. */
std::vector<KernelCoverage>
machineValidation(const Options &opts, const SweepRunner &runner)
{
    const MachineConfig big = evalFabric();
    const MachineConfig alt = slowMeshEvalFabric();

    const CompilerOptions &copts = opts.compile;
    std::vector<KernelSweepJob> jobs;
    std::vector<std::string> labels;
    for (const Workload *w : allWorkloads()) {
        if (!selected(opts, w->name()))
            continue;
        for (const MachineConfig &config : {big, alt}) {
            jobs.push_back(KernelSweepJob{w, config, 0, copts});
            labels.push_back(w->name());
        }
    }

    ProgramCache cache;
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);

    std::printf("\n== Compiler pipeline: Table-5 kernels on the "
                "cycle-accurate machine (%s placer) ==\n",
                std::string(placerName(opts.compile.placer)).c_str());
    std::printf("  %-6s %-5s %10s %10s %6s %8s  %s\n", "kernel",
                "cfg", "cycles", "model", "hops", "maxlink",
                "result");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const KernelSweepResult &r = results[i];
        const char *cfg = (i % 2 == 0) ? "10x10" : "10x10s";
        if (!r.compiled) {
            if (i % 2 == 0) // report each kernel's rejection once.
                std::printf("  %-6s %-5s %10s %10s %6s %8s  "
                            "rejected: %s\n",
                            labels[i].c_str(), "-", "-", "-", "-",
                            "-", r.diagnostic.c_str());
            continue;
        }
        std::printf("  %-6s %-5s %10llu %10.0f %6.2f %8llu  %s\n",
                    labels[i].c_str(), cfg,
                    static_cast<unsigned long long>(r.run.cycles),
                    r.modelEstimate, r.congestion.meanHops,
                    static_cast<unsigned long long>(
                        r.congestion.maxLinkLoad),
                    r.validated
                        ? "bit-exact vs golden"
                        : r.validationError.c_str());
    }
    std::printf("  program cache: %llu compile(s), %llu hit(s) "
                "across %zu jobs\n",
                static_cast<unsigned long long>(cache.misses()),
                static_cast<unsigned long long>(cache.hits()),
                jobs.size());

    // Coverage record from the primary-fabric results (even job
    // indices), with a freshly-timed compile per kernel.
    std::vector<KernelCoverage> coverage;
    Compiler compiler(big, copts);
    for (std::size_t i = 0; i < jobs.size(); i += 2) {
        const KernelSweepResult &r = results[i];
        KernelCoverage c;
        c.kernel = labels[i];
        c.compiled = r.compiled;
        c.validated = r.validated;
        if (r.compiled) {
            c.cycles = r.run.cycles;
            c.modelCycles =
                analyticCycleEstimate(*jobs[i].workload, big);
        }
        auto t0 = std::chrono::steady_clock::now();
        CompileResult cr =
            compiler.compile(*jobs[i].workload);
        c.compileMicros =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        c.failedPass = cr.report.failedPass;
        c.reason = cr.report.reason;
        c.scheduledCycles = cr.report.scheduledCycleEstimate;
        coverage.push_back(std::move(c));
    }
    return coverage;
}

/**
 * Snapshot warm-start statistics (--snapshot-stats): the validation
 * grid runs twice through a SnapshotCache, so the second pass
 * restores every cell's post-prepare checkpoint instead of
 * re-preparing.  Prints the checkpoint hit/miss counters and the
 * prepare time the warm starts saved (sweep-layer machinery the
 * sweeps and ablations share; see SnapshotCache).
 */
void
snapshotStatsRun(const Options &opts, const SweepRunner &runner)
{
    const CompilerOptions &copts = opts.compile;
    std::vector<KernelSweepJob> jobs;
    for (int rep = 0; rep < 2; ++rep)
        for (const Workload *w : allWorkloads()) {
            if (!selected(opts, w->name()))
                continue;
            jobs.push_back(
                KernelSweepJob{w, evalFabric(), 0, copts});
        }

    ProgramCache cache;
    SnapshotCache snapshots;
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache, &snapshots);

    std::size_t validated = 0;
    for (const KernelSweepResult &r : results)
        if (r.validated)
            ++validated;
    SnapshotCache::Counters c = snapshots.counters();
    std::printf("\n== Snapshot warm-start statistics (validation "
                "grid x2) ==\n");
    std::printf("  checkpoints: %llu miss(es) -> stored, %llu "
                "hit(s) -> restored\n",
                static_cast<unsigned long long>(c.misses),
                static_cast<unsigned long long>(c.hits));
    std::printf("  prepare time saved by warm starts: %.1f ms\n",
                static_cast<double>(c.savedMicros) / 1000.0);
    std::printf("  program cache: %llu compile(s), %llu hit(s); "
                "%zu/%zu jobs bit-exact\n",
                static_cast<unsigned long long>(cache.misses()),
                static_cast<unsigned long long>(cache.hits()),
                validated, results.size());
}

/** One (kernel, fabric) cell of the placement A/B. */
struct MappedCell
{
    std::string kernel;
    std::string fabric;
    KernelSweepResult snake;
    KernelSweepResult cost;

    bool compiled() const { return snake.compiled && cost.compiled; }
};

/**
 * The mapped-cycles ablation: every kernel on both evaluation
 * fabrics, compiled with the legacy snake backend and with the
 * cost-driven backend, run to completion and cross-validated.  The
 * aggregate over NW+LDPC+GEMM (the kernels with the largest
 * model-vs-machine gap) is the geomean speedup across the
 * (kernel, fabric) points — the literature's standard aggregate
 * for per-kernel cycle ratios of very different magnitudes — next
 * to the raw per-fabric cycle sums.
 */
std::vector<MappedCell>
mappedCyclesAb(const Options &opts, const SweepRunner &runner)
{
    const MachineConfig fabrics[] = {evalFabric(),
                                     slowMeshEvalFabric()};
    const char *fabric_names[] = {"10x10", "10x10s"};

    std::vector<KernelSweepJob> jobs;
    std::vector<MappedCell> cells;
    for (const Workload *w : allWorkloads()) {
        if (!selected(opts, w->name()))
            continue;
        for (int f = 0; f < 2; ++f) {
            cells.push_back({w->name(), fabric_names[f], {}, {}});
            for (PlacerKind placer :
                 {PlacerKind::Snake, PlacerKind::Cost}) {
                CompilerOptions copts = opts.compile;
                copts.placer = placer;
                jobs.push_back(
                    KernelSweepJob{w, fabrics[f], 0, copts});
            }
        }
    }

    ProgramCache cache;
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cells[i].snake = std::move(results[2 * i]);
        cells[i].cost = std::move(results[2 * i + 1]);
    }
    return cells;
}

bool
writeMappedReport(const std::string &path,
                  const std::vector<MappedCell> &cells)
{
    const std::set<std::string> aggregate_kernels = {"NW", "LDPC",
                                                     "GEMM"};
    double log_speedup_sum = 0.0;
    int points = 0;
    std::uint64_t snake_total = 0, cost_total = 0;
    for (const MappedCell &c : cells) {
        if (!c.compiled() || !aggregate_kernels.count(c.kernel))
            continue;
        snake_total += c.snake.run.cycles;
        cost_total += c.cost.run.cycles;
        log_speedup_sum +=
            std::log(static_cast<double>(c.snake.run.cycles) /
                     static_cast<double>(c.cost.run.cycles));
        ++points;
    }
    double geomean =
        points > 0 ? std::exp(log_speedup_sum / points) : 1.0;
    double sum_reduction =
        snake_total > 0
            ? 100.0 * (1.0 - static_cast<double>(cost_total) /
                                 static_cast<double>(snake_total))
            : 0.0;

    Json::Array rows;
    for (const MappedCell &c : cells) {
        if (!c.compiled())
            continue;
        rows.push_back(
            Json::object()
                .set("kernel", c.kernel)
                .set("fabric", c.fabric)
                .set("snake_cycles", c.snake.run.cycles)
                .set("cost_cycles", c.cost.run.cycles)
                .set("speedup",
                     static_cast<double>(c.snake.run.cycles) /
                         static_cast<double>(c.cost.run.cycles))
                .set("snake_mean_hops", c.snake.congestion.meanHops)
                .set("cost_mean_hops", c.cost.congestion.meanHops)
                .set("snake_max_link_load",
                     c.snake.congestion.maxLinkLoad)
                .set("cost_max_link_load", c.cost.congestion.maxLinkLoad)
                .set("validated", c.snake.validated && c.cost.validated));
    }
    Json aggregate = Json::object();
    aggregate.set("kernels", Json::Array{"NW", "LDPC", "GEMM"})
        .set("metric", "geomean speedup over the (kernel, fabric) "
                       "points")
        .set("points", points)
        .set("snake_cycles_total", snake_total)
        .set("cost_cycles_total", cost_total)
        .set("sum_reduction_pct", sum_reduction)
        .set("geomean_speedup", geomean)
        .set("aggregate_reduction_pct", 100.0 * (1.0 - 1.0 / geomean));
    std::printf("\n");
    const bool saved =
        JsonWriter()
            .set("baseline", "snake (legacy backend: boustrophedon "
                             "placement + legacy drain bounds)")
            .set("cells", std::move(rows))
            .set("aggregate", std::move(aggregate))
            .save(path, "mapped-cycles");
    std::printf("placement A/B aggregate (NW+LDPC+GEMM, both "
                "fabrics): geomean speedup %.3fx "
                "(%.1f%% cycle reduction; cycle sums %llu -> "
                "%llu, %.1f%%)\n",
                geomean, 100.0 * (1.0 - 1.0 / geomean),
                static_cast<unsigned long long>(snake_total),
                static_cast<unsigned long long>(cost_total),
                sum_reduction);
    return saved;
}

bool
writeCoverageReport(const std::string &path,
                    const std::vector<KernelCoverage> &coverage)
{
    Json::Array kernels;
    for (const KernelCoverage &c : coverage) {
        // mapped / scheduled: how tight the schedule-aware model
        // tracks the machine (1.0 = exact; the tentpole bar is
        // "within ~2x").
        double ratio = c.scheduledCycles > 0.0
                           ? static_cast<double>(c.cycles) /
                                 c.scheduledCycles
                           : 0.0;
        kernels.push_back(
            Json::object()
                .set("kernel", c.kernel)
                .set("compiled", c.compiled)
                .set("failed_pass", c.failedPass)
                .set("reason", c.reason)
                .set("validated", c.validated)
                .set("cycles", c.cycles)
                .set("model_cycles",
                     static_cast<std::uint64_t>(c.modelCycles))
                .set("scheduled_cycles",
                     static_cast<std::uint64_t>(c.scheduledCycles))
                .set("mapped_to_scheduled_ratio", ratio)
                .set("compile_us", c.compileMicros));
    }
    std::printf("\n");
    return JsonWriter()
        .set("fabric", "10x10")
        .set("kernels", std::move(kernels))
        .save(path, "compile-coverage");
}

/** One kernel's entry in the coverage expectation. */
struct ExpectedKernel
{
    bool compiled = false;
    std::string failedPass;
    /** The band anchors of a compiled kernel; 0 when the entry
     *  lacks a positive number (already reported as an error). */
    double cycles = 0.0;
    double ratio = 0.0;
};

/** Diff (kernel, compiled, failed_pass, cycles, mapped/scheduled
 *  ratio) against the expectation file in both directions; returns
 *  false (and prints every difference) on mismatch. */
bool
checkCoverage(const std::string &path,
              const std::vector<KernelCoverage> &coverage)
{
    // The expectation is read strictly: it must parse whole, carry
    // the current schema version, and give every kernel a string
    // "kernel", a bool "compiled" and a string "failed_pass".
    // Anything else is an error naming the problem, never a
    // silently skipped check.
    bool ok = true;
    std::map<std::string, ExpectedKernel> expected;
    try {
        const Json doc = report::parseJsonFile(path);
        const std::int64_t version =
            doc.get<std::int64_t>("schema_version");
        if (version != report::kSchemaVersion)
            throw JsonError(
                "schema_version is " + std::to_string(version) +
                ", expected " +
                std::to_string(report::kSchemaVersion));
        const Json::Array &kernels = doc.get<Json::Array>("kernels");
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            const Json &entry = kernels[i];
            std::string name;
            ExpectedKernel want;
            try {
                name = entry.get<std::string>("kernel");
                want.compiled = entry.get<bool>("compiled");
                want.failedPass = entry.get<std::string>("failed_pass");
            } catch (const JsonError &e) {
                throw JsonError("kernels[" + std::to_string(i) +
                                "]: " + e.what());
            }
            // Both bands fail closed: an expectation for a compiled
            // kernel that lacks either number (or holds a
            // non-number) is an error.
            auto positive = [&](const char *key) {
                const Json *v = entry.find(key);
                if (v != nullptr && v->isNumber() &&
                    v->asNumber() > 0.0)
                    return v->asNumber();
                std::fprintf(stderr,
                             "coverage check: %s expectation has no "
                             "positive numeric \"%s\"\n",
                             name.c_str(), key);
                ok = false;
                return 0.0;
            };
            if (want.compiled) {
                want.cycles = positive("cycles");
                want.ratio = positive("mapped_to_scheduled_ratio");
            }
            if (!expected.emplace(name, want).second)
                throw JsonError("kernel " + name + " is listed twice");
        }
    } catch (const JsonError &e) {
        std::fprintf(stderr, "coverage check: %s: %s\n", path.c_str(),
                     e.what());
        return false;
    }

    int checked = 0;
    for (const KernelCoverage &c : coverage) {
        auto it = expected.find(c.kernel);
        if (it == expected.end()) {
            std::fprintf(stderr,
                         "coverage check: kernel %s missing from "
                         "%s\n",
                         c.kernel.c_str(), path.c_str());
            ok = false;
            continue;
        }
        const ExpectedKernel &want = it->second;
        if (want.compiled != c.compiled) {
            std::fprintf(stderr,
                         "coverage check: %s %s, expected to %s\n",
                         c.kernel.c_str(),
                         c.compiled ? "compiles" : "is rejected",
                         want.compiled ? "compile" : "be rejected");
            ok = false;
        } else if (!c.compiled && want.failedPass != c.failedPass) {
            std::fprintf(stderr,
                         "coverage check: %s rejected by '%s', "
                         "expected '%s'\n",
                         c.kernel.c_str(), c.failedPass.c_str(),
                         want.failedPass.c_str());
            ok = false;
        }
        if (c.compiled && !c.validated) {
            std::fprintf(stderr,
                         "coverage check: %s compiled but was not "
                         "bit-exact\n",
                         c.kernel.c_str());
            ok = false;
        }
        // Cycle regressions fail CI too, not just status flips: a
        // compiled kernel's mapped cycles must stay within a
        // tolerance band of the expectation (the band absorbs
        // incidental drift from unrelated changes; a placement or
        // timing regression blows through it).  The run is fully
        // deterministic, so the band can be tight.
        constexpr double kCycleTolerance = 0.05;
        if (c.compiled && want.compiled && want.cycles > 0.0) {
            double rel =
                std::fabs(static_cast<double>(c.cycles) -
                          want.cycles) /
                want.cycles;
            if (rel > kCycleTolerance) {
                std::fprintf(
                    stderr,
                    "coverage check: %s runs in %llu cycles, "
                    "expected %.0f (+/-%.0f%%)\n",
                    c.kernel.c_str(),
                    static_cast<unsigned long long>(c.cycles),
                    want.cycles, 100.0 * kCycleTolerance);
                ok = false;
            }
        }
        // The mapped-to-scheduled ratio is the schedule model's
        // calibration (1.0 = the route pass predicts the machine
        // exactly).  Model drift fails CI independently of raw
        // cycles: a change that slows the machine *and* mis-models
        // it equally would pass the cycle band yet silently
        // invalidate every scheduled-cycle prediction downstream
        // (sweep modelEstimate, unroll ablation).  The band is
        // 0.10 absolute or 10% relative, whichever is larger.
        if (c.compiled && c.scheduledCycles <= 0.0) {
            std::fprintf(stderr,
                         "coverage check: %s compiled without a "
                         "scheduled-cycle estimate\n",
                         c.kernel.c_str());
            ok = false;
        } else if (c.compiled && want.compiled && want.ratio > 0.0) {
            double ratio = static_cast<double>(c.cycles) /
                           c.scheduledCycles;
            double drift = std::fabs(ratio - want.ratio);
            if (drift > 0.10 && drift > 0.10 * want.ratio) {
                std::fprintf(
                    stderr,
                    "coverage check: %s mapped/scheduled ratio "
                    "%.3f drifted from expected %.3f (band: 0.10 "
                    "absolute or 10%% relative)\n",
                    c.kernel.c_str(), ratio, want.ratio);
                ok = false;
            }
        }
        ++checked;
    }

    // Reverse direction: every kernel in the expectation must be
    // present in the current run, or dropping a registered
    // workload would pass unnoticed.
    for (const auto &[name, want] : expected) {
        if (std::none_of(coverage.begin(), coverage.end(),
                         [&](const KernelCoverage &c) {
                             return c.kernel == name;
                         })) {
            std::fprintf(stderr,
                         "coverage check: expected kernel %s is "
                         "missing from this run\n",
                         name.c_str());
            ok = false;
        }
    }
    std::printf("\ncoverage check vs %s: %d kernel(s) %s\n",
                path.c_str(), checked, ok ? "OK" : "CHANGED");
    return ok;
}

// ------------------------------------------------------------------
// Unroll-factor ablation (--unroll-ablation)
// ------------------------------------------------------------------

/** The replication factor the backend actually committed to (the
 *  lower pass's capacity refinement may shrink the unroll pass's
 *  candidate), parsed from the pinned "replicated xN" note; 1 when
 *  no phase replicated. */
int
chosenUnrollFactor(const CompileReport &report)
{
    int factor = 1;
    for (const CompilerPassNote &n : report.notes) {
        std::size_t at = n.message.find("replicated x");
        if (at == std::string::npos)
            continue;
        factor = std::max(
            factor, std::atoi(n.message.c_str() + at + 12));
    }
    return factor;
}

/**
 * The unroll-factor ablation: GEMM and LDPC on the primary fabric
 * at explicit caps 1/2/4/8/16 plus the automatic cap, each run to
 * completion on the cycle-accurate machine and cross-validated.
 * The JSON (BENCH_unroll_ablation.json) records the requested cap,
 * the factor the backend actually chose, mapped cycles, the
 * schedule-aware estimate, and bit-exactness — the evidence that
 * replication is where the mapped-cycle reduction comes from and
 * that every factor stays bit-exact.
 */
int
runUnrollAblation(const Options &opts, const SweepRunner &runner)
{
    const MachineConfig fabric = evalFabric();
    // 0 = automatic comes last so the table reads cap-then-auto.
    const int caps[] = {1, 2, 4, 8, 16, 0};

    std::vector<KernelSweepJob> jobs;
    for (const char *name : {"GEMM", "LDPC"}) {
        const Workload *w = findWorkload(name);
        if (w == nullptr || !selected(opts, w->name()))
            continue;
        for (int cap : caps) {
            CompilerOptions copts = opts.compile;
            copts.unrollFactor = cap;
            jobs.push_back(KernelSweepJob{w, fabric, 0, copts});
        }
    }
    if (jobs.empty()) {
        std::fprintf(stderr,
                     "paper_eval: --unroll-ablation needs GEMM "
                     "or LDPC selected\n");
        return 1;
    }

    ProgramCache cache;
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);

    std::printf("== Unroll-factor ablation: GEMM+LDPC on the "
                "10x10 fabric (%s placer) ==\n",
                std::string(placerName(opts.compile.placer)).c_str());
    std::printf("  %-6s %4s %6s %10s %10s  %s\n", "kernel", "cap",
                "chosen", "cycles", "scheduled", "result");
    bool failed = false;
    Json::Array rows;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const KernelSweepResult &r = results[i];
        const std::string kernel = jobs[i].workload->name();
        const int cap = jobs[i].options.unrollFactor;
        const std::uint64_t cycles = r.compiled ? r.run.cycles : 0;
        // The sweep result carries no compile report; re-derive
        // the chosen factor (and the scheduled estimate) with a
        // fresh compile under the same options.
        Compiler compiler(fabric, jobs[i].options);
        CompileResult cr = compiler.compile(*jobs[i].workload);
        const int chosen = chosenUnrollFactor(cr.report);
        const double scheduled = cr.report.scheduledCycleEstimate;
        if (!r.compiled || !r.validated)
            failed = true;
        std::printf(
            "  %-6s %4s %6d %10llu %10.0f  %s\n", kernel.c_str(),
            cap == 0 ? "auto" : std::to_string(cap).c_str(), chosen,
            static_cast<unsigned long long>(cycles), scheduled,
            !r.compiled
                ? ("rejected: " + r.diagnostic).c_str()
                : (r.validated ? "bit-exact vs golden"
                               : r.validationError.c_str()));
        rows.push_back(
            Json::object()
                .set("kernel", kernel)
                .set("requested_factor", cap)
                .set("auto", cap == 0)
                .set("chosen_factor", chosen)
                .set("compiled", r.compiled)
                .set("validated", r.validated)
                .set("cycles", cycles)
                .set("scheduled_cycles",
                     static_cast<std::uint64_t>(scheduled)));
    }

    if (!JsonWriter()
             .set("fabric", "10x10")
             .set("placer", std::string(placerName(opts.compile.placer)))
             .set("cells", std::move(rows))
             .save(opts.unrollAblationPath, "unroll-ablation"))
        return 1;
    if (failed)
        std::fprintf(stderr,
                     "paper_eval: unroll ablation FAILED — a "
                     "(kernel, factor) cell did not stay "
                     "bit-exact\n");
    return failed ? 1 : 0;
}

// ------------------------------------------------------------------
// Fault-resilience sweep (--faults)
// ------------------------------------------------------------------

/** One (kernel, fault-grid cell) outcome of the resilience sweep. */
struct ResilienceCell
{
    std::string kernel;
    int deadPes = 0;
    int deadLinks = 0;
    KernelSweepResult r;
    /** Validated cycles / the kernel's zero-fault validated cycles;
     *  0 when either side is unavailable. */
    double overhead = 0.0;

    /** A compiled run that ended in a structured RunError. */
    bool
    runError() const
    {
        return r.compiled && r.run.error != RunError::None;
    }
    std::uint64_t cycles() const { return r.compiled ? r.run.cycles : 0; }
    /** The job error, run error detail or rejection, in that order. */
    const std::string &
    diagnostic() const
    {
        return !r.jobError.empty() ? r.jobError
               : runError()        ? r.run.errorDetail
                                   : r.diagnostic;
    }
};

/**
 * Sweep seeded fault plans over the selected kernels on the primary
 * 10x10 fabric.  Every cell compiles fault-obliviously first, runs
 * on the faulted machine, and on a structured run error re-places/
 * re-routes against the discovered fault set and reruns (the
 * KernelSweepJob discovery mode).  The acceptance bar: every cell
 * must either stay bit-exact vs the goldens, reject with a
 * pass-attributed "unmappable under faults" diagnostic, or end in
 * bounded time with a structured RunResult error — silent corruption
 * or a thrown job fails the sweep (nonzero exit).
 */
int
runResilienceSweep(const Options &opts, const SweepRunner &runner)
{
    const MachineConfig base = evalFabric();
    const CompilerOptions &copts = opts.compile;

    // ISSUE grid: dead-PE counts spanning 0..8, dead-link counts
    // spanning 0..4 — or the single --fault-grid cell (always with
    // the zero-fault baseline so overhead is measurable).
    std::vector<std::pair<int, int>> cells;
    cells.emplace_back(0, 0);
    if (opts.faultDeadPes >= 0) {
        if (opts.faultDeadPes != 0 || opts.faultDeadLinks != 0)
            cells.emplace_back(opts.faultDeadPes,
                               opts.faultDeadLinks);
    } else {
        for (int d : {0, 1, 2, 4, 8})
            for (int l : {0, 1, 2, 4})
                if (d != 0 || l != 0)
                    cells.emplace_back(d, l);
    }

    std::vector<KernelSweepJob> jobs;
    std::vector<ResilienceCell> table;
    for (const Workload *w : allWorkloads()) {
        if (!selected(opts, w->name()))
            continue;
        for (const auto &[dead_pes, dead_links] : cells) {
            MachineConfig config = base;
            config.faults = FaultPlan::seeded(
                config.rows, config.cols, dead_pes, dead_links,
                opts.faultSeed);
            KernelSweepJob job{w, config, 0, copts};
            job.discoverFaults = true;
            job.maxRetries = 1;
            jobs.push_back(std::move(job));
            table.push_back({w->name(), dead_pes, dead_links, {}, 0.0});
        }
    }

    ProgramCache cache;
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);
    KernelSweepStats stats = summarizeKernelSweep(results);

    // Zero-fault baselines (cycles; cell (0,0) leads each kernel's
    // block) for the overhead ratios, and the set of kernels the
    // clean compiler accepts — only those count toward survival.
    std::size_t per_kernel = cells.size();
    for (std::size_t i = 0; i < results.size(); ++i) {
        ResilienceCell &cell = table[i];
        cell.r = std::move(results[i]);
        const KernelSweepResult &zero = table[i - (i % per_kernel)].r;
        if (cell.r.validated && zero.validated && zero.run.cycles > 0)
            cell.overhead = static_cast<double>(cell.r.run.cycles) /
                            static_cast<double>(zero.run.cycles);
    }

    std::printf("== Fault resilience: seeded fault sweep on the "
                "10x10 fabric (seed %llu, %s placer) ==\n",
                static_cast<unsigned long long>(opts.faultSeed),
                std::string(placerName(opts.compile.placer)).c_str());
    std::printf("  %-6s %4s %5s %10s %7s %8s  %s\n", "kernel",
                "dead", "links", "cycles", "retry", "overhead",
                "result");
    bool failed = false;
    int survivable = 0, survived = 0, recompiles = 0,
        recoveries = 0;
    double overhead_log_sum = 0.0;
    int overhead_count = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const ResilienceCell &cell = table[i];
        const KernelSweepResult &r = cell.r;
        const KernelSweepResult &zero = table[i - (i % per_kernel)].r;
        const char *verdict = nullptr;
        if (!r.jobError.empty()) {
            verdict = "JOB THREW";
            failed = true;
        } else if (!r.compiled) {
            // A clean rejection is acceptable under faults only if
            // it is the pass-attributed unmappable diagnostic (or
            // the kernel is rejected even fault-free, e.g. MS/FFT).
            verdict = "rejected";
            if (zero.compiled &&
                r.diagnostic.find("unmappable under faults") ==
                    std::string::npos)
                failed = true;
        } else if (r.validated) {
            verdict = "bit-exact";
        } else if (cell.runError()) {
            verdict = "structured error";
        } else {
            verdict = "SILENT CORRUPTION";
            failed = true;
        }
        if (zero.compiled && zero.validated) {
            ++survivable;
            if (r.validated)
                ++survived;
        }
        if (r.recompiled) {
            ++recompiles;
            if (r.validated)
                ++recoveries;
        }
        if (cell.overhead > 0.0 &&
            (cell.deadPes != 0 || cell.deadLinks != 0)) {
            overhead_log_sum += std::log(cell.overhead);
            ++overhead_count;
        }
        std::printf(
            "  %-6s %4d %5d %10llu %7d %8s  %s%s%s\n",
            cell.kernel.c_str(), cell.deadPes, cell.deadLinks,
            static_cast<unsigned long long>(cell.cycles()), r.retries,
            cell.overhead > 0.0
                ? (std::to_string(cell.overhead).substr(0, 5) + "x")
                      .c_str()
                : "-",
            verdict,
            (!r.jobError.empty() || cell.runError() ||
             (!r.compiled && !r.diagnostic.empty()))
                ? ": "
                : "",
            !r.jobError.empty() || cell.runError() || !r.compiled
                ? cell.diagnostic().c_str()
                : "");
    }

    double survival =
        survivable > 0 ? 100.0 * survived / survivable : 0.0;
    double recompile_rate =
        recompiles > 0 ? 100.0 * recoveries / recompiles : 0.0;
    double overhead_geomean =
        overhead_count > 0
            ? std::exp(overhead_log_sum / overhead_count)
            : 1.0;
    std::printf("\n  survival %d/%d (%.1f%%), %d recompile(s) "
                "(%d recovered, %.1f%%), cycle overhead geomean "
                "%.3fx, %d run error(s), %d rejected, %d job "
                "error(s)\n",
                survived, survivable, survival, recompiles,
                recoveries, recompile_rate, overhead_geomean,
                stats.runErrors, stats.rejected, stats.jobErrors);
    std::printf("  program cache: %llu compile(s), %llu hit(s) "
                "across %zu jobs\n",
                static_cast<unsigned long long>(cache.misses()),
                static_cast<unsigned long long>(cache.hits()),
                jobs.size());

    if (!opts.resilienceReportPath.empty()) {
        Json::Array rows;
        for (const ResilienceCell &cell : table)
            rows.push_back(
                Json::object()
                    .set("kernel", cell.kernel)
                    .set("dead_pes", cell.deadPes)
                    .set("dead_links", cell.deadLinks)
                    .set("compiled", cell.r.compiled)
                    .set("validated", cell.r.validated)
                    .set("cycles", cell.cycles())
                    .set("retries", cell.r.retries)
                    .set("recompiled", cell.r.recompiled)
                    .set("overhead", cell.overhead)
                    .set("run_error",
                         cell.runError()
                             ? std::string(runErrorName(cell.r.run.error))
                             : std::string())
                    .set("diagnostic", cell.diagnostic()));
        std::printf("  ");
        if (!JsonWriter()
                 .set("fabric", "10x10")
                 .set("seed", opts.faultSeed)
                 .set("survival_rate", survival / 100.0)
                 .set("recompile_success_rate", recompile_rate / 100.0)
                 .set("cycle_overhead_geomean", overhead_geomean)
                 .set("retried", stats.retried)
                 .set("recovered_by_recompile",
                      stats.recoveredByRecompile)
                 .set("cells", std::move(rows))
                 .save(opts.resilienceReportPath, "resilience"))
            return 1;
    }

    if (failed)
        std::fprintf(stderr,
                     "paper_eval: fault sweep FAILED — a cell "
                     "neither validated, rejected cleanly, nor "
                     "errored with a structured RunResult\n");
    return failed ? 1 : 0;
}

/**
 * Serving smoke gate (--serve-smoke): a small deterministic
 * multi-tenant load through the ServeCore with spatial co-tenancy
 * on — one primary fabric carved into four regions, snapshots and
 * golden cross-validation enabled.  Fails (non-zero exit) if any
 * response is unserved, any served response diverges from its solo
 * goldens, no warm start happened, or the latency tail blows out.
 */
int
runServeSmoke()
{
    serve::ServeOptions options;
    options.fabric = evalFabric();
    options.fabrics = 1;
    options.regionsPerFabric = 4;
    options.queueCapacity = 16;
    serve::ServeCore core(options);

    // Three tenants, two kernels, enough repetition that the
    // second half of the load is all snapshot warm starts.
    const char *tenants[] = {"alpha", "beta", "gamma"};
    const char *kernels[] = {"CRC", "SI"};
    std::vector<std::future<serve::ServeResponse>> futures;
    for (int i = 0; i < 24; ++i) {
        serve::ServeRequest request;
        request.tenant = tenants[i % 3];
        request.workload = kernels[i % 2];
        request.options.unrollFactor = 1;
        futures.push_back(core.submit(request));
    }
    core.drain();

    int served = 0, warm = 0, failed = 0;
    std::uint64_t worst_micros = 0;
    for (auto &future : futures) {
        const serve::ServeResponse response = future.get();
        if (!response.served || !response.validation.empty()) {
            ++failed;
            std::fprintf(stderr, "serve-smoke: %s\n",
                         response.served
                             ? response.validation.c_str()
                             : response.error.c_str());
            continue;
        }
        ++served;
        warm += response.warmStart ? 1 : 0;
        worst_micros =
            std::max(worst_micros, response.queueMicros +
                                       response.serviceMicros);
    }
    std::printf("%s", core.renderStats().c_str());
    std::printf("serve-smoke: %d served, %d warm starts, worst "
                "latency %.1fms\n",
                served, warm,
                static_cast<double>(worst_micros) / 1000.0);
    bool pass = failed == 0 && served == 24 && warm > 0;
    // Generous wall bound: a stuck queue or deadlocked lane shows
    // up as minutes, not seconds.
    if (worst_micros > 60'000'000ull) {
        std::fprintf(stderr, "serve-smoke: latency over 60s\n");
        pass = false;
    }
    std::printf("serve-smoke %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts))
        return 1;
    if (opts.list) {
        for (const Workload *w : allWorkloads())
            std::printf("%-6s %s (%s)\n", w->name().c_str(),
                        w->fullName().c_str(),
                        w->sizeDesc().c_str());
        return 0;
    }
    if (opts.serveSmoke)
        return runServeSmoke();
    if (opts.faults) {
        SweepRunner fault_runner(opts.jobs);
        return runResilienceSweep(opts, fault_runner);
    }
    if (!opts.unrollAblationPath.empty()) {
        SweepRunner ab_runner(opts.jobs);
        return runUnrollAblation(opts, ab_runner);
    }

    const ModelZoo zoo;
    const std::string vn = zoo.vonNeumann->name();
    const std::string df = zoo.dataflow->name();
    const std::string mar_base = zoo.marionetteBase->name();
    const std::string mar_net = zoo.marionetteNet->name();
    const std::string mar = zoo.marionette->name();
    const std::string sb = zoo.softbrain->name();
    const std::string tia = zoo.tia->name();
    const std::string revel = zoo.revel->name();
    const std::string riptide = zoo.riptide->name();

    std::vector<WorkloadProfile> profiles;
    for (const WorkloadProfile &p : allProfiles())
        if (selected(opts, p.name))
            profiles.push_back(p);
    std::vector<WorkloadProfile> intensive;
    for (const WorkloadProfile &p : intensiveProfiles())
        if (selected(opts, p.name))
            intensive.push_back(p);
    SweepRunner runner(opts.jobs);
    CycleTable table = runSuiteParallel(zoo.all(), profiles, runner);

    std::printf("== Table 1: control flow forms ==\n");
    for (const WorkloadProfile &p : profiles)
        std::printf("  %s\n", toString(p.controlFlow).c_str());

    std::printf("\n== Table 3: capability matrix ==\n%s",
                renderCapabilityMatrix().c_str());

    MachineConfig config;
    std::printf("\n== Table 4: area & power (28nm) ==\n%s",
                marionetteAreaBreakdown(config).toString().c_str());

    std::printf("\n== Table 6: network area comparison ==\n%s",
                toString(networkAreaComparison(config)).c_str());

    std::printf("\n== Fig 11: PE execution models "
                "(normalized to von Neumann PE) ==\n%s",
                renderSpeedupTable(table, vn, {vn, df, mar_base},
                                   intensive)
                    .c_str());

    std::printf("\n== Fig 12: + control network ==\n%s",
                renderSpeedupTable(table, mar_base, {mar_net},
                                   intensive)
                    .c_str());

    std::printf("\n== Fig 13: control network timing ==\n%s",
                toString(delaySweep()).c_str());

    std::printf("\n== Fig 14: + Agile PE Assignment ==\n%s",
                renderSpeedupTable(table, mar_net, {mar}, intensive)
                    .c_str());

    std::printf("\n== Fig 15: Agile utilization effects ==\n");
    for (const WorkloadProfile &p : intensive) {
        const ModelResult &s = table.at(mar_net).at(p.name);
        const ModelResult &a = table.at(mar).at(p.name);
        if (s.outerBbPeUtil <= 0)
            continue;
        std::printf("  %-6s outerBB %5.1f%% -> %5.1f%% (%5.1fx)   "
                    "pipeline %5.1f%% -> %5.1f%% (%4.2fx)\n",
                    p.name.c_str(), 100 * s.outerBbPeUtil,
                    100 * a.outerBbPeUtil,
                    a.outerBbPeUtil / s.outerBbPeUtil,
                    100 * s.pipelineUtil, 100 * a.pipelineUtil,
                    a.pipelineUtil / s.pipelineUtil);
    }

    std::printf("\n== Fig 16: network vs Agile speedup split ==\n");
    for (const WorkloadProfile &p : intensive) {
        double net_gain = table.at(mar_base).at(p.name).cycles /
                          table.at(mar_net).at(p.name).cycles;
        double agile_gain = table.at(mar_net).at(p.name).cycles /
                            table.at(mar).at(p.name).cycles;
        std::printf("  %-6s network %4.0f%%   agile %4.0f%%\n",
                    p.name.c_str(), 100 * (net_gain - 1),
                    100 * (agile_gain - 1));
    }

    std::printf("\n== Fig 17: vs state of the art "
                "(normalized to Softbrain) ==\n%s",
                renderSpeedupTable(table, sb,
                                   {sb, tia, revel, riptide, mar},
                                   profiles)
                    .c_str());

    if (!intensive.empty()) {
        std::printf("\nMarionette geomean speedups (intensive): "
                    "Softbrain %.2fx, TIA %.2fx, REVEL %.2fx, "
                    "RipTide %.2fx\n",
                    speedups(table, sb, mar, intensive).back(),
                    speedups(table, tia, mar, intensive).back(),
                    speedups(table, revel, mar, intensive).back(),
                    speedups(table, riptide, mar, intensive).back());
    }

    // Full-LDPC composite (Fig. 17 note): intensive LDPC decode
    // plus a non-intensive front end (Gray-processing-like).
    if (selected(opts, "LDPC") && selected(opts, "GP")) {
        auto composite = [&](const std::string &arch) {
            return table.at(arch).at("LDPC").cycles +
                   table.at(arch).at("GP").cycles;
        };
        std::printf("Full LDPC application: Softbrain %.2fx, TIA "
                    "%.2fx, REVEL %.2fx, RipTide %.2fx\n",
                    composite(sb) / composite(mar),
                    composite(tia) / composite(mar),
                    composite(revel) / composite(mar),
                    composite(riptide) / composite(mar));
    }

    std::vector<KernelCoverage> coverage =
        machineValidation(opts, runner);
    if (!opts.reportPath.empty() &&
        !writeCoverageReport(opts.reportPath, coverage))
        return 1;
    if (!opts.mappedReportPath.empty() &&
        !writeMappedReport(opts.mappedReportPath,
                           mappedCyclesAb(opts, runner)))
        return 1;
    if (opts.snapshotStats)
        snapshotStatsRun(opts, runner);
    if (!opts.checkCoveragePath.empty() &&
        !checkCoverage(opts.checkCoveragePath, coverage))
        return 1;
    return 0;
}
