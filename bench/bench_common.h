/**
 * @file
 * Shared scaffolding for the per-table/per-figure bench binaries.
 *
 * Every binary in bench/ regenerates one artifact of the paper's
 * evaluation section: it prints the table/series on startup (the
 * reproduction artifact recorded in EXPERIMENTS.md) and then runs
 * google-benchmark timings of the machinery behind it.
 */

#ifndef MARIONETTE_BENCH_BENCH_COMMON_H
#define MARIONETTE_BENCH_BENCH_COMMON_H

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/marionette.h"

namespace marionette::bench
{

/** The model zoo every figure bench draws from. */
inline ModelZoo &
zoo()
{
    static ModelZoo z;
    return z;
}

/** Banner for the printed artifact. */
inline void
banner(const char *artifact, const char *paper_claim)
{
    std::printf("================================================"
                "=============\n");
    std::printf("%s\n", artifact);
    std::printf("paper reports: %s\n", paper_claim);
    std::printf("================================================"
                "=============\n");
}

} // namespace marionette::bench

/** Print the artifact once, then run the timings. */
#define MARIONETTE_BENCH_MAIN(print_artifact)                     \
    int main(int argc, char **argv)                               \
    {                                                             \
        print_artifact();                                         \
        ::benchmark::Initialize(&argc, argv);                     \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
            return 1;                                             \
        ::benchmark::RunSpecifiedBenchmarks();                    \
        ::benchmark::Shutdown();                                  \
        return 0;                                                 \
    }

#endif // MARIONETTE_BENCH_BENCH_COMMON_H
