/**
 * @file
 * Compiled-program cache keyed by ProgramKey: the workload, the
 * architectural config hash and every compile option.
 *
 * Grid sweeps evaluate the same kernel on many configurations and
 * the same configuration on many kernels — and the parallel
 * SweepRunner does it from several threads at once.  The cache
 * makes each (workload, config) pair compile exactly once per
 * process; every other job shares the immutable CompiledKernel.
 * Failed compilations are cached too (as null kernels plus their
 * report), so a sweep over unsupported kernels does not re-run the
 * pass pipeline per job.
 *
 * The key uses configHash() (sim/config.h), which covers every
 * architectural field and deliberately ignores the eventDrivenSim
 * simulator toggle — both hot-path variants share an entry.
 */

#ifndef MARIONETTE_COMPILER_PROGRAM_CACHE_H
#define MARIONETTE_COMPILER_PROGRAM_CACHE_H

#include <compare>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "compiler/compiler.h"

namespace marionette
{

/**
 * Identity of one compiled program, shared by ProgramCache and
 * SnapshotCache.  Every compile option is a field of its own and
 * keys compare field by field, so two distinct cells can never
 * share an entry through a folded hash.
 */
struct ProgramKey
{
    ProgramKey(const Workload &workload, const MachineConfig &config,
               const CompilerOptions &options);

    std::string workload;
    std::uint64_t configHash = 0;
    /** Snake and cost mappings are different programs. */
    PlacerKind placer = PlacerKind::Cost;
    int unrollFactor = 0;
    /** The scratchpad window relocates every memory access (base)
     *  and gates the footprint check (size). */
    Word memoryBase = 0;
    Word memoryWords = 0;

    auto operator<=>(const ProgramKey &) const = default;
};

/** Thread-safe memoization of Compiler::compile. */
class ProgramCache
{
  public:
    /** Compile (or reuse) @p workload for @p config under
     *  @p options, keyed by their ProgramKey. */
    CompileResult getOrCompile(const Workload &workload,
                               const MachineConfig &config,
                               const CompilerOptions &options = {});

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /** Distinct (workload, config, options) entries held. */
    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::map<ProgramKey, CompileResult> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace marionette

#endif // MARIONETTE_COMPILER_PROGRAM_CACHE_H
