/**
 * @file
 * Shared state of the CDFG->Program pipeline (internal header).
 *
 * The Compilation object threads through every pass; each pass
 * produces the inputs of the next:
 *
 *   analyze    CDFG + machine data            (structure.cc)
 *   predicate  branch diamonds -> selects     (structure.cc)
 *   structure  CDFG -> RegionTree             (structure.cc)
 *   unroll     stripe-safe replication plan   (unroll.cc)
 *   assign     Fig. 8 planner -> AssignmentPlan (bind.cc)
 *   bind       trips, spans, seeds resolved   (bind.cc)
 *   lower      RegionTree -> FlatPhases       (lower.cc)
 *   place      FlatPhases -> Mapping          (backend/placement.cc)
 *   route      Mapping -> RoutePlan           (backend/route.cc)
 *   emit       binary construction            (backend/emit.cc)
 *
 * Only the driver (compiler.cc), the pass translation units and
 * backend-focused tests include this header.
 */

#ifndef MARIONETTE_COMPILER_PIPELINE_H
#define MARIONETTE_COMPILER_PIPELINE_H

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "compiler/assignment.h"
#include "compiler/backend/mapping.h"
#include "compiler/compiler.h"
#include "compiler/region.h"
#include "ir/dfg.h"
#include "ir/loop_info.h"
#include "sim/config.h"
#include "workloads/workload.h"

namespace marionette
{

/** A loop-carried value of one flattened phase. */
struct CarriedValue
{
    std::string name;
    int inputIdx = -1;     ///< flat-body input port.
    Operand finalVal;      ///< end-of-slot value.
    Word seed = 0;
    bool live = false;
    /** Pipeline slack of the recurrence: how many slots the
     *  carried channel is seeded ahead.  1 (the default) is the
     *  classic single-token recurrence; a fence-ordering token
     *  with a proven min store->load alias distance D runs with
     *  slack min(D, channel depth - 1), letting D consumers
     *  proceed before the producer catches up.  Slack applies to
     *  the *non-self* closing edges only — the final value's own
     *  pass-through chain keeps slack 1 so every slot stays
     *  transitively ordered. */
    Cycles slack = 1;
};

/** One flattened phase ready for emission. */
struct FlatPhase
{
    Dfg body;                          ///< input 0 = flat index t.
    Word trips = 0;
    std::vector<CarriedValue> carried;
    std::map<NodeId, Word> memBase;    ///< per memory node.
    std::map<std::string, Operand> finalEnv;
    std::set<NodeId> liveNodes;
    /** Spatial unroll factor this phase was lowered at (1 = no
     *  replication).  At factor F the body holds F replicas of
     *  the striped loop's work sharing one generator stream;
     *  replica r covers source iterations r, r+F, r+2F, ... */
    int unrollFactor = 1;
    /** Per-replica final environments (size == unrollFactor when
     *  unrolled, else empty; finalEnv aliases replica 0).  The
     *  observation-splitting logic resolves each observed port in
     *  every replica to reassemble the golden stream order. */
    std::vector<std::map<std::string, Operand>> replicaEnvs;
    /** Body span (slots per iteration) of the striped loop, used
     *  to interleave per-replica observation streams back into
     *  source order. */
    Word stripeSpan = 0;
};

/** (fifo, phase, producing node) of one observed port. */
struct Observation
{
    int fifo = 0;
    int phase = 0;
    NodeId node = invalidNode;
};

/** The unroll pass's replication decision for one phase (indexed
 *  like Compilation::phases after lowering; computed against the
 *  region tree before bind). */
struct UnrollDecision
{
    /** Header block name of the striped counted loop; empty when
     *  the phase is not replicated. */
    std::string header;
    /** Candidate factor (the lower pass may refine it downward to
     *  fit the PE budget; divisors of the trip count only). */
    int factor = 1;
    /** Trip count of the striped loop (for divisor refinement). */
    Word trips = 0;
};

/** The compilation state threading every pass. */
struct Compilation
{
    const Workload &workload;
    const MachineConfig &config;
    CompilerOptions options;
    CompileReport report;

    Cdfg cdfg{"empty"};
    LoopInfo loops;
    WorkloadMachineSpec spec;
    RegionTree top;
    std::map<std::string, Word> initEnv;
    /** Filled by unroll: one decision per top-level phase region. */
    std::vector<UnrollDecision> unroll;
    std::vector<FlatPhase> phases;
    std::vector<Observation> observations;
    /** Golden output streams the emit pass hands the kernel —
     *  spec.expectedOutputs reordered for replica-split
     *  observations (identical to the spec streams at factor 1). */
    std::vector<std::vector<Word>> goldenOutputs;
    /** Filled by assign: the Fig. 8 plan the placer consumes. */
    AssignmentPlan plan;
    /** Filled by place. */
    Mapping mapping;
    /** Filled by route. */
    RoutePlan routes;
    /** Filled by emit. */
    CompiledKernel *out = nullptr;

    Compilation(const Workload &w, const MachineConfig &c,
                const CompilerOptions &o = {})
        : workload(w), config(c), options(o)
    {}

    bool
    fail(const char *pass, const std::string &why)
    {
        report.fail(pass, why);
        return false;
    }
};

// Pass names (stable: they appear in golden diagnostics).
inline constexpr const char *kPassAnalyze = "analyze";
inline constexpr const char *kPassPredicate = "predicate";
inline constexpr const char *kPassStructure = "structure";
inline constexpr const char *kPassUnroll = "unroll";
inline constexpr const char *kPassAssign = "assign";
inline constexpr const char *kPassBind = "bind";
inline constexpr const char *kPassLower = "lower";
inline constexpr const char *kPassPlace = "place";
inline constexpr const char *kPassRoute = "route";
inline constexpr const char *kPassEmit = "emit";

/** The edges that close a phase's loop-carried cycles (source =
 *  carried final value, destination = a consumer of that carried
 *  input).  Shared by the place and route passes so the two can
 *  never disagree on what is a recurrence closure.  Defined in
 *  backend/placement.cc. */
std::set<std::pair<NodeId, NodeId>> closingEdges(
    const FlatPhase &phase);

/** Pipeline slack of the closing edge src -> dst (pipeline.h
 *  CarriedValue::slack semantics): the carried value's slack for
 *  non-self edges, 1 for the final value's own pass-through edge.
 *  Shared by place (II weighting) and route (recurrence II) so the
 *  two cannot drift.  Defined in backend/placement.cc. */
Cycles closingEdgeSlack(const FlatPhase &phase, NodeId src,
                        NodeId dst);

// Pass entry points (one translation unit each).
bool passAnalyze(Compilation &cc);     // structure.cc
bool passPredicate(Compilation &cc);   // structure.cc
bool passStructure(Compilation &cc);   // structure.cc
bool passUnroll(Compilation &cc);      // unroll.cc
bool passAssign(Compilation &cc);      // bind.cc
bool passBind(Compilation &cc);        // bind.cc
bool passLower(Compilation &cc);       // lower.cc
bool passPlace(Compilation &cc);       // backend/placement.cc
bool passRoute(Compilation &cc);       // backend/route.cc
bool passEmit(Compilation &cc);        // backend/emit.cc

} // namespace marionette

#endif // MARIONETTE_COMPILER_PIPELINE_H
