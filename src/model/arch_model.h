/**
 * @file
 * Trace-driven performance models (paper Sec. 6.1).
 *
 * The paper "built the performance models of Softbrain, TIA, REVEL,
 * RipTide and Marionette with the simulator and normalized the
 * computing fabric to the same size".  Each model here replays a
 * workload's measured loop structure under one architecture's
 * execution-model semantics:
 *
 *  - how many PEs each basic-block pipeline receives (static
 *    partition vs. Agile innermost-first assignment),
 *  - which initiation interval the pipeline sustains (footprint-
 *    limited, dependence-limited, or config-coupling-limited),
 *  - what each control transfer costs (CCU round trip, data-path
 *    token, data-mesh address, or 1-cycle control network), and
 *  - whether loop rounds decouple through Control FIFOs.
 *
 * All fabrics are normalized to the same PE count and use the
 * paper's relative latencies (configure 1, execute 2, control
 * network 1, data mesh 6, Sec. 2.3 / Fig. 4d).
 */

#ifndef MARIONETTE_MODEL_ARCH_MODEL_H
#define MARIONETTE_MODEL_ARCH_MODEL_H

#include <memory>
#include <string>
#include <vector>

#include "model/structure.h"
#include "sim/config.h"
#include "workloads/workload.h"

namespace marionette
{

/** Normalized fabric parameters shared by every model. */
struct ModelParams
{
    int numPes = 16;
    double configLat = 1.0;
    double execLat = 2.0;
    double ctrlNetLat = 1.0;
    double dataNetLat = 6.0;
    double ccuRoundTrip = 8.0;
};

/** Outcome of one model x workload evaluation. */
struct ModelResult
{
    double cycles = 0.0;
    /** Useful-op utilization of the whole array. */
    double peUtilization = 0.0;
    /** Utilization of the PEs holding outer-loop blocks (Fig 15). */
    double outerBbPeUtil = 0.0;
    /** Pipeline utilization: initiations / busy cycles (Fig 15). */
    double pipelineUtil = 0.0;
};

/** Abstract architecture performance model. */
class ArchModel
{
  public:
    explicit ArchModel(const ModelParams &params)
        : params_(params)
    {}
    virtual ~ArchModel() = default;

    virtual std::string name() const = 0;

    /** Evaluate one workload. */
    virtual ModelResult run(const WorkloadProfile &profile) const
        = 0;

    const ModelParams &params() const { return params_; }

  protected:
    ModelParams params_;
};

// ---- Factories -------------------------------------------------

/** Von Neumann PE baseline (Fig. 11): predication for branches,
 *  CCU-orchestrated loop rounds. */
std::unique_ptr<ArchModel> makeVonNeumannPe(const ModelParams &p);

/** Dataflow PE baseline (Fig. 11): tagged tokens couple config and
 *  data in time and space. */
std::unique_ptr<ArchModel> makeDataflowPe(const ModelParams &p);

/** Marionette with selectable features (Figs. 11/12/14/16/17). */
std::unique_ptr<ArchModel> makeMarionette(const ModelParams &p,
                                          const Features &f);

/**
 * The analytic Marionette model's cycle estimate for @p workload on
 * @p config's fabric (size, latencies and features): the structure-
 * only cross-check anchor paper_eval reports as model_cycles.  It
 * profiles the workload, which costs a full trace of its CDFG, so it
 * is computed only where it is reported — never on the compile path.
 */
double analyticCycleEstimate(const Workload &workload,
                             const MachineConfig &config);

/** Softbrain (stream-dataflow, ISCA'17). */
std::unique_ptr<ArchModel> makeSoftbrain(const ModelParams &p);

/** TIA (triggered instructions, ISCA'13). */
std::unique_ptr<ArchModel> makeTia(const ModelParams &p);

/** REVEL (hybrid systolic-dataflow, HPCA'20):
 *  15 systolic PEs + 1 tagged-dataflow PE. */
std::unique_ptr<ArchModel> makeRevel(const ModelParams &p);

/** RipTide (control flow inside the NoC, MICRO'22). */
std::unique_ptr<ArchModel> makeRiptide(const ModelParams &p);

} // namespace marionette

#endif // MARIONETTE_MODEL_ARCH_MODEL_H
