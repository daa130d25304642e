/**
 * @file
 * Evaluation harness over the model zoo: runs architectures across
 * the benchmark suite, computes normalized speedups and geomeans,
 * and renders the tables behind Figs. 11-17.
 */

#ifndef MARIONETTE_MODEL_EVAL_H
#define MARIONETTE_MODEL_EVAL_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/arch_model.h"

namespace marionette
{

/** cycles[arch][workload]. */
using CycleTable =
    std::map<std::string, std::map<std::string, ModelResult>>;

class SweepRunner;

/** The model zoo behind the evaluation figures: the two baseline PE
 *  models, the Marionette feature ladder and four rival fabrics. */
struct ModelZoo
{
    ModelParams params;
    std::unique_ptr<ArchModel> vonNeumann = makeVonNeumannPe(params);
    std::unique_ptr<ArchModel> dataflow = makeDataflowPe(params);
    /** Proactive configuration only. */
    std::unique_ptr<ArchModel> marionetteBase = makeMarionette(
        params, {.controlNetwork = false, .agileAssignment = false});
    /** + the control network. */
    std::unique_ptr<ArchModel> marionetteNet =
        makeMarionette(params, {.agileAssignment = false});
    /** + Agile PE Assignment: the full design. */
    std::unique_ptr<ArchModel> marionette = makeMarionette(params, {});
    std::unique_ptr<ArchModel> softbrain = makeSoftbrain(params);
    std::unique_ptr<ArchModel> tia = makeTia(params);
    std::unique_ptr<ArchModel> revel = makeRevel(params);
    std::unique_ptr<ArchModel> riptide = makeRiptide(params);

    /** Every model, in the order the figures list them. */
    std::vector<const ArchModel *>
    all() const
    {
        return {vonNeumann.get(),    dataflow.get(),
                marionetteBase.get(), marionetteNet.get(),
                marionette.get(),    softbrain.get(),
                tia.get(),           revel.get(),
                riptide.get()};
    }
};

/** Run each model on each profile. */
CycleTable
runSuite(const std::vector<const ArchModel *> &models,
         const std::vector<WorkloadProfile> &profiles);

/**
 * runSuite() with the model x workload grid fanned out across
 * @p runner's thread pool.  The table is identical to the serial
 * one — cells are keyed by (model, workload), not by completion
 * order.
 */
CycleTable
runSuiteParallel(const std::vector<const ArchModel *> &models,
                 const std::vector<WorkloadProfile> &profiles,
                 const SweepRunner &runner);

/** Geometric mean of a vector of ratios. */
double geomean(const std::vector<double> &values);

/**
 * Speedups of @p subject over @p baseline per workload (baseline
 * cycles / subject cycles), in profile order, plus the geomean
 * appended last.
 */
std::vector<double>
speedups(const CycleTable &table, const std::string &baseline,
         const std::string &subject,
         const std::vector<WorkloadProfile> &profiles);

/**
 * Render a speedup table: one row per architecture (normalized to
 * @p normalize_to), columns per workload plus GM — the layout of
 * Figs. 11/12/14/17.
 */
std::string
renderSpeedupTable(const CycleTable &table,
                   const std::string &normalize_to,
                   const std::vector<std::string> &subjects,
                   const std::vector<WorkloadProfile> &profiles);

/** All 13 profiles in paper order (cached after the first call —
 *  golden runs take a moment). */
const std::vector<WorkloadProfile> &allProfiles();

/** The 10 intensive-control-flow profiles only. */
std::vector<WorkloadProfile> intensiveProfiles();

} // namespace marionette

#endif // MARIONETTE_MODEL_EVAL_H
