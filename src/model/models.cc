#include "model/arch_model.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "compiler/assignment.h"
#include "sim/logging.h"

namespace marionette
{

namespace
{

/** Which operator footprint a branch-handling policy pays. */
enum class Footprint
{
    Actual,      ///< Taken-path only (idealized).
    Predicated,  ///< Both lanes wired in space (von Neumann).
    Merged       ///< Lanes share one PE set (Marionette, Fig. 7b).
};

/** Per-architecture cost semantics. */
struct CostSpec
{
    Footprint footprint = Footprint::Actual;
    /** Innermost-first PE allocation (Agile) vs. static partition. */
    bool agilePlan = false;
    /** Added to every iteration (per-token configuration etc.). */
    double iiTax = 0.0;
    /** Recurrence chain crossing a *control-bound* branch (lanes
     *  with side effects), added to the execute latency. */
    double branchChainExtra = 0.0;
    /** Recurrence through an if-converted Select lane, added to
     *  the execute latency (identical for most architectures). */
    double selectChainExtra = 1.0;
    /** Plain data recurrence chain, added to the execute latency. */
    double dataChainExtra = 0.0;
    /** Per-iteration cost per branch decision (e.g. NoC steers). */
    double perIterBranchTax = 0.0;
    /** Added to the pipeline fill on every loop-round start. */
    double roundOverhead = 0.0;
    /** Control FIFOs decouple rounds: startup paid once, then a
     *  one-cycle bubble per round (Agile / REVEL streams). */
    bool decoupledRounds = false;
    /** Outer-loop body work overlaps resident inner pipelines. */
    bool overlapOuter = false;
    /** Outer loops serialize onto a single dataflow PE (REVEL). */
    bool outerOnSinglePe = false;
    /** Systolic sub-array size for innermost loops (REVEL). */
    int innerPes = 0;
    /** Cost multiplier for top-level (host-side) blocks. */
    double topBlockFactor = 1.0;
};

double
footprintOf(const LoopSummary &l, Footprint f)
{
    switch (f) {
      case Footprint::Actual:
        return std::max(1.0, l.opsPerIter);
      case Footprint::Predicated:
        return std::max(1.0, l.opsPerIterPredicated);
      case Footprint::Merged:
        return std::max(1.0, l.opsPerIterMerged);
    }
    return 1.0;
}

/** Per-loop planned pipeline shape. */
struct LoopPlan
{
    double pes = 1.0;
    double iiData = 1.0;
};

/**
 * Static partition: every loop's pipeline is resident for the whole
 * kernel, sharing the array proportionally to footprint (Sec. 3's
 * pathology: outer-loop PEs pinned and idle).
 */
std::map<int, LoopPlan>
staticPlan(const KernelStructure &ks, Footprint f, int num_pes)
{
    std::map<int, LoopPlan> plan;
    double total = 0.0;
    for (const LoopSummary &l : ks.loops)
        total += footprintOf(l, f);
    if (total <= 0)
        total = 1;
    for (const LoopSummary &l : ks.loops) {
        double w = footprintOf(l, f);
        LoopPlan p;
        p.pes = std::max(1.0, std::floor(num_pes * w / total));
        p.pes = std::min(p.pes, w);
        p.iiData = std::ceil(w / p.pes);
        plan[l.loopId] = p;
    }
    return plan;
}

/**
 * Agile innermost-first allocation (Fig. 8): innermost loops get
 * spatial mappings (II=1 when they fit); outer loops are reshaped
 * (time-extended) onto leftover PEs minimizing PE waste, sharing
 * with resident inner pipelines when the array is exhausted.
 */
std::map<int, LoopPlan>
agilePlanOf(const KernelStructure &ks, Footprint f, int num_pes)
{
    std::map<int, LoopPlan> plan;
    std::vector<int> order;
    for (const LoopSummary &l : ks.loops)
        order.push_back(l.loopId);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return ks.loop(a).depth > ks.loop(b).depth;
    });

    int budget = num_pes;
    for (int id : order) {
        const LoopSummary &l = ks.loop(id);
        int w = static_cast<int>(
            std::ceil(footprintOf(l, f)));
        LoopPlan p;
        if (l.innermost() && w <= budget) {
            p.pes = w;
            p.iiData = 1.0;
            budget -= w;
        } else if (budget > 0) {
            // Innermost pipelines are performance-critical: take
            // the lowest-II reshape that fits.  Outer loops execute
            // rarely, so they take the minimum-waste fold (the
            // Fig. 8 criterion for leftover PEs).
            ReshapeOption opt =
                [&] {
                    auto opts = reshapeOptions(w, budget);
                    MARIONETTE_ASSERT(!opts.empty(),
                                      "no reshape for %d ops", w);
                    ReshapeOption best = opts.front();
                    if (!l.innermost()) {
                        for (const ReshapeOption &o : opts)
                            if (o.waste < best.waste)
                                best = o;
                    }
                    return best;
                }();
            p.pes = opt.pes;
            p.iiData = opt.ii;
            budget -= opt.pes;
        } else {
            // Share the inner pipelines' PEs in the time domain.
            double share = std::max(1.0, num_pes / 2.0);
            p.pes = share;
            p.iiData = std::ceil(w / share) + 1.0;
        }
        plan[id] = p;
    }
    return plan;
}

/** The generic cost engine all concrete models instantiate. */
class GenericModel : public ArchModel
{
  public:
    GenericModel(std::string name, const ModelParams &params,
                 const CostSpec &spec)
        : ArchModel(params), name_(std::move(name)), spec_(spec)
    {}

    std::string name() const override { return name_; }

    ModelResult
    run(const WorkloadProfile &profile) const override
    {
        KernelStructure ks = analyzeStructure(profile);
        const CostSpec &s = spec_;
        const ModelParams &p = params_;

        // ---- Per-loop PE allocation. ----
        std::map<int, LoopPlan> plan;
        if (s.outerOnSinglePe) {
            // REVEL: innermost loops share the systolic sub-array,
            // outer loops serialize on the one dataflow PE.
            double inner_total = 0.0;
            for (const LoopSummary &l : ks.loops)
                if (l.innermost())
                    inner_total += footprintOf(l, s.footprint);
            if (inner_total <= 0)
                inner_total = 1;
            for (const LoopSummary &l : ks.loops) {
                double w = footprintOf(l, s.footprint);
                LoopPlan lp;
                if (l.innermost()) {
                    lp.pes = std::max(
                        1.0, std::floor(s.innerPes * w /
                                        inner_total));
                    lp.pes = std::min(lp.pes, w);
                    lp.iiData = std::ceil(w / lp.pes);
                } else {
                    lp.pes = 1.0;
                    // Serialized on the tagged-dataflow PE; each
                    // operator needs a triggered instruction slot.
                    lp.iiData = w * 2.2;
                }
                plan[l.loopId] = lp;
            }
        } else if (s.agilePlan) {
            plan = agilePlanOf(ks, s.footprint, p.numPes);
        } else {
            plan = staticPlan(ks, s.footprint, p.numPes);
        }

        // ---- Per-loop II and startup. ----
        std::map<int, double> ii, startup, bodyCost, bubble;
        for (const LoopSummary &l : ks.loops) {
            const LoopPlan &lp = plan[l.loopId];
            double ii_dep = 0.0;
            if (l.dependence.carried) {
                if (l.dependence.macOnly)
                    ii_dep = 1.0;
                else if (l.dependence.viaBranch)
                    ii_dep = p.execLat +
                             (l.dependence.selectable
                                  ? s.selectChainExtra
                                  : s.branchChainExtra);
                else
                    ii_dep = p.execLat + s.dataChainExtra;
            }
            double ii_l =
                std::max({1.0, lp.iiData, ii_dep}) + s.iiTax +
                s.perIterBranchTax * l.branchesPerIter;
            double fill = l.depthPerIter * p.execLat;
            ii[l.loopId] = ii_l;
            // Non-decoupled pipelines also drain between rounds.
            double drain = s.decoupledRounds ? 0.0 : 0.8 * fill;
            startup[l.loopId] = fill + drain + s.roundOverhead;
            bodyCost[l.loopId] =
                static_cast<double>(l.iterations) * ii_l;
            // A dependence-limited (serial) loop gains little from
            // FIFO decoupling: its recurrence, not the round
            // startup, sets the pace ("CRC, ADPCM, Merge Sort and
            // LDPC cannot be well pipelined. Therefore, Agile PE
            // Assignment cannot create a significant
            // acceleration", Sec. 7.3).
            bool serial =
                l.dependence.carried && !l.dependence.macOnly;
            bubble[l.loopId] =
                serial ? std::max(1.0, 0.6 * startup[l.loopId])
                       : 1.0;
        }

        // ---- Roll up the loop tree. ----
        std::map<int, double> total;
        // Process deepest-first so children are done before parents.
        std::vector<int> order;
        for (const LoopSummary &l : ks.loops)
            order.push_back(l.loopId);
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            return ks.loop(a).depth > ks.loop(b).depth;
        });
        for (int id : order) {
            const LoopSummary &l = ks.loop(id);
            double rounds =
                static_cast<double>(std::max<std::uint64_t>(
                    1, l.rounds));
            double children = 0.0;
            for (int c : l.children)
                children += total[c];
            double own = bodyCost[id];
            double t;
            if (s.decoupledRounds) {
                // FIFO-decoupled rounds: one startup, then a
                // per-round bubble (one cycle for pipelineable
                // loops, most of the startup for serial ones).
                double starts =
                    startup[id] + (rounds - 1.0) * bubble[id];
                t = s.overlapOuter
                        ? starts + std::max(own, children)
                        : starts + own + children;
            } else {
                t = rounds * startup[id] + own + children;
            }
            total[id] = t;
        }

        double cycles = 0.0;
        for (int root : ks.rootLoops())
            cycles += total[root];
        for (const TopBlock &tb : ks.topBlocks)
            cycles += static_cast<double>(tb.execs) * tb.depth *
                      p.execLat * s.topBlockFactor;
        cycles = std::max(cycles, 1.0);

        // ---- Metrics. ----
        ModelResult r;
        r.cycles = cycles;
        double useful = ks.totalOpExecutions * p.execLat;
        r.peUtilization =
            std::min(1.0, useful / (p.numPes * cycles));

        // Outer-BB PE utilization (Fig. 15 left): PEs pinned to
        // non-innermost loops.  Under Agile those PEs co-host inner
        // pipelines, so they observe the whole-array utilization.
        double outer_pes = 0.0, outer_work = 0.0;
        for (const LoopSummary &l : ks.loops) {
            if (l.innermost())
                continue;
            outer_pes += plan[l.loopId].pes;
            outer_work += static_cast<double>(l.iterations) *
                          l.opsPerIter * p.execLat;
        }
        if (outer_pes > 0) {
            r.outerBbPeUtil =
                (s.agilePlan || s.overlapOuter)
                    ? r.peUtilization
                    : std::min(1.0, outer_work /
                                        (outer_pes * cycles));
        }

        // Pipeline utilization (Fig. 15 right): initiations over
        // pipeline-busy cycles across innermost loops.
        double inits = 0.0, busy = 0.0;
        for (const LoopSummary &l : ks.loops) {
            if (!l.innermost())
                continue;
            double rounds =
                static_cast<double>(std::max<std::uint64_t>(
                    1, l.rounds));
            inits += static_cast<double>(l.iterations);
            busy += bodyCost.at(l.loopId) +
                    (s.decoupledRounds
                         ? startup.at(l.loopId) +
                               (rounds - 1.0) * bubble.at(l.loopId)
                         : rounds * startup.at(l.loopId));
        }
        if (busy > 0)
            r.pipelineUtil = std::min(1.0, inits / busy);
        return r;
    }

  private:
    std::string name_;
    CostSpec spec_;
};

} // namespace

std::unique_ptr<ArchModel>
makeVonNeumannPe(const ModelParams &p)
{
    CostSpec s;
    s.footprint = Footprint::Predicated;
    // Side-effecting lanes need predicated stores plus the join
    // select, lengthening the recurrence.
    s.branchChainExtra = 4.0;
    s.dataChainExtra = 0.0;
    s.roundOverhead = p.ccuRoundTrip; // CCU per loop round.
    s.topBlockFactor = 1.5;           // CCU-mediated block starts.
    return std::make_unique<GenericModel>("vonNeumannPE", p, s);
}

std::unique_ptr<ArchModel>
makeDataflowPe(const ModelParams &p)
{
    CostSpec s;
    s.footprint = Footprint::Merged; // tags steer both lanes.
    s.iiTax = p.configLat; // per-token configuration (Fig. 2b).
    s.branchChainExtra = 4.0; // tag rides the data path.
    s.selectChainExtra = p.configLat + 1.0;
    s.dataChainExtra = p.configLat;
    s.roundOverhead = p.dataNetLat; // control rides the data mesh.
    return std::make_unique<GenericModel>("dataflowPE", p, s);
}

std::unique_ptr<ArchModel>
makeMarionette(const ModelParams &p, const Features &f)
{
    CostSpec s;
    s.footprint = Footprint::Merged;
    double ctrl_path =
        f.controlNetwork ? p.ctrlNetLat : p.dataNetLat;
    // Proactive configuration overlaps the transfer+configure with
    // the branch PE's execute stage; roughly half of the remainder
    // pipelines against the lane's own data path.
    double hide = f.proactiveConfig ? p.execLat : 0.0;
    double cfg = f.proactiveConfig ? 0.5 : p.configLat + 1.0;
    s.branchChainExtra =
        0.35 * std::max(0.0, ctrl_path - hide) + cfg;
    s.dataChainExtra = 0.0;
    s.roundOverhead =
        std::max(1.0, ctrl_path + p.configLat - hide);
    s.agilePlan = f.agileAssignment;
    s.decoupledRounds = f.agileAssignment;
    s.overlapOuter = f.agileAssignment;
    std::string name = "Marionette";
    if (!f.proactiveConfig)
        name += "-noProactive";
    if (!f.controlNetwork)
        name += "-noCtrlNet";
    if (!f.agileAssignment)
        name += "-noAgile";
    return std::make_unique<GenericModel>(name, p, s);
}

std::unique_ptr<ArchModel>
makeSoftbrain(const ModelParams &p)
{
    CostSpec s;
    s.footprint = Footprint::Predicated;
    s.branchChainExtra = 5.0; // stream-level select.
    s.dataChainExtra = 0.0;
    // Host processor issues stream commands per round.
    s.roundOverhead = p.ccuRoundTrip * 2.25;
    s.topBlockFactor = 2.5; // scalar work on the host core.
    return std::make_unique<GenericModel>("Softbrain", p, s);
}

std::unique_ptr<ArchModel>
makeTia(const ModelParams &p)
{
    CostSpec s;
    s.footprint = Footprint::Merged;
    s.iiTax = 1.5; // triggered-instruction scheduler per datum.
    s.branchChainExtra = 4.0; // local tag check, still coupled.
    s.selectChainExtra = 2.5;
    s.dataChainExtra = 1.7;
    s.roundOverhead = 8.0; // autonomous, but tag-driven restart.
    return std::make_unique<GenericModel>("TIA", p, s);
}

std::unique_ptr<ArchModel>
makeRevel(const ModelParams &p)
{
    CostSpec s;
    s.footprint = Footprint::Predicated; // systolic lanes predicate.
    s.innerPes = p.numPes - 1; // 15 systolic + 1 dataflow PE.
    s.outerOnSinglePe = true;
    s.branchChainExtra = 2.0;
    s.dataChainExtra = 0.0;
    s.roundOverhead = 5.0; // stream re-issue between rounds.
    s.decoupledRounds = true; // inductive dataflow decoupling.
    // The single dataflow PE runs ahead only a little: outer-loop
    // work is *not* fully hidden (the fixed-resource mismatch of
    // Sec. 8, "Spatial pipelines on multiple BBs").
    return std::make_unique<GenericModel>("REVEL", p, s);
}

double
analyticCycleEstimate(const Workload &workload,
                      const MachineConfig &config)
{
    ModelParams params;
    params.numPes = config.numPes();
    params.configLat = static_cast<double>(config.configLatency);
    params.execLat = static_cast<double>(config.executeLatency);
    params.ctrlNetLat = static_cast<double>(config.controlNetLatency);
    params.dataNetLat = static_cast<double>(config.dataNetLatency);
    params.ccuRoundTrip = static_cast<double>(config.ccuRoundTrip);
    return makeMarionette(params, config.features)
        ->run(workload.profile())
        .cycles;
}

std::unique_ptr<ArchModel>
makeRiptide(const ModelParams &p)
{
    CostSpec s;
    s.footprint = Footprint::Actual; // control ops live in the NoC.
    s.branchChainExtra = 3.5;        // NoC steer latency.
    s.selectChainExtra = 2.0;        // steers traverse the NoC too.
    s.dataChainExtra = 1.0;          // NoC-mediated operands.
    s.perIterBranchTax = 1.1;        // steers share NoC bandwidth.
    s.roundOverhead = 4.0;
    return std::make_unique<GenericModel>("RipTide", p, s);
}

} // namespace marionette
