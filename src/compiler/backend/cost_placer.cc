/**
 * @file
 * The cost (timing-driven) placer behind the place pass.
 *
 * The objective is the quantity that actually bounds mapped cycles:
 * each phase's *recurrence initiation interval* — the worst
 * loop-carried cycle latency (execute + mesh transit around the
 * carried closure), which every flattened iteration pays — plus
 * total weighted wirelength as a tiebreaker (feed-forward hops cost
 * pipeline-fill once per kernel, recurrence hops a little more).
 * Greedy seed (critical-cycle nodes first, in dependence order, so
 * the chain lays out mesh-adjacent), then deterministic iterative
 * improvement (relocate/swap moves from a fixed-seed RNG,
 * strictly-improving accepts over the exact objective).  A final
 * comparison against the snake layout keeps whichever scores
 * better, so the cost placer never loses to its own baseline on
 * the model it optimizes.
 *
 * The Fig. 8 AssignmentPlan informs the tiebreak weighting: when
 * the planner maps every block at II = 1 the pipeline has no timing
 * slack and recurrence hops dominate; blocks already time-extended
 * (II > 1) leave slack, so the weight relaxes.
 *
 * Move evaluation is exact but incremental, so the search accepts
 * the same moves a from-scratch evaluation would and every emitted
 * program is unchanged by it:
 *
 *  - mesh latencies come from a numPes x numPes table built once
 *    per placer;
 *  - each closing pair stores, from the position-free template
 *    graph, the post-order of the entities on its consumer ->
 *    final-value paths together with their in-body successors, so
 *    the pair's round-trip latency is one linear sweep over a flat
 *    scratch vector;
 *  - each pair's II is cached; a trial move recomputes only the
 *    pairs whose body holds a moved entity (the operand-skew term is
 *    recomputed in full), and an accepted move refreshes the moved
 *    phases' caches from scratch.
 */

#include <algorithm>
#include <optional>
#include <queue>

#include "compiler/backend/placer.h"
#include "sim/logging.h"
#include "sim/rng.h"

namespace marionette
{

namespace
{

/** One placeable entity: a phase generator or a live DFG node. */
struct Entity
{
    int phase = 0;
    NodeId node = invalidNode; ///< invalidNode = the generator.
    bool nonlinear = false;
    PeId pe = invalidPe;
    /** Incident edges as (peer entity, weight) pairs (tiebreak
     *  wirelength objective; both directions present). */
    std::vector<std::pair<int, std::uint64_t>> adj;
    /** Template out-edges (entity indices; closures excluded). */
    std::vector<int> tmplOut;
};

/** Max and sum of squares of a phase's per-cycle IIs. */
struct CycleTotals
{
    Cycles maxII = 0;
    std::uint64_t sq = 0;

    void
    add(Cycles ii)
    {
        maxII = std::max(maxII, ii);
        sq += static_cast<std::uint64_t>(ii) * ii;
    }

    /** The phase score these totals pack to: max in the high bits,
     *  the saturated sum of squares below.  Monotone in both, so
     *  the score without the skew term bounds the one with it from
     *  below. */
    std::uint64_t
    packed() const
    {
        return (static_cast<std::uint64_t>(maxII) << 24) +
               std::min<std::uint64_t>(sq, (1u << 24) - 1);
    }
};

/** A trial move that beats its bound (see CostPlacer::tryMove). */
struct Trial
{
    std::uint64_t objective = 0;
    /** Scores of the moved entities' phases (equal when shared). */
    std::uint64_t scoreA = 0;
    std::uint64_t scoreB = 0;
};

/** One closing carried edge and the template paths it closes. */
struct ClosingPair
{
    int fin;
    int consumer;
    Cycles slack;
    /** Entities on some consumer -> fin template path in post-order
     *  (successors first): fin leads, the consumer is last. */
    std::vector<int> body;
    /** In-body successors of body[k], as body positions, in
     *  template-edge order: succ[succStart[k] .. succStart[k+1]). */
    std::vector<int> succStart;
    std::vector<int> succ;
    /** 1 for every entity index in body (the pair's II depends on
     *  no other position). */
    std::vector<std::uint8_t> member;
    /** Stage count of the longest consumer -> fin path. */
    std::int64_t stages = 0;
    /** II under the current positions (see CostPlacer::ii_). */
    Cycles ii = 0;
};

class CostPlacer
{
  public:
    CostPlacer(Compilation &cc, Mapping &map, int nonlinear_total)
        : cc_(cc),
          map_(map),
          numPes_(cc.config.numPes()),
          exec_(cc.config.executeLatency),
          firstNonlinear_(static_cast<PeId>(
              cc.config.numPes() - cc.config.nonlinearPes)),
          taken_(static_cast<std::size_t>(cc.config.numPes()),
                 false),
          deadPe_(static_cast<std::size_t>(cc.config.numPes()), 0),
          capableFree_(cc.config.nonlinearPes),
          nonlinearTotal_(nonlinear_total),
          nonlinearUnplaced_(nonlinear_total)
    {
        // The same geometry the machine's DataMesh charges, tabled:
        // the search asks for millions of latencies.
        const MeshGeometry geom(cc.config.rows, cc.config.cols,
                                cc.config.meshHopLatency);
        latTable_.resize(static_cast<std::size_t>(numPes_) *
                         static_cast<std::size_t>(numPes_));
        for (PeId a = 0; a < numPes_; ++a)
            for (PeId b = 0; b < numPes_; ++b)
                latTable_[static_cast<std::size_t>(a * numPes_ + b)] =
                    geom.latency(a, b);

        // Dead PEs (and PEs isolated by dead links) are permanently
        // taken in every search round; the capable-PE reserve
        // shrinks by the dead capable ones.
        for (PeId p : cc_.config.faults.effectiveDeadPes(
                 cc_.config.rows, cc_.config.cols)) {
            deadPe_[static_cast<std::size_t>(p)] = 1;
            if (p >= firstNonlinear_)
                ++deadCapable_;
        }
        markDead();
        capableFree_ -= deadCapable_;
    }

    void
    run()
    {
        buildEntities();

        // Iterated local search, deterministic throughout; the
        // best placement across all rounds wins.  Rounds vary the
        // seed construction — critical-cycle ring embeddings at
        // shifted anchors, a plain greedy-attach round — and after
        // each polish the next round re-embeds whichever cycle is
        // *latency*-critical under the current placement (parallel
        // chains can hide behind the stage-critical one).
        std::map<int, std::vector<int>> override_chains;
        std::vector<PeId> best;
        std::uint64_t best_obj = ~0ull;
        for (int round = 0; round < 14; ++round) {
            reset();
            bool use_ring = round != 1;
            attachTopo_ = round >= 2 && round % 2 == 0;
            int variant = round >= 2 ? (round - 2) / 2 : 0;
            ringShiftR_ = variant % 2;
            ringShiftC_ = variant / 2;
            greedySeed(use_ring ? override_chains
                                : kNoChains,
                       use_ring);
            improve(round);
            refineCritical();
            std::uint64_t obj = objective(iiSum(), wire_);
            if (obj < best_obj) {
                best_obj = obj;
                best.clear();
                for (const Entity &e : entities_)
                    best.push_back(e.pe);
            }
            // Next round embeds the latency-critical chain of the
            // currently-worst phase.
            int worst_phase = 0;
            for (std::size_t p = 0; p < ii_.size(); ++p)
                if (ii_[p] > ii_[static_cast<std::size_t>(
                                 worst_phase)])
                    worst_phase = static_cast<int>(p);
            std::vector<int> chain =
                criticalEntities(worst_phase);
            if (chain.size() >= 4)
                override_chains[worst_phase] = std::move(chain);
        }
        restore(best);
        commit();
    }

    /** Snake fallback: if the legacy layout scores better on the
     *  exact objective, keep it (the cost placer must never lose
     *  to its own baseline on the model it optimizes). */
    void
    maybeFallBackToSnake()
    {
        Mapping snake;
        snake.placer = PlacerKind::Cost;
        placeSnake(cc_, snake, nonlinearTotal_);

        std::uint64_t cost_obj = objective(iiSum(), wire_);
        const std::vector<std::uint64_t> cost_ii = ii_;
        const std::uint64_t cost_wire = wire_;
        adopt(snake);
        std::uint64_t snake_obj = objective(iiSum(), wire_);
        if (snake_obj < cost_obj) {
            for (std::size_t p = 0; p < cc_.phases.size(); ++p) {
                map_.phases[p].generator =
                    snake.phases[p].generator;
                map_.phases[p].peOf = snake.phases[p].peOf;
            }
            map_.drainPes = snake.drainPes;
            keptSnake_ = true;
        } else {
            // Back to the committed cost layout, caches included.
            adopt(map_);
            MARIONETTE_ASSERT(ii_ == cost_ii && wire_ == cost_wire,
                              "cost layout did not round-trip");
        }
    }

    CostPlacement
    summary() const
    {
        CostPlacement out;
        for (std::uint64_t score : ii_)
            out.phaseIIs.push_back(scoreMaxII(score));
        out.wirelength = wire_;
        out.improvingMoves = improvingMoves_;
        out.recurrenceWeight = recWeight_;
        out.keptSnake = keptSnake_;
        return out;
    }

  private:
    void
    chooseWeights()
    {
        bool any_ii1 = cc_.plan.blocks.empty();
        for (const auto &[block, ba] : cc_.plan.blocks)
            any_ii1 = any_ii1 || ba.ii <= 1;
        recWeight_ = any_ii1 ? 8 : 4;
    }

    void
    buildEntities()
    {
        chooseWeights();
        for (std::size_t p = 0; p < cc_.phases.size(); ++p) {
            const FlatPhase &phase = cc_.phases[p];
            Entity gen;
            gen.phase = static_cast<int>(p);
            genIdx_.push_back(static_cast<int>(entities_.size()));
            entities_.push_back(gen);
            for (const DfgNode &n : phase.body.nodes()) {
                if (!phase.liveNodes.count(n.id))
                    continue;
                Entity e;
                e.phase = static_cast<int>(p);
                e.node = n.id;
                e.nonlinear = isNonlinearOp(n.op);
                nodeIdx_[{static_cast<int>(p), n.id}] =
                    static_cast<int>(entities_.size());
                entities_.push_back(e);
            }
            std::set<std::pair<NodeId, NodeId>> closing =
                closingEdges(phase);
            closing_.emplace_back();
            skewEdges_.emplace_back();
            for (const DataEdge &e : map_.phases[p].edges) {
                int src = e.src == invalidNode
                              ? genIdx_[p]
                              : nodeIdx_.at(
                                    {static_cast<int>(p), e.src});
                int dst =
                    nodeIdx_.at({static_cast<int>(p), e.dst});
                std::uint64_t w = e.recurrence ? recWeight_ : 1;
                entities_[static_cast<std::size_t>(src)]
                    .adj.emplace_back(dst, w);
                entities_[static_cast<std::size_t>(dst)]
                    .adj.emplace_back(src, w);
                if (e.src != invalidNode &&
                    closing.count({e.src, e.dst})) {
                    ClosingPair cp;
                    cp.fin = src;
                    cp.consumer = dst;
                    cp.slack = closingEdgeSlack(phase, e.src, e.dst);
                    closing_.back().push_back(std::move(cp));
                    continue;
                }
                // Feed-forward edge (generator feeds included):
                // part of the skew DP's DAG.  Entity indices follow
                // DFG node ids, which ascend along dependences, and
                // the generator precedes its phase's nodes — so the
                // closing edges are the netlist's only cycles, which
                // the path DPs below rely on.
                MARIONETTE_ASSERT(src < dst,
                                  "feed-forward edge %d -> %d against "
                                  "the dependence order",
                                  src, dst);
                skewEdges_.back().emplace_back(src, dst);
                if (e.src != invalidNode)
                    entities_[static_cast<std::size_t>(src)]
                        .tmplOut.push_back(dst);
            }
            // Topological order for the single-pass skew DP.
            std::sort(skewEdges_.back().begin(),
                      skewEdges_.back().end(),
                      [](const std::pair<int, int> &a,
                         const std::pair<int, int> &b) {
                          return a.second < b.second;
                      });
        }
        std::size_t longest_body = 1;
        for (std::vector<ClosingPair> &pairs : closing_) {
            for (ClosingPair &cp : pairs)
                buildBody(cp);
            // A pair whose consumer never reaches its final value
            // closes no template path and bounds nothing.
            pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                                       [](const ClosingPair &cp) {
                                           return cp.body.empty();
                                       }),
                        pairs.end());
            for (const ClosingPair &cp : pairs)
                longest_body = std::max(longest_body, cp.body.size());
        }
        dist_.assign(longest_body, 0);
        for (std::vector<ClosingPair> &pairs : closing_)
            for (ClosingPair &cp : pairs)
                cp.stages = sweep(cp, false);
        std::size_t most_edges = 0;
        for (const auto &edges : skewEdges_)
            most_edges = std::max(most_edges, edges.size());
        ii_.assign(cc_.phases.size(), 0);
        fireScratch_.assign(entities_.size(), 0);
        arrivalScratch_.assign(most_edges, 0);
    }

    /** Post-order walk from @p at, never expanding @p fin: appends
     *  every entity that reaches @p fin to @p body (successors
     *  first).  @p reach memoizes 1 reaches / -1 does not. */
    bool
    collectBody(int at, int fin, std::vector<std::int8_t> &reach,
                std::vector<int> &body) const
    {
        if (reach[static_cast<std::size_t>(at)] != 0)
            return reach[static_cast<std::size_t>(at)] > 0;
        bool reaches = at == fin;
        if (!reaches)
            for (int next :
                 entities_[static_cast<std::size_t>(at)].tmplOut) {
                const bool via = collectBody(next, fin, reach, body);
                reaches = reaches || via;
            }
        reach[static_cast<std::size_t>(at)] = reaches ? 1 : -1;
        if (reaches)
            body.push_back(at);
        return reaches;
    }

    /** Fill @p cp's body, successor lists and membership bitmap.
     *  The first entity to finish that reaches fin is fin itself,
     *  so body[0] == fin and body.back() == consumer. */
    void
    buildBody(ClosingPair &cp) const
    {
        std::vector<std::int8_t> reach(entities_.size(), 0);
        collectBody(cp.consumer, cp.fin, reach, cp.body);
        MARIONETTE_ASSERT(cp.body.empty() ||
                              (cp.body.front() == cp.fin &&
                               cp.body.back() == cp.consumer),
                          "closing pair body out of order");
        cp.member.assign(entities_.size(), 0);
        std::vector<int> pos(entities_.size(), -1);
        for (std::size_t k = 0; k < cp.body.size(); ++k) {
            cp.member[static_cast<std::size_t>(cp.body[k])] = 1;
            pos[static_cast<std::size_t>(cp.body[k])] =
                static_cast<int>(k);
        }
        for (int at : cp.body) {
            const std::size_t first = cp.succ.size();
            cp.succStart.push_back(static_cast<int>(first));
            if (at == cp.fin)
                continue;
            // Template-edge order, first occurrence kept: the chain
            // walks break ties toward the earliest edge.
            for (int next :
                 entities_[static_cast<std::size_t>(at)].tmplOut) {
                const int j = pos[static_cast<std::size_t>(next)];
                if (j >= 0 &&
                    std::find(cp.succ.begin() +
                                  static_cast<std::ptrdiff_t>(first),
                              cp.succ.end(), j) == cp.succ.end())
                    cp.succ.push_back(j);
            }
        }
        cp.succStart.push_back(static_cast<int>(cp.succ.size()));
    }

    /** Tabled mesh latency; the range check stays on, as in
     *  MeshGeometry::hops. */
    Cycles
    latency(PeId src, PeId dst) const
    {
        MARIONETTE_ASSERT(src >= 0 && src < numPes_ && dst >= 0 &&
                              dst < numPes_,
                          "placer latency %d -> %d out of range", src,
                          dst);
        return latTable_[static_cast<std::size_t>(src * numPes_ +
                                                  dst)];
    }

    Cycles
    lat(int a, int b) const
    {
        return latency(entities_[static_cast<std::size_t>(a)].pe,
                       entities_[static_cast<std::size_t>(b)].pe);
    }

    /** Weight of @p cp's body edge body[k] -> body[j]: execute plus
     *  mesh transit when @p timed, one stage otherwise. */
    std::int64_t
    edgeWeight(const ClosingPair &cp, std::size_t k, int j,
               bool timed) const
    {
        if (!timed)
            return 1;
        return static_cast<std::int64_t>(exec_) +
               static_cast<std::int64_t>(
                   lat(cp.body[k],
                       cp.body[static_cast<std::size_t>(j)]));
    }

    /**
     * Longest consumer -> fin template path of @p cp, one sweep in
     * body order: execute per stage plus mesh per edge when
     * @p timed, else the stage count.  Leaves each body entity's
     * tail value in dist_ (by body position) for the chain walks
     * and returns the consumer's.
     */
    std::int64_t
    sweep(const ClosingPair &cp, bool timed) const
    {
        dist_[0] = timed ? static_cast<std::int64_t>(exec_) : 1;
        for (std::size_t k = 1; k < cp.body.size(); ++k) {
            std::int64_t best = -1;
            for (int s = cp.succStart[k]; s < cp.succStart[k + 1];
                 ++s) {
                const int j = cp.succ[static_cast<std::size_t>(s)];
                best = std::max(best,
                                edgeWeight(cp, k, j, timed) +
                                    dist_[static_cast<std::size_t>(j)]);
            }
            dist_[k] = best;
        }
        return dist_[cp.body.size() - 1];
    }

    /** The entities of @p cp's longest path (consumer .. fin, path
     *  order) under sweep(@p timed); ties go to the earliest
     *  template edge. */
    std::vector<int>
    chain(const ClosingPair &cp, bool timed) const
    {
        sweep(cp, timed);
        std::vector<int> out;
        std::size_t k = cp.body.size() - 1;
        for (;;) {
            out.push_back(cp.body[k]);
            if (k == 0)
                break;
            std::int64_t best = -1;
            int best_j = -1;
            for (int s = cp.succStart[k]; s < cp.succStart[k + 1];
                 ++s) {
                const int j = cp.succ[static_cast<std::size_t>(s)];
                const std::int64_t via =
                    edgeWeight(cp, k, j, timed) +
                    dist_[static_cast<std::size_t>(j)];
                if (via > best) {
                    best = via;
                    best_j = j;
                }
            }
            k = static_cast<std::size_t>(best_j);
        }
        return out;
    }

    /** @p cp's II under the current positions: a closing channel
     *  seeded `slack` words deep lets the consumer run that many
     *  slots ahead, so the cycle sustains ceil(round-trip/slack). */
    Cycles
    pairII(const ClosingPair &cp) const
    {
        const Cycles rt = static_cast<Cycles>(sweep(cp, true)) +
                          lat(cp.fin, cp.consumer);
        return (rt + cp.slack - 1) / cp.slack;
    }

    /**
     * Worst operand-arrival skew of @p phase: for every data edge,
     * how much earlier its word lands than the consumer's
     * last-arriving operand (longest feed-forward path from the
     * generator).  Early words queue in the consumer's 8-deep
     * channel, so a skew of S backpressures the producers into an
     * effective initiation interval of about S / 8 — the binding
     * constraint of recurrence-free kernels (HT's pixel pipeline),
     * invisible to wirelength and cycle-latency objectives.
     */
    Cycles
    phaseSkew(int phase) const
    {
        const auto &edges =
            skewEdges_[static_cast<std::size_t>(phase)];
        const int gen = genIdx_[static_cast<std::size_t>(phase)];
        auto &fire = fireScratch_;
        fire[static_cast<std::size_t>(gen)] = 0;
        for (const auto &[src, dst] : edges)
            fire[static_cast<std::size_t>(dst)] = 0;
        // Every producer precedes its consumers in the edge order,
        // so an edge's arrival is final when first computed.
        for (std::size_t i = 0; i < edges.size(); ++i) {
            const auto [src, dst] = edges[i];
            const std::int64_t arrival =
                (src == gen ? 0
                            : fire[static_cast<std::size_t>(src)] +
                                  static_cast<std::int64_t>(exec_)) +
                static_cast<std::int64_t>(lat(src, dst));
            arrivalScratch_[i] = arrival;
            fire[static_cast<std::size_t>(dst)] = std::max(
                fire[static_cast<std::size_t>(dst)], arrival);
        }
        std::int64_t skew = 0;
        for (std::size_t i = 0; i < edges.size(); ++i)
            skew = std::max(
                skew, fire[static_cast<std::size_t>(edges[i].second)] -
                          arrivalScratch_[i]);
        return static_cast<Cycles>(skew);
    }

    /**
     * Per-phase timing score from the per-cycle IIs' max and sum of
     * squares (@p cycles).  The phase's *observable* II bound — the
     * worst carried-cycle II, or the channel-depth-amortized operand
     * skew when that is larger — rides in the high bits; the sum of
     * squared per-cycle IIs plus the squared skew ride in the low
     * bits so the search keeps a gradient when two constraints tie
     * at the max — plateaus there are what strand random and
     * steepest moves above the floor.
     */
    std::uint64_t
    phaseScore(int phase, CycleTotals cycles) const
    {
        // Channel depth (8) amortizes skew: it only binds once it
        // exceeds 8x the cycle-driven II.  Folded in II units, and
        // only when it is binding or close to it — for cycle-
        // dominated phases the skew is slack and must not perturb
        // the cycle search's gradient.
        Cycles skew_ii = (phaseSkew(phase) + 7) / 8;
        if (2 * skew_ii > cycles.maxII)
            cycles.add(skew_ii);
        return cycles.packed();
    }

    /** @p phase's per-cycle II totals with entity @p moved_a (and
     *  @p moved_b, unless -1) at trial positions: pairs whose body
     *  holds neither keep their cached II. */
    CycleTotals
    trialCycles(int phase, int moved_a, int moved_b) const
    {
        CycleTotals totals;
        for (const ClosingPair &cp :
             closing_[static_cast<std::size_t>(phase)]) {
            const bool moved =
                cp.member[static_cast<std::size_t>(moved_a)] ||
                (moved_b >= 0 &&
                 cp.member[static_cast<std::size_t>(moved_b)]);
            totals.add(moved ? pairII(cp) : cp.ii);
        }
        return totals;
    }

    /** Recompute every cached pair II of @p phase and its score. */
    std::uint64_t
    refreshPhase(int phase)
    {
        CycleTotals totals;
        for (ClosingPair &cp :
             closing_[static_cast<std::size_t>(phase)]) {
            cp.ii = pairII(cp);
            totals.add(cp.ii);
        }
        return ii_[static_cast<std::size_t>(phase)] =
                   phaseScore(phase, totals);
    }

    /** Accept a move whose trial score was @p trial: the refresh
     *  must reproduce it, or the caches were stale. */
    void
    acceptScore(int phase, std::uint64_t trial)
    {
        MARIONETTE_ASSERT(refreshPhase(phase) == trial,
                          "placer II cache out of date");
    }

    /**
     * Evaluate the move that put entity @p ia (and @p ib, unless
     * -1) at its current, trial position, with total wirelength
     * @p wire: the trial when its objective is below @p bound,
     * nothing otherwise.  The operand-skew term only ever raises a
     * phase's score, so a move whose skew-free scores already miss
     * the bound is rejected without paying for the skew DP.
     */
    std::optional<Trial>
    tryMove(int ia, int ib, std::uint64_t wire,
            std::uint64_t bound) const
    {
        const int pa = entities_[static_cast<std::size_t>(ia)].phase;
        const int pb =
            ib < 0 ? pa : entities_[static_cast<std::size_t>(ib)].phase;
        const bool split = pa != pb;
        const CycleTotals ta = trialCycles(pa, ia, split ? -1 : ib);
        const CycleTotals tb =
            split ? trialCycles(pb, ib, -1) : CycleTotals{};
        const std::uint64_t rest =
            iiSum() - ii_[static_cast<std::size_t>(pa)] -
            (split ? ii_[static_cast<std::size_t>(pb)] : 0);
        if (objective(rest + ta.packed() + (split ? tb.packed() : 0),
                      wire) >= bound)
            return std::nullopt;
        Trial trial;
        trial.scoreA = phaseScore(pa, ta);
        trial.scoreB = split ? phaseScore(pb, tb) : trial.scoreA;
        trial.objective = objective(
            rest + trial.scoreA + (split ? trial.scoreB : 0), wire);
        if (trial.objective >= bound)
            return std::nullopt;
        return trial;
    }

    void
    refreshAll()
    {
        for (std::size_t p = 0; p < cc_.phases.size(); ++p)
            refreshPhase(static_cast<int>(p));
        wire_ = fullWire();
    }

    static Cycles
    scoreMaxII(std::uint64_t score)
    {
        return static_cast<Cycles>(score >> 24);
    }

    std::uint64_t
    fullWire() const
    {
        std::uint64_t c = 0;
        for (const Entity &e : entities_)
            for (const auto &[peer, w] : e.adj)
                c += w * latency(
                             e.pe,
                             entities_[static_cast<std::size_t>(
                                           peer)]
                                 .pe);
        return c / 2; // each edge counted from both ends.
    }

    /** Combined objective: recurrence IIs dominate (they are paid
     *  once per flattened iteration), wirelength breaks ties. */
    std::uint64_t
    objective(std::uint64_t ii_sum, std::uint64_t wire) const
    {
        return ii_sum * 4096 + wire;
    }

    bool
    eligible(const Entity &e, PeId pe) const
    {
        if (taken_[static_cast<std::size_t>(pe)])
            return false;
        if (e.nonlinear)
            return pe >= firstNonlinear_;
        // Ordinary nodes may use capable PEs only while enough
        // remain free for the not-yet-placed nonlinear nodes.
        if (pe >= firstNonlinear_ &&
            capableFree_ <= nonlinearUnplaced_)
            return false;
        return true;
    }

    void
    claim(Entity &e, PeId pe)
    {
        // The capacity pre-flight plus the holdback invariant make
        // exhaustion unreachable; fail fast rather than index with
        // invalidPe if a future change breaks that reasoning.
        MARIONETTE_ASSERT(pe != invalidPe,
                          "placer ran out of eligible PEs");
        taken_[static_cast<std::size_t>(pe)] = true;
        if (pe >= firstNonlinear_)
            --capableFree_;
        if (e.nonlinear)
            --nonlinearUnplaced_;
        e.pe = pe;
    }

    /** Wirelength of edges incident to @p idx with it at @p pe
     *  (peer @p other_idx virtually at @p other_pe for swaps). */
    std::uint64_t
    incidentWire(int idx, PeId pe, int other_idx,
                 PeId other_pe) const
    {
        const Entity &e = entities_[static_cast<std::size_t>(idx)];
        std::uint64_t c = 0;
        for (const auto &[peer, w] : e.adj) {
            PeId q = peer == other_idx
                         ? other_pe
                         : entities_[static_cast<std::size_t>(peer)]
                               .pe;
            c += w * latency(pe, q);
        }
        return c;
    }

    /**
     * A closed, mesh-adjacent cell sequence of length @p K (even)
     * or @p K with one distance-2 wrap (odd — a closed odd walk
     * cannot exist on the bipartite grid): a 2-row ring, widened
     * with 2-cell bumps into a third row when K exceeds the array
     * width.  Returns empty when the shape does not fit.
     */
    std::vector<PeId>
    ringCells(int K) const
    {
        const int rows = cc_.config.rows;
        const int cols = cc_.config.cols;
        if (K < 4)
            return {};
        int half = (K + 1) / 2;
        int m = std::min(half, cols);
        int extra = 2 * half - 2 * m; // cells still needed (even).
        if (extra > 0 && (rows < 3 || extra / 2 > m - 1))
            return {}; // would need deeper bumps; fall back.
        int height = extra > 0 ? 3 : 2;
        if (rows < height)
            return {};
        int r0 = std::max(0, std::min(rows - height,
                                      rows / 2 - 1 + ringShiftR_));
        int c0 = std::max(
            0, std::min(cols - m, (cols - m) / 2 + ringShiftC_));
        auto cell = [&](int r, int c) {
            return static_cast<PeId>((r0 + r) * cols + c0 + c);
        };
        std::vector<PeId> ring;
        for (int c = 0; c < m; ++c)
            ring.push_back(cell(0, c));
        int c = m - 1;
        while (c >= 0) {
            if (extra > 0 && c > 0) {
                ring.push_back(cell(1, c));
                ring.push_back(cell(2, c));
                ring.push_back(cell(2, c - 1));
                ring.push_back(cell(1, c - 1));
                c -= 2;
                extra -= 2;
            } else {
                ring.push_back(cell(1, c));
                c -= 1;
            }
        }
        // Ring order: take the first K cells; for odd K the wrap
        // from cell K-1 back to cell 0 has distance 2.
        ring.resize(static_cast<std::size_t>(K));
        return ring;
    }

    /** Re-mark the fault plan's dead PEs as taken (after any full
     *  clear of taken_). */
    void
    markDead()
    {
        for (std::size_t p = 0; p < deadPe_.size(); ++p)
            if (deadPe_[p])
                taken_[p] = true;
    }

    /** Back to the unplaced state (between search rounds). */
    void
    reset()
    {
        std::fill(taken_.begin(), taken_.end(), false);
        markDead();
        capableFree_ = cc_.config.nonlinearPes - deadCapable_;
        nonlinearUnplaced_ = nonlinearTotal_;
        for (Entity &e : entities_)
            e.pe = invalidPe;
        std::fill(ii_.begin(), ii_.end(), 0);
        wire_ = 0;
    }

    /** Adopt a snapshot of entity positions. */
    void
    restore(const std::vector<PeId> &positions)
    {
        std::fill(taken_.begin(), taken_.end(), false);
        markDead();
        capableFree_ = cc_.config.nonlinearPes - deadCapable_;
        for (std::size_t i = 0; i < entities_.size(); ++i) {
            entities_[i].pe = positions[i];
            taken_[static_cast<std::size_t>(positions[i])] = true;
            if (positions[i] >= firstNonlinear_)
                --capableFree_;
        }
        nonlinearUnplaced_ = 0;
        refreshAll();
    }

    /** Move every entity to its PE in the finished mapping
     *  @p other and rescore (the snake comparison); the occupancy
     *  state is left alone, since nothing searches afterwards. */
    void
    adopt(const Mapping &other)
    {
        for (Entity &e : entities_) {
            const PlacedPhase &placed =
                other.phases[static_cast<std::size_t>(e.phase)];
            e.pe = e.node == invalidNode ? placed.generator
                                         : placed.peOf.at(e.node);
        }
        refreshAll();
    }

    void
    greedySeed(const std::map<int, std::vector<int>>
                   &override_chains,
               bool use_ring = true)
    {
        const int rows = cc_.config.rows;
        const int cols = cc_.config.cols;
        const PeId center = static_cast<PeId>(
            (rows / 2) * cols + cols / 2);

        for (std::size_t p = 0; p < cc_.phases.size(); ++p) {
            // Critical-cycle nodes first, in dependence order: the
            // worst carried cycle is laid out as a mesh-adjacent
            // ring, putting it at its latency floor by
            // construction; side chains attach around it and the
            // local search polishes the rest.
            std::vector<int> order;
            std::set<int> enqueued;
            std::vector<int> chain;
            auto ov = override_chains.find(static_cast<int>(p));
            if (ov != override_chains.end()) {
                chain = ov->second;
            } else {
                // Positions unknown yet: rank cycles by stage
                // count (latency-free proxy).
                const ClosingPair *crit = nullptr;
                for (const ClosingPair &cp : closing_[p])
                    if (crit == nullptr || cp.stages > crit->stages)
                        crit = &cp;
                if (crit != nullptr)
                    chain = this->chain(*crit, false);
            }
            if (!chain.empty() && use_ring) {
                std::vector<PeId> ring =
                    ringCells(static_cast<int>(chain.size()));
                // Claim sequentially, re-checking eligibility
                // against the *evolving* state — the capable-PE
                // holdback depends on what is already claimed, so
                // a batch pre-check could overshoot the reserve
                // and strand a later nonlinear node.  On any
                // failure, unwind and fall back to greedy attach.
                std::size_t claimed = 0;
                bool ring_ok = ring.size() == chain.size();
                for (; ring_ok && claimed < ring.size();
                     ++claimed) {
                    Entity &e = entities_[static_cast<std::size_t>(
                        chain[claimed])];
                    if (!eligible(e, ring[claimed])) {
                        ring_ok = false;
                        break;
                    }
                    claim(e, ring[claimed]);
                }
                if (!ring_ok) {
                    while (claimed-- > 0) {
                        Entity &e = entities_[
                            static_cast<std::size_t>(
                                chain[claimed])];
                        taken_[static_cast<std::size_t>(e.pe)] =
                            false;
                        if (e.pe >= firstNonlinear_)
                            ++capableFree_;
                        if (e.nonlinear)
                            ++nonlinearUnplaced_;
                        e.pe = invalidPe;
                    }
                }
                for (int idx : chain)
                    if (enqueued.insert(idx).second)
                        order.push_back(idx);
            }
            // The rest: either breadth-first over the netlist
            // (clusters grow around the ring) or in dependence
            // order (side chains lay out tight along it) — the
            // two orders favour different kernels, so the search
            // rounds alternate between them.
            if (attachTopo_) {
                if (enqueued.insert(genIdx_[p]).second)
                    order.push_back(genIdx_[p]);
                for (std::size_t i = 0; i < entities_.size(); ++i)
                    if (entities_[i].phase ==
                            static_cast<int>(p) &&
                        enqueued.insert(static_cast<int>(i))
                            .second)
                        order.push_back(static_cast<int>(i));
            } else {
                std::queue<int> q;
                for (int idx : order)
                    q.push(idx);
                if (enqueued.insert(genIdx_[p]).second) {
                    q.push(genIdx_[p]);
                    order.push_back(genIdx_[p]);
                }
                while (!q.empty()) {
                    int at = q.front();
                    q.pop();
                    for (const auto &[peer, w] :
                         entities_[static_cast<std::size_t>(at)]
                             .adj) {
                        (void)w;
                        if (enqueued.insert(peer).second) {
                            q.push(peer);
                            order.push_back(peer);
                        }
                    }
                }
                // Disconnected stragglers still need PEs.
                for (std::size_t i = 0; i < entities_.size(); ++i)
                    if (entities_[i].phase ==
                            static_cast<int>(p) &&
                        !enqueued.count(static_cast<int>(i)))
                        order.push_back(static_cast<int>(i));
            }

            for (int idx : order) {
                Entity &e =
                    entities_[static_cast<std::size_t>(idx)];
                if (e.pe != invalidPe)
                    continue;
                PeId best = invalidPe;
                std::uint64_t best_cost = 0;
                for (PeId pe = 0; pe < numPes_; ++pe) {
                    if (!eligible(e, pe))
                        continue;
                    // Attach next to placed neighbors (latency >= 1
                    // keeps the sum nonzero when any are placed),
                    // else stay central so the cluster can grow.
                    std::uint64_t c = 0;
                    for (const auto &[peer, w] : e.adj) {
                        PeId q2 = entities_[static_cast<
                                                std::size_t>(peer)]
                                      .pe;
                        if (q2 != invalidPe)
                            c += w * latency(pe, q2);
                    }
                    if (c == 0)
                        c = static_cast<std::uint64_t>(
                            latency(pe, center));
                    if (best == invalidPe || c < best_cost) {
                        best = pe;
                        best_cost = c;
                    }
                }
                claim(e, best);
            }
        }
        refreshAll();
    }

    void
    improve(int round)
    {
        if (entities_.size() < 2)
            return;
        // Deterministic seed: the workload name and the search
        // round (not time, not addresses) key the stream, so every
        // compile of a kernel — any thread, any run — walks the
        // same move sequences, while each round explores its own.
        std::uint64_t seed = 0x9e3779b97f4a7c15ull +
                             static_cast<std::uint64_t>(round) *
                                 0xbf58476d1ce4e5b9ull;
        for (char ch : cc_.workload.name())
            seed = seed * 131 + static_cast<unsigned char>(ch);
        Rng rng(seed);

        std::vector<PeId> free_pes;
        for (PeId pe = 0; pe < numPes_; ++pe)
            if (!taken_[static_cast<std::size_t>(pe)])
                free_pes.push_back(pe);

        const int n = static_cast<int>(entities_.size());
        const int budget = std::min(40000, std::max(6000, 120 * n));
        int stale = 0;
        for (int iter = 0; iter < budget && stale < 2500; ++iter) {
            ++stale;
            int ia = static_cast<int>(
                rng.nextBounded(static_cast<std::uint64_t>(n)));
            Entity &a = entities_[static_cast<std::size_t>(ia)];
            bool relocate =
                !free_pes.empty() && rng.nextBool(0.35);
            if (relocate) {
                std::size_t fi = static_cast<std::size_t>(
                    rng.nextBounded(free_pes.size()));
                PeId target = free_pes[fi];
                if (a.nonlinear && target < firstNonlinear_)
                    continue;
                PeId from = a.pe;
                std::uint64_t wire_before =
                    incidentWire(ia, from, -1, invalidPe);
                std::uint64_t wire_after =
                    incidentWire(ia, target, -1, invalidPe);
                a.pe = target;
                const std::optional<Trial> trial = tryMove(
                    ia, -1, wire_ - wire_before + wire_after,
                    objective(iiSum(), wire_));
                if (!trial) {
                    a.pe = from;
                    continue;
                }
                taken_[static_cast<std::size_t>(from)] = false;
                taken_[static_cast<std::size_t>(target)] = true;
                if (from >= firstNonlinear_)
                    ++capableFree_;
                if (target >= firstNonlinear_)
                    --capableFree_;
                free_pes[fi] = from;
                wire_ = wire_ - wire_before + wire_after;
                acceptScore(a.phase, trial->scoreA);
                ++improvingMoves_;
                stale = 0;
                continue;
            }
            int ib = static_cast<int>(
                rng.nextBounded(static_cast<std::uint64_t>(n)));
            if (ia == ib)
                continue;
            Entity &b = entities_[static_cast<std::size_t>(ib)];
            auto fits = [&](const Entity &e, PeId pe) {
                return !e.nonlinear || pe >= firstNonlinear_;
            };
            if (!fits(a, b.pe) || !fits(b, a.pe))
                continue;
            std::uint64_t wire_before =
                incidentWire(ia, a.pe, ib, b.pe) +
                incidentWire(ib, b.pe, ia, a.pe);
            std::uint64_t wire_after =
                incidentWire(ia, b.pe, ib, a.pe) +
                incidentWire(ib, a.pe, ia, b.pe);
            std::swap(a.pe, b.pe);
            const std::optional<Trial> trial =
                tryMove(ia, ib, wire_ - wire_before + wire_after,
                        objective(iiSum(), wire_));
            if (!trial) {
                std::swap(a.pe, b.pe);
                continue;
            }
            wire_ = wire_ - wire_before + wire_after;
            acceptScore(a.phase, trial->scoreA);
            if (b.phase != a.phase)
                acceptScore(b.phase, trial->scoreB);
            ++improvingMoves_;
            stale = 0;
        }
    }

    /** The entities of @p phase's worst carried cycle under the
     *  current positions (consumer .. final value, path order). */
    std::vector<int>
    criticalEntities(int phase) const
    {
        const ClosingPair *worst_cp = nullptr;
        std::int64_t worst = -1;
        for (const ClosingPair &cp :
             closing_[static_cast<std::size_t>(phase)]) {
            std::int64_t total =
                sweep(cp, true) +
                static_cast<std::int64_t>(lat(cp.fin, cp.consumer));
            if (total > worst) {
                worst = total;
                worst_cp = &cp;
            }
        }
        if (worst_cp == nullptr)
            return {};
        return chain(*worst_cp, true);
    }

    /**
     * Steepest-descent polish on the worst carried cycle: for each
     * entity on it, evaluate every eligible relocation and every
     * same-phase swap on the exact objective and apply the best
     * improving move.  Random hill-climbing plateaus on long
     * cycles (a single random move rarely shortens the max); the
     * exhaustive neighborhood does not.
     */
    void
    refineCritical()
    {
        const int n = static_cast<int>(entities_.size());
        for (int pass = 0; pass < 12; ++pass) {
            bool improved = false;
            for (std::size_t p = 0; p < cc_.phases.size(); ++p) {
                std::vector<int> chain =
                    criticalEntities(static_cast<int>(p));
                for (int ia : chain) {
                    Entity &a = entities_[
                        static_cast<std::size_t>(ia)];
                    std::uint64_t cur = objective(iiSum(), wire_);
                    // Best relocation.
                    int best_kind = 0; // 0 none, 1 reloc, 2 swap.
                    PeId best_pe = invalidPe;
                    int best_ib = -1;
                    std::uint64_t best_obj = cur;
                    std::uint64_t best_score = 0;
                    PeId from = a.pe;
                    const std::uint64_t wb =
                        incidentWire(ia, from, -1, invalidPe);
                    for (PeId pe = 0; pe < numPes_; ++pe) {
                        if (taken_[static_cast<std::size_t>(pe)])
                            continue;
                        if (a.nonlinear &&
                            pe < firstNonlinear_)
                            continue;
                        std::uint64_t wa = incidentWire(
                            ia, pe, -1, invalidPe);
                        a.pe = pe;
                        const std::optional<Trial> trial = tryMove(
                            ia, -1, wire_ - wb + wa, best_obj);
                        a.pe = from;
                        if (trial) {
                            best_obj = trial->objective;
                            best_kind = 1;
                            best_pe = pe;
                            best_score = trial->scoreA;
                        }
                    }
                    // Best same-phase swap.
                    for (int ib = 0; ib < n; ++ib) {
                        if (ib == ia)
                            continue;
                        Entity &b = entities_[
                            static_cast<std::size_t>(ib)];
                        if (b.phase != a.phase)
                            continue;
                        auto fits = [&](const Entity &e,
                                        PeId pe) {
                            return !e.nonlinear ||
                                   pe >= firstNonlinear_;
                        };
                        if (!fits(a, b.pe) || !fits(b, a.pe))
                            continue;
                        std::uint64_t wb2 =
                            incidentWire(ia, a.pe, ib, b.pe) +
                            incidentWire(ib, b.pe, ia, a.pe);
                        std::uint64_t wa2 =
                            incidentWire(ia, b.pe, ib, a.pe) +
                            incidentWire(ib, a.pe, ia, b.pe);
                        std::swap(a.pe, b.pe);
                        const std::optional<Trial> trial = tryMove(
                            ia, ib, wire_ - wb2 + wa2, best_obj);
                        std::swap(a.pe, b.pe);
                        if (trial) {
                            best_obj = trial->objective;
                            best_kind = 2;
                            best_ib = ib;
                            best_score = trial->scoreA;
                        }
                    }
                    if (best_kind == 1) {
                        taken_[static_cast<std::size_t>(from)] =
                            false;
                        taken_[static_cast<std::size_t>(
                            best_pe)] = true;
                        if (from >= firstNonlinear_)
                            ++capableFree_;
                        if (best_pe >= firstNonlinear_)
                            --capableFree_;
                        a.pe = best_pe;
                        wire_ = wire_ - wb +
                                incidentWire(ia, best_pe, -1,
                                             invalidPe);
                    } else if (best_kind == 2) {
                        Entity &b = entities_[
                            static_cast<std::size_t>(best_ib)];
                        std::uint64_t wb2 =
                            incidentWire(ia, a.pe, best_ib,
                                         b.pe) +
                            incidentWire(best_ib, b.pe, ia,
                                         a.pe);
                        std::swap(a.pe, b.pe);
                        std::uint64_t wa2 =
                            incidentWire(ia, a.pe, best_ib,
                                         b.pe) +
                            incidentWire(best_ib, b.pe, ia,
                                         a.pe);
                        wire_ = wire_ - wb2 + wa2;
                    }
                    if (best_kind != 0) {
                        acceptScore(a.phase, best_score);
                        improved = true;
                        ++improvingMoves_;
                    }
                }
            }
            if (!improved)
                break;
        }
    }

    std::uint64_t
    iiSum() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t ii : ii_)
            s += ii;
        return s;
    }

    void
    commit()
    {
        for (std::size_t p = 0; p < cc_.phases.size(); ++p)
            map_.phases[p].generator =
                entities_[static_cast<std::size_t>(genIdx_[p])].pe;
        for (const auto &[key, idx] : nodeIdx_)
            map_.phases[static_cast<std::size_t>(key.first)]
                .peOf[key.second] =
                entities_[static_cast<std::size_t>(idx)].pe;
        // Drain generators: control-network traffic only, so any
        // free PE serves; take the lowest ids for determinism.
        map_.drainPes.clear();
        for (std::size_t p = 0; p + 1 < cc_.phases.size(); ++p) {
            for (PeId pe = 0; pe < numPes_; ++pe) {
                if (taken_[static_cast<std::size_t>(pe)])
                    continue;
                if (pe >= firstNonlinear_ &&
                    capableFree_ <= nonlinearUnplaced_)
                    continue;
                taken_[static_cast<std::size_t>(pe)] = true;
                if (pe >= firstNonlinear_)
                    --capableFree_;
                map_.drainPes.push_back(pe);
                break;
            }
        }
    }

    Compilation &cc_;
    Mapping &map_;
    const PeId numPes_;
    /** latency(a, b) of the config's mesh at [a * numPes_ + b]. */
    std::vector<Cycles> latTable_;
    Cycles exec_;
    PeId firstNonlinear_;
    std::vector<bool> taken_;
    /** Dead flag per PE from the config's fault plan. */
    std::vector<std::uint8_t> deadPe_;
    /** How many of the nonlinear-capable PEs are dead. */
    int deadCapable_ = 0;
    int capableFree_;
    int nonlinearTotal_;
    int nonlinearUnplaced_;

    /** Empty chain-override map (the plain greedy-attach round). */
    static const std::map<int, std::vector<int>> kNoChains;

    /** Ring anchor variation of the current search round. */
    int ringShiftR_ = 0;
    int ringShiftC_ = 0;
    /** Attach the non-chain entities in dependence order instead
     *  of breadth-first (per-round seed variation). */
    bool attachTopo_ = false;

    std::vector<Entity> entities_;
    std::vector<int> genIdx_; ///< entity index per phase generator.
    std::map<std::pair<int, NodeId>, int> nodeIdx_;
    /** Closing carried edges per phase (only those that close a
     *  template path). */
    std::vector<std::vector<ClosingPair>> closing_;
    /** Feed-forward directed edges per phase, topo-sorted by
     *  consumer (the skew DP's DAG; generator feeds included). */
    std::vector<std::vector<std::pair<int, int>>> skewEdges_;
    /** Per-body-position path values of the last sweep(). */
    mutable std::vector<std::int64_t> dist_;
    /** Scratch firing-time buffer for phaseSkew (avoids a per-
     *  evaluation allocation on the hot move-evaluation path). */
    mutable std::vector<std::int64_t> fireScratch_;
    /** Per-edge arrival times of the last phaseSkew. */
    mutable std::vector<std::int64_t> arrivalScratch_;
    /** Per-phase timing scores (see phaseScore) of the current
     *  positions, kept in step with every ClosingPair::ii. */
    std::vector<std::uint64_t> ii_;
    std::uint64_t wire_ = 0;
    std::uint64_t recWeight_ = 8;
    int improvingMoves_ = 0;
    bool keptSnake_ = false;
};

const std::map<int, std::vector<int>> CostPlacer::kNoChains;

} // namespace

CostPlacement
placeCost(Compilation &cc, Mapping &map, int nonlinear_total)
{
    CostPlacer placer(cc, map, nonlinear_total);
    placer.run();
    placer.maybeFallBackToSnake();
    return placer.summary();
}

} // namespace marionette
