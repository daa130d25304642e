/**
 * @file
 * The route pass: Mapping -> RoutePlan.
 *
 * Materializes every data edge of the placed netlist as its
 * dimension-ordered mesh path, with the latency taken from the same
 * MeshGeometry the cycle-accurate DataMesh charges at run time — by
 * construction, a routed edge's latency is what the machine
 * delivers (asserted by the backend unit tests).
 *
 * From the routed edges the pass derives the timing the emit pass
 * feeds into its decisions:
 *
 *  - per-phase recurrence II: the worst loop-carried cycle latency
 *    (execute + mesh transit around the carried closure) — the
 *    steady-state initiation interval the placed pipeline can
 *    sustain, reported next to the placement cost;
 *
 *  - the feed-forward critical path (pipeline fill) and the
 *    per-boundary *drain* bound: with the routed pipeline's depth,
 *    worst edge latency and memory population known, the
 *    conservative drain between serial phases shrinks from the old
 *    all-operators-serialize guess to a bound derived from channel
 *    depth x pipeline depth x per-stage service — typically an
 *    order of magnitude fewer wasted cycles per phase boundary.
 */

#include <algorithm>
#include <sstream>

#include "compiler/pipeline.h"
#include "net/delay_model.h"

namespace marionette
{

namespace
{

/** Longest-latency path from @p node to @p target over node-to-node
 *  edges, counting execute latency per stage and mesh latency per
 *  edge; -1 when target is unreachable.  Memoized DFS over the
 *  acyclic template (carried closures are not in @p out_edges). */
std::int64_t
longestToTarget(NodeId node, NodeId target,
                const std::map<NodeId,
                               std::vector<const RoutedEdge *>>
                    &out_edges,
                Cycles exec, std::map<NodeId, std::int64_t> &memo)
{
    if (node == target)
        return static_cast<std::int64_t>(exec);
    auto m = memo.find(node);
    if (m != memo.end())
        return m->second;
    memo[node] = -1; // cut (defensive; the template is acyclic).
    std::int64_t best = -1;
    auto it = out_edges.find(node);
    if (it != out_edges.end()) {
        for (const RoutedEdge *e : it->second) {
            std::int64_t tail = longestToTarget(
                e->edge.dst, target, out_edges, exec, memo);
            if (tail < 0)
                continue;
            best = std::max(
                best, static_cast<std::int64_t>(exec) +
                          static_cast<std::int64_t>(e->latency) +
                          tail);
        }
    }
    memo[node] = best;
    return best;
}

} // namespace

// ------------------------------------------------------------------
// Pass 8: route
// ------------------------------------------------------------------

bool
passRoute(Compilation &cc)
{
    const MachineConfig &config = cc.config;
    MeshGeometry geom(config.rows, config.cols,
                      config.meshHopLatency);
    // Fault-aware routing: the same MeshRouter the machine's
    // DataMesh consults, so a routed edge's detour (and latency) is
    // by construction what the mesh will charge.  Pass-through when
    // the fault plan has no dead links.
    MeshRouter router(geom, config.faults.deadLinks);
    RoutePlan &plan = cc.routes;
    plan.phases.resize(cc.phases.size());

    // Control emissions ride the dedicated CS-Benes network when
    // present (1 cycle; the standard-cell DelayModel gives the
    // pipelined estimate for the record) and fall back to the data
    // mesh's worst case otherwise (the Fig. 12 ablation).
    plan.controlLatency =
        config.features.controlNetwork
            ? static_cast<Cycles>(1)
            : std::max<Cycles>(geom.maxLatency(),
                               config.controlNetLatency);

    const Cycles exec = config.executeLatency;
    for (std::size_t p = 0; p < cc.phases.size(); ++p) {
        const FlatPhase &phase = cc.phases[p];
        const PlacedPhase &placed = cc.mapping.phases[p];
        PhaseRoute &route = plan.phases[p];

        for (const DataEdge &e : placed.edges) {
            RoutedEdge r;
            r.edge = e;
            r.srcPe = e.src == invalidNode ? placed.generator
                                           : placed.peOf.at(e.src);
            r.dstPe = placed.peOf.at(e.dst);
            if (router.faulty()) {
                const std::vector<PeId> &path =
                    router.path(r.srcPe, r.dstPe);
                if (path.empty()) {
                    std::ostringstream why;
                    why << "unmappable under faults: dead links "
                           "disconnect PE " << r.srcPe
                        << " from PE " << r.dstPe << " (phase "
                        << p << " data edge)";
                    return cc.fail(kPassRoute, why.str());
                }
                r.hops = router.hops(r.srcPe, r.dstPe);
                r.latency = router.latency(r.srcPe, r.dstPe);
                r.path = path;
            } else {
                r.hops = geom.hops(r.srcPe, r.dstPe);
                r.latency = geom.latency(r.srcPe, r.dstPe);
                r.path = geom.xyPath(r.srcPe, r.dstPe);
            }
            route.maxEdgeLatency =
                std::max(route.maxEdgeLatency, r.latency);
            plan.totalHops += static_cast<std::uint64_t>(r.hops);
            route.edges.push_back(std::move(r));
        }

        for (NodeId id : phase.liveNodes)
            if (opInfo(phase.body.node(id).op).isMemory)
                ++route.memNodes;

        // Forward adjacency over node-to-node edges: the acyclic
        // iteration template.  Only the cycle-*closing* edges stay
        // out (recurrence-marked edges between two on-cycle nodes
        // are template edges that merely carry placement weight);
        // the closure rule is shared with the place pass
        // (closingEdges, pipeline.h) so the two cannot drift.
        std::set<std::pair<NodeId, NodeId>> closing =
            closingEdges(phase);
        std::map<NodeId, std::vector<const RoutedEdge *>> out_edges;
        for (const RoutedEdge &r : route.edges)
            if (r.edge.src != invalidNode &&
                !closing.count({r.edge.src, r.edge.dst}))
                out_edges[r.edge.src].push_back(&r);

        // Recurrence II: worst carried-cycle latency = closing-edge
        // transit + longest template path from the consumer back to
        // the carried final value, amortized over the closing
        // channel's boot seeds (slack): a channel seeded S words
        // deep sustains II = ceil(round-trip / S).
        for (const RoutedEdge &r : route.edges) {
            if (!closing.count({r.edge.src, r.edge.dst}))
                continue;
            std::map<NodeId, std::int64_t> memo;
            std::int64_t body = longestToTarget(
                r.edge.dst, r.edge.src, out_edges, exec, memo);
            if (body < 0)
                continue;
            const Cycles slack = closingEdgeSlack(
                phase, r.edge.src, r.edge.dst);
            const Cycles rt =
                static_cast<Cycles>(body) + r.latency;
            route.recurrenceII = std::max(
                route.recurrenceII, (rt + slack - 1) / slack);
        }

        // Feed-forward critical path: longest latency chain from
        // any generator-fed node (pipeline fill time and depth).
        std::map<NodeId, std::pair<std::int64_t, int>> longest;
        std::function<std::pair<std::int64_t, int>(NodeId)> walk =
            [&](NodeId at) -> std::pair<std::int64_t, int> {
            auto m = longest.find(at);
            if (m != longest.end())
                return m->second;
            longest[at] = {static_cast<std::int64_t>(exec), 1};
            std::pair<std::int64_t, int> best{
                static_cast<std::int64_t>(exec), 1};
            auto it = out_edges.find(at);
            if (it != out_edges.end()) {
                for (const RoutedEdge *e : it->second) {
                    auto tail = walk(e->edge.dst);
                    std::int64_t lat =
                        static_cast<std::int64_t>(exec) +
                        static_cast<std::int64_t>(e->latency) +
                        tail.first;
                    if (lat > best.first)
                        best = {lat, tail.second + 1};
                }
            }
            longest[at] = best;
            return best;
        };
        for (const RoutedEdge &r : route.edges) {
            if (r.edge.src != invalidNode)
                continue;
            auto chain = walk(r.edge.dst);
            std::int64_t lat =
                static_cast<std::int64_t>(r.latency) + chain.first;
            if (static_cast<Cycles>(lat) >
                route.criticalPathLatency) {
                route.criticalPathLatency =
                    static_cast<Cycles>(lat);
                route.criticalPathDepth = chain.second;
            }
        }
        if (route.criticalPathDepth == 0 && !phase.liveNodes.empty())
            route.criticalPathDepth =
                static_cast<int>(phase.liveNodes.size());

        // ----------------------------------------------------------
        // Multicast route trees -> predicted per-link loads.
        //
        // The machine sends one word per producer firing and fans
        // it out along the union of the per-consumer paths, so a
        // link shared by several consumers is traversed *once* per
        // firing.  Firing counts are exact: every live producer
        // fires trips times, plus the head start its seeded closing
        // channels allow — extra(n) = min over data in-channels of
        // (boot seeds + extra(producer)), a min-monotone fixpoint
        // (the generator never over-fires).  Fault-free this
        // reproduces DataMesh::linkLoads() word for word (asserted
        // by tests).
        // ----------------------------------------------------------
        {
            if (plan.predictedLinkLoads.empty())
                plan.predictedLinkLoads.assign(
                    static_cast<std::size_t>(geom.numLinks()), 0);

            // Per-consumer-channel seeds: the boot words the emit
            // pass deposits on closing edges.
            std::map<NodeId, std::vector<std::pair<NodeId, Cycles>>>
                in_channels; // dst -> [(src or invalidNode, seeds)]
            for (const RoutedEdge &r : route.edges) {
                Cycles seeds = 0;
                if (r.edge.src != invalidNode &&
                    closing.count({r.edge.src, r.edge.dst}))
                    seeds = closingEdgeSlack(phase, r.edge.src,
                                             r.edge.dst);
                in_channels[r.edge.dst].emplace_back(r.edge.src,
                                                     seeds);
            }
            std::map<NodeId, std::uint64_t> extra;
            const std::uint64_t kInf = 1u << 30;
            for (NodeId id : phase.liveNodes)
                extra[id] = kInf;
            for (bool changed = true; changed;) {
                changed = false;
                for (auto &[dst, chans] : in_channels) {
                    std::uint64_t best = kInf;
                    for (const auto &[src, seeds] : chans) {
                        const std::uint64_t up =
                            src == invalidNode ? 0 : extra[src];
                        best = std::min(best, seeds + up);
                    }
                    if (chans.empty())
                        best = 0;
                    if (best < extra[dst]) {
                        extra[dst] = best;
                        changed = true;
                    }
                }
            }

            // Group edges by producer; charge the union tree once
            // per firing.
            std::map<NodeId, std::set<int>> tree_links;
            for (const RoutedEdge &r : route.edges) {
                std::set<int> &links = tree_links[r.edge.src];
                for (std::size_t h = 0; h + 1 < r.path.size(); ++h)
                    links.insert(geom.linkIndex(r.path[h],
                                                r.path[h + 1]));
            }
            const std::uint64_t trips =
                static_cast<std::uint64_t>(phase.trips);
            for (const auto &[src, links] : tree_links) {
                std::uint64_t firings = trips;
                if (src != invalidNode) {
                    const std::uint64_t e = extra[src];
                    firings += e >= kInf ? 0 : e;
                }
                for (int link : links)
                    plan.predictedLinkLoads[static_cast<std::size_t>(
                        link)] += firings;
            }
        }

        std::ostringstream note;
        note << "phase " << p << ": " << route.edges.size()
             << " data edge(s), recurrence II ~"
             << route.recurrenceII << " cycles, fill "
             << route.criticalPathLatency << " cycles over "
             << route.criticalPathDepth << " stage(s), worst edge "
             << route.maxEdgeLatency << " cycles";
        cc.report.note(kPassRoute, note.str());
    }

    // Drain bounds: when phase p's generator retires, every channel
    // along the pipeline may hold up to its full depth (8 words);
    // the pipeline flushes stage by stage, each firing serviced
    // within execute + worst mesh transit + memory-port contention.
    // 8 x depth firings bound the last store's issue; the legacy
    // all-operators-serialize formula caps it so the bound is never
    // worse than before.
    const int mem_ports = config.scratchpadBanks * 2;
    for (std::size_t p = 0; p + 1 < cc.phases.size(); ++p) {
        const PhaseRoute &route = plan.phases[p];
        Cycles n =
            static_cast<Cycles>(cc.phases[p].liveNodes.size());
        Cycles legacy = 64 + 8 * n * (3 * (n + 2) + 16);
        if (cc.options.placer == PlacerKind::Snake) {
            // The snake baseline reproduces the legacy backend's
            // program bit-for-bit, including its all-operators-
            // serialize drain guess, so the mapped-cycles ablation
            // measures the whole backend against its predecessor.
            plan.drainCycles.push_back(legacy);
            continue;
        }
        Cycles contention =
            route.memNodes > 0
                ? static_cast<Cycles>(
                      (route.memNodes + mem_ports - 1) / mem_ports)
                : 0;
        Cycles per_firing = config.executeLatency +
                            route.maxEdgeLatency + contention + 2;
        Cycles routed =
            64 +
            8 *
                static_cast<Cycles>(
                    std::max(1, route.criticalPathDepth)) *
                per_firing +
            8 * static_cast<Cycles>(route.memNodes) *
                (contention + 1);
        plan.drainCycles.push_back(
            std::max<Cycles>(128, std::min(routed, legacy)));
    }
    if (!plan.drainCycles.empty()) {
        std::ostringstream note;
        note << plan.drainCycles.size()
             << " phase boundar(ies), drain";
        for (Cycles d : plan.drainCycles)
            note << " " << d;
        note << " cycle(s); control latency "
             << plan.controlLatency << " (DelayModel: "
             << controlNetworkLatencyCycles(
                    config.numPes(), config.clockHz / 1e9)
             << " pipelined)";
        cc.report.note(kPassRoute, note.str());
    }

    for (std::uint64_t load : plan.predictedLinkLoads)
        plan.predictedMaxLinkLoad =
            std::max(plan.predictedMaxLinkLoad, load);
    if (plan.predictedMaxLinkLoad > 0) {
        std::ostringstream note;
        note << "multicast route trees predict max link load "
             << plan.predictedMaxLinkLoad << " word(s)";
        cc.report.note(kPassRoute, note.str());
    }
    return true;
}

} // namespace marionette
