/**
 * @file
 * The place pass: FlatPhases -> Mapping.
 *
 * Builds each phase's netlist (generator feeds, node-to-node data
 * edges, loop-carried recurrence closures), checks PE capacity, and
 * assigns every generator and live DFG node a PE.
 *
 * Two placers:
 *
 *  - snake: the legacy boustrophedon walk in node-creation order,
 *    mesh-oblivious, kept bit-for-bit so the mapped-cycles ablation
 *    has a faithful baseline;
 *
 *  - cost (default): timing-driven placement over the mesh
 *    geometry, in cost_placer.cc (placeCost).
 *
 * This file keeps what both share: the netlist and recurrence
 * marking, the capacity pre-flight, fence fusion (cost path only)
 * and the snake walk the cost placer compares itself against.
 */

#include <algorithm>
#include <sstream>

#include "compiler/backend/placer.h"

namespace marionette
{

/** An edge closes a carried cycle iff its source is the carried
 *  final value and its destination consumes that carried input.
 *  Shared with the route pass (declared in pipeline.h). */
std::set<std::pair<NodeId, NodeId>>
closingEdges(const FlatPhase &phase)
{
    std::set<std::pair<NodeId, NodeId>> closing;
    for (const CarriedValue &cv : phase.carried) {
        if (!cv.live)
            continue;
        for (const DfgNode &n : phase.body.nodes()) {
            if (!phase.liveNodes.count(n.id))
                continue;
            for (const Operand *op : {&n.a, &n.b, &n.c})
                if (op->kind == OperandKind::Input &&
                    static_cast<int>(op->ref) == cv.inputIdx)
                    closing.insert({cv.finalVal.ref, n.id});
        }
    }
    return closing;
}

/** Pipeline slack of the closing edge src -> dst: the carried
 *  value's slack for non-self edges, 1 for the final value's own
 *  pass-through edge (the ordering chain must thread every slot).
 *  When several carried values share the pair, the tightest one
 *  governs.  Shared with the route pass (declared in pipeline.h). */
Cycles
closingEdgeSlack(const FlatPhase &phase, NodeId src, NodeId dst)
{
    Cycles slack = 0;
    for (const CarriedValue &cv : phase.carried) {
        if (!cv.live || cv.finalVal.kind != OperandKind::Node ||
            cv.finalVal.ref != src)
            continue;
        const DfgNode &n = phase.body.node(dst);
        bool consumes = false;
        for (const Operand *op : {&n.a, &n.b, &n.c})
            if (op->kind == OperandKind::Input &&
                static_cast<int>(op->ref) == cv.inputIdx)
                consumes = true;
        if (!consumes)
            continue;
        const Cycles s = dst == src ? 1 : cv.slack;
        slack = slack == 0 ? s : std::min(slack, s);
    }
    return std::max<Cycles>(1, slack);
}

namespace
{

/** Boustrophedon PE order: consecutive allocations stay mesh-
 *  adjacent, which keeps recurrence round trips short. */
std::vector<PeId>
snakeOrder(const MachineConfig &config)
{
    std::vector<PeId> order;
    for (int r = 0; r < config.rows; ++r)
        for (int c = 0; c < config.cols; ++c) {
            int col = (r % 2 == 0) ? c : config.cols - 1 - c;
            order.push_back(
                static_cast<PeId>(r * config.cols + col));
        }
    return order;
}

// ------------------------------------------------------------------
// Fence fusion (cost backend only; the snake baseline reproduces
// the legacy program exactly)
// ------------------------------------------------------------------

/**
 * Fuse memory-ordering fences into load ordering operands.
 *
 * The workloads' fence idiom threads a store token through the
 * address of a later load so the flattened pipeline respects memory
 * order:
 *
 *     z  = And(tok, 0)        // always 0, carries the dependence
 *     la = Add(v, z)          // address v + 0
 *     lv = Load(la, ...)
 *
 * Both helper operators sit on the loop-carried store chain, so
 * every flattened iteration pays their latency (2 x execute + 2 x
 * mesh transit) for what is purely an ordering edge.  The Load ISA
 * evaluates only operands a (address) and b (predicate); operand c
 * is consumed but ignored — exactly an ordering slot.  When every
 * consumer of the Add is a Load using it as the address with a free
 * c operand (and neither helper is observed or a carried final),
 * the fence collapses to
 *
 *     lv = Load(v, pred, c = tok)
 *
 * which is value-exact (z == 0 always) and ordering-exact (the
 * load still consumes the token before firing), two stages shorter
 * around the recurrence.
 */
int
fuseFenceLoads(FlatPhase &phase,
               const std::vector<Observation> &observations,
               int phase_idx)
{
    Dfg &dfg = phase.body;
    std::set<NodeId> protect;
    for (const CarriedValue &cv : phase.carried)
        if (cv.live && cv.finalVal.kind == OperandKind::Node)
            protect.insert(cv.finalVal.ref);
    for (const Observation &ob : observations)
        if (ob.phase == phase_idx)
            protect.insert(ob.node);

    // consumers[id] = (consumer node, operand slot 0/1/2).
    std::map<NodeId, std::vector<std::pair<NodeId, int>>> consumers;
    for (const DfgNode &n : dfg.nodes()) {
        if (!phase.liveNodes.count(n.id))
            continue;
        const Operand *ops[3] = {&n.a, &n.b, &n.c};
        for (int s = 0; s < 3; ++s)
            if (ops[s]->kind == OperandKind::Node)
                consumers[ops[s]->ref].emplace_back(n.id, s);
    }

    auto isZeroAnd = [&](const DfgNode &n, Operand &token) {
        if (n.op != Opcode::And)
            return false;
        if (n.a.kind == OperandKind::Immediate && n.a.ref == 0) {
            token = n.b;
            return true;
        }
        if (n.b.kind == OperandKind::Immediate && n.b.ref == 0) {
            token = n.a;
            return true;
        }
        return false;
    };

    int fused = 0;
    for (const DfgNode &z : dfg.nodes()) {
        if (!phase.liveNodes.count(z.id) || protect.count(z.id))
            continue;
        Operand token;
        if (!isZeroAnd(z, token))
            continue;
        for (const auto &[add_id, z_slot] : consumers[z.id]) {
            (void)z_slot;
            if (!phase.liveNodes.count(add_id))
                continue;
            DfgNode &ad = dfg.node(add_id);
            if (ad.op != Opcode::Add || protect.count(ad.id) ||
                ad.c.kind != OperandKind::None)
                continue;
            // The address operand is whichever side is not z.
            Operand v =
                (ad.a.kind == OperandKind::Node &&
                 ad.a.ref == z.id)
                    ? ad.b
                    : ad.a;
            bool other_is_z = ad.b.kind == OperandKind::Node &&
                              ad.b.ref == z.id;
            if (!other_is_z &&
                !(ad.a.kind == OperandKind::Node &&
                  ad.a.ref == z.id))
                continue;
            // Every consumer must be a Load taking the add as its
            // address with a free ordering slot.
            bool all_loads = !consumers[ad.id].empty();
            for (const auto &[ld_id, slot] : consumers[ad.id]) {
                const DfgNode &ld = dfg.node(ld_id);
                all_loads = all_loads && ld.op == Opcode::Load &&
                            slot == 0 &&
                            ld.c.kind == OperandKind::None;
            }
            if (!all_loads)
                continue;
            for (const auto &[ld_id, slot] : consumers[ad.id]) {
                (void)slot;
                DfgNode &ld = dfg.node(ld_id);
                ld.a = v;
                ld.c = token;
            }
            phase.liveNodes.erase(ad.id);
            ++fused;
        }
        // The fence itself dies once nothing consumes it.
        bool still_used = false;
        for (const DfgNode &n : dfg.nodes()) {
            if (!phase.liveNodes.count(n.id))
                continue;
            for (const Operand *op : {&n.a, &n.b, &n.c})
                still_used = still_used ||
                             (op->kind == OperandKind::Node &&
                              op->ref == z.id);
        }
        if (!still_used)
            phase.liveNodes.erase(z.id);
    }
    return fused;
}

// ------------------------------------------------------------------
// Netlist construction
// ------------------------------------------------------------------

/** Build @p phase's data edges and mark recurrence cycles. */
std::vector<DataEdge>
buildNetlist(const FlatPhase &phase)
{
    std::vector<DataEdge> edges;
    auto addOperand = [&](const DfgNode &n, const Operand &src,
                          int slot) {
        switch (src.kind) {
          case OperandKind::Input:
            if (src.ref == 0) {
                edges.push_back(DataEdge{invalidNode, n.id, slot});
            } else {
                for (const CarriedValue &cv : phase.carried) {
                    if (!cv.live ||
                        cv.inputIdx != static_cast<int>(src.ref))
                        continue;
                    DataEdge e{cv.finalVal.ref, n.id, slot};
                    e.recurrence = true; // cycle-closing edge.
                    edges.push_back(e);
                }
            }
            break;
          case OperandKind::Node:
            edges.push_back(
                DataEdge{static_cast<NodeId>(src.ref), n.id, slot});
            break;
          default:
            break;
        }
    };
    for (const DfgNode &n : phase.body.nodes()) {
        if (!phase.liveNodes.count(n.id))
            continue;
        addOperand(n, n.a, 0);
        addOperand(n, n.b, 1);
        addOperand(n, n.c, 2);
    }

    // Recurrence marking: nodes lying on a path from a carried
    // input's consumer to the carried final value are on the cycle;
    // node-to-node edges between two such nodes inherit the
    // recurrence weight (the closing edges are marked above).
    std::set<std::pair<NodeId, NodeId>> closing =
        closingEdges(phase);
    std::map<NodeId, std::vector<NodeId>> consumers_of;
    std::map<NodeId, std::vector<NodeId>> producers_of;
    for (const DataEdge &e : edges) {
        if (e.src == invalidNode ||
            closing.count({e.src, e.dst}))
            continue;
        consumers_of[e.src].push_back(e.dst);
        producers_of[e.dst].push_back(e.src);
    }
    auto bfs = [](const std::map<NodeId, std::vector<NodeId>> &adj,
                  std::vector<NodeId> seed) {
        std::set<NodeId> seen(seed.begin(), seed.end());
        while (!seed.empty()) {
            NodeId at = seed.back();
            seed.pop_back();
            auto it = adj.find(at);
            if (it == adj.end())
                continue;
            for (NodeId next : it->second)
                if (seen.insert(next).second)
                    seed.push_back(next);
        }
        return seen;
    };
    std::set<NodeId> on_cycle;
    for (const auto &[fin, consumer] : closing) {
        std::set<NodeId> fwd = bfs(consumers_of, {consumer});
        std::set<NodeId> bwd = bfs(producers_of, {fin});
        fwd.insert(consumer);
        bwd.insert(fin);
        for (NodeId n : fwd)
            if (bwd.count(n))
                on_cycle.insert(n);
    }
    for (DataEdge &e : edges)
        if (e.src != invalidNode && on_cycle.count(e.src) &&
            on_cycle.count(e.dst))
            e.recurrence = true;
    return edges;
}

} // namespace

// ------------------------------------------------------------------
// Snake placer (legacy baseline)
// ------------------------------------------------------------------

void
placeSnake(Compilation &cc, Mapping &map, int nonlinear_total)
{
    const MachineConfig &config = cc.config;
    std::vector<PeId> order = snakeOrder(config);
    std::vector<bool> taken(
        static_cast<std::size_t>(config.numPes()), false);
    const PeId first_nonlinear =
        static_cast<PeId>(config.numPes() - config.nonlinearPes);
    int nonlinear_unplaced = nonlinear_total;
    int capable_free = config.nonlinearPes;
    // Dead PEs (and PEs isolated by dead links) are permanently
    // taken; the pass pre-flight already sized the kernel against
    // the alive pool, so allocation cannot run dry.
    for (PeId p :
         config.faults.effectiveDeadPes(config.rows, config.cols)) {
        taken[static_cast<std::size_t>(p)] = true;
        if (p >= first_nonlinear)
            --capable_free;
    }
    std::size_t cursor = 0;
    auto allocPe = [&](bool nonlinear) -> PeId {
        if (nonlinear) {
            for (PeId pe = first_nonlinear; pe < config.numPes();
                 ++pe)
                if (!taken[static_cast<std::size_t>(pe)]) {
                    taken[static_cast<std::size_t>(pe)] = true;
                    --capable_free;
                    --nonlinear_unplaced;
                    return pe;
                }
            return invalidPe; // reservation makes this unreachable.
        }
        for (std::size_t at = cursor; at < order.size(); ++at) {
            PeId pe = order[at];
            if (taken[static_cast<std::size_t>(pe)])
                continue;
            if (pe >= first_nonlinear &&
                capable_free <= nonlinear_unplaced)
                continue; // held back for a nonlinear node.
            taken[static_cast<std::size_t>(pe)] = true;
            if (pe >= first_nonlinear)
                --capable_free;
            if (at == cursor)
                ++cursor;
            return pe;
        }
        return invalidPe;
    };

    map.phases.clear();
    map.phases.resize(cc.phases.size());
    map.drainPes.clear();
    for (std::size_t p = 0; p < cc.phases.size(); ++p) {
        const FlatPhase &phase = cc.phases[p];
        PlacedPhase &placed = map.phases[p];
        placed.generator = allocPe(false);
        for (const DfgNode &n : phase.body.nodes()) {
            if (!phase.liveNodes.count(n.id))
                continue;
            placed.peOf[n.id] = allocPe(isNonlinearOp(n.op));
        }
    }
    for (std::size_t p = 0; p + 1 < cc.phases.size(); ++p)
        map.drainPes.push_back(allocPe(false));
}

// ------------------------------------------------------------------
// Pass 7: place
// ------------------------------------------------------------------

bool
passPlace(Compilation &cc)
{
    const MachineConfig &config = cc.config;

    // Capacity pre-flight with diagnostics (the builder would
    // assert-fatal instead).
    int pes_needed = 0;
    int nonlinear_needed = 0;
    for (const FlatPhase &phase : cc.phases) {
        pes_needed += 1; // the phase's loop generator.
        for (NodeId id : phase.liveNodes)
            if (isNonlinearOp(phase.body.node(id).op))
                ++nonlinear_needed;
        pes_needed += static_cast<int>(phase.liveNodes.size());
    }
    // One drain generator per phase boundary.
    pes_needed += std::max<int>(
        0, static_cast<int>(cc.phases.size()) - 1);
    // Capacity is measured against the *alive* pool: the fault
    // plan's dead PEs (and PEs isolated by dead links) are off
    // limits to both placers.
    const std::vector<PeId> dead_pes =
        config.faults.effectiveDeadPes(config.rows, config.cols);
    int dead_nonlinear = 0;
    for (PeId p : dead_pes)
        if (p >= config.numPes() - config.nonlinearPes)
            ++dead_nonlinear;
    const int alive = config.numPes() -
                      static_cast<int>(dead_pes.size());
    const int alive_nonlinear =
        config.nonlinearPes - dead_nonlinear;
    if (pes_needed > alive) {
        std::ostringstream why;
        if (!dead_pes.empty())
            why << "unmappable under faults: kernel needs "
                << pes_needed << " PEs, only " << alive << " of "
                << config.numPes() << " are alive ("
                << dead_pes.size() << " dead)";
        else
            why << "kernel needs " << pes_needed << " PEs, the "
                << config.rows << "x" << config.cols
                << " array has " << config.numPes();
        return cc.fail(kPassPlace, why.str());
    }
    if (nonlinear_needed > alive_nonlinear) {
        std::ostringstream why;
        if (dead_nonlinear > 0)
            why << "unmappable under faults: kernel needs "
                << nonlinear_needed
                << " nonlinear-fitting PEs, only "
                << alive_nonlinear << " of " << config.nonlinearPes
                << " are alive";
        else
            why << "kernel needs " << nonlinear_needed
                << " nonlinear-fitting PEs, the array has "
                << config.nonlinearPes;
        return cc.fail(kPassPlace, why.str());
    }

    Mapping &map = cc.mapping;
    map.placer = cc.options.placer;
    map.nonlinearUsed = nonlinear_needed;

    // The cost backend first shortens the recurrence itself:
    // memory-ordering fences collapse into load ordering operands
    // (value- and ordering-exact; see fuseFenceLoads).  The snake
    // baseline skips this so the ablation's "before" reproduces the
    // legacy backend program bit-for-bit.
    int fused = 0;
    if (cc.options.placer == PlacerKind::Cost)
        for (std::size_t p = 0; p < cc.phases.size(); ++p)
            fused += fuseFenceLoads(cc.phases[p], cc.observations,
                                    static_cast<int>(p));
    if (fused > 0) {
        pes_needed = 0;
        for (const FlatPhase &phase : cc.phases)
            pes_needed +=
                1 + static_cast<int>(phase.liveNodes.size());
        pes_needed += std::max<int>(
            0, static_cast<int>(cc.phases.size()) - 1);
        std::ostringstream note;
        note << "fused " << fused
             << " memory-ordering fence(s) into load ordering "
                "operands";
        cc.report.note(kPassPlace, note.str());
    }
    map.pesUsed = pes_needed;

    map.phases.resize(cc.phases.size());
    for (std::size_t p = 0; p < cc.phases.size(); ++p)
        map.phases[p].edges = buildNetlist(cc.phases[p]);

    std::ostringstream note;
    if (cc.options.placer == PlacerKind::Snake) {
        std::vector<std::vector<DataEdge>> edges;
        for (PlacedPhase &placed : map.phases)
            edges.push_back(std::move(placed.edges));
        placeSnake(cc, map, nonlinear_needed);
        for (std::size_t p = 0; p < map.phases.size(); ++p)
            map.phases[p].edges = std::move(edges[p]);
        note << "snake placer: " << pes_needed << "/"
             << config.numPes() << " PEs (" << nonlinear_needed
             << " nonlinear)";
    } else {
        const CostPlacement placed =
            placeCost(cc, map, nonlinear_needed);
        map.cost = placed.wirelength;
        note << "cost placer: " << pes_needed << "/"
             << config.numPes() << " PEs (" << nonlinear_needed
             << " nonlinear), recurrence II";
        for (Cycles ii : placed.phaseIIs)
            note << " " << ii;
        note << " cycle(s), weighted wirelength "
             << placed.wirelength << ", " << placed.improvingMoves
             << " improving move(s)"
             << (placed.keptSnake ? ", kept the snake layout" : "")
             << " (recurrence tiebreak weight "
             << placed.recurrenceWeight << " per Fig. 8 plan)";
    }
    cc.report.note(kPassPlace, note.str());
    return true;
}

} // namespace marionette
