/**
 * @file
 * The lower pass: region tree -> flattened phases.
 *
 * Every top-level loop region becomes one FlatPhase: a single
 * counted stream of `span` slots whose body DFG is the *iteration
 * template*.  The recursive walk assigns each region a slot range
 * and a gate:
 *
 *  - CountedLoop   r = u / bodySpan selects the iteration, the
 *                  local offset u % bodySpan addresses the body;
 *                  induction values are reconstructed from r
 *                  (additive or geometric).
 *  - Sibling loops children of one Seq split the slot range
 *                  [0,S1) [S1,S1+S2) ... and run mode-gated; plain
 *                  blocks between siblings ride the boundary slots.
 *  - WhileLoop     a carried `active` flag AND-accumulates the
 *                  header's exit predicate; slots past the dynamic
 *                  exit are masked (the guarded-exit lowering).
 *  - Cond          the branch predicate gates both lanes
 *                  (if-conversion); lanes overlay the same slots.
 *
 * Gates compose by conjunction.  A gated definition selects against
 * the incoming value of the same name; a gated Store/Load carries
 * the gate as a predicate operand, which the PE honours by
 * skipping the memory access — so masked slots have no
 * architectural effect and the flattening stays bit-exact.
 *
 * Values consumed before they are defined in the template are
 * loop-carried: they become extra body inputs fed by the producer
 * of their end-of-slot value, seeded at boot.
 *
 * Spatial unrolling (the unroll pass's plan) is applied here: a
 * stripe-safe phase at factor F is lowered F times into the *same*
 * FlatPhase through one shared BodyBuilder, each time against a
 * clone of the bound region whose striped header is rewritten to
 * replica r's stripe (start += r*step, step *= F, trips /= F).
 * CSE automatically shares every replica-invariant node (the slot
 * decode, induction arithmetic on the shared stream), so one loop
 * generator feeds all replicas while the per-replica loads, stores
 * and recurrences replicate across PEs.  The factor is refined
 * downward (over divisors of the trip count) until the replicated
 * body fits the alive-PE pool — fault plans shrink the pool, so a
 * discovery-mode recompile may legitimately pick a smaller factor.
 */

#include <algorithm>
#include <sstream>
#include <tuple>

#include "compiler/pipeline.h"

namespace marionette
{

namespace
{

bool
isPow2(Word v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

int
log2Of(Word v)
{
    int s = 0;
    while ((Word(1) << s) < v)
        ++s;
    return s;
}

// ------------------------------------------------------------------
// Flat-body construction: CSE + constant folding
// ------------------------------------------------------------------

class BodyBuilder
{
  public:
    /** @p minMaxPeephole folds compare-select idioms into Min/Max
     *  nodes (cost path only: the snake baseline must reproduce
     *  the legacy program bit-for-bit). */
    explicit BodyBuilder(bool minMaxPeephole)
        : peephole_(minMaxPeephole)
    {
        dfg_.addInput("t");
    }

    Dfg &dfg() { return dfg_; }

    /** Emit (or reuse) a node; folds all-immediate pure ops. */
    Operand
    emit(Opcode op, Operand a, Operand b = Operand::none(),
         Operand c = Operand::none(), const std::string &name = {})
    {
        const OpInfo &info = opInfo(op);
        bool pure = !info.isMemory && !info.isControl;
        auto isImmish = [](const Operand &o) {
            return o.kind == OperandKind::Immediate ||
                   o.kind == OperandKind::None;
        };
        if (pure && isImmish(a) && isImmish(b) && isImmish(c))
            return Operand::imm(evalOp(op, a.ref, b.ref, c.ref));

        if (peephole_ && op == Opcode::Select &&
            a.kind == OperandKind::Node) {
            Opcode mm = selectAsMinMax(a, b, c);
            if (mm != Opcode::Nop) {
                const DfgNode &cmp = dfg_.node(a.ref);
                return emit(mm, cmp.a, cmp.b, Operand::none(),
                            name);
            }
            Operand three = selectAsMinMax3(a, b, c, name);
            if (three.kind != OperandKind::None)
                return three;
        }

        if (pure) {
            auto key = std::make_tuple(
                op, static_cast<int>(a.kind), a.ref,
                static_cast<int>(b.kind), b.ref,
                static_cast<int>(c.kind), c.ref);
            auto it = cse_.find(key);
            if (it != cse_.end())
                return Operand::node(it->second);
            NodeId id = dfg_.addNode(op, a, b, c, name);
            cse_[key] = id;
            return Operand::node(id);
        }
        return Operand::node(dfg_.addNode(op, a, b, c, name));
    }

  private:
    /**
     * Select(cmp(x,y), x, y) is a one-node Min/Max (value-exact:
     * on ties both sides of the select are the same word).  NW's
     * running score maximum is the motivating case — the fold
     * shortens the phase's recurrence cycle by one PE hop.
     */
    Opcode
    selectAsMinMax(const Operand &cond, const Operand &b,
                   const Operand &c) const
    {
        const DfgNode &cmp = dfg_.node(cond.ref);
        const bool straight = b == cmp.a && c == cmp.b;
        const bool flipped = b == cmp.b && c == cmp.a;
        if (!straight && !flipped)
            return Opcode::Nop;
        switch (cmp.op) {
          case Opcode::CmpGe:
          case Opcode::CmpGt:
            return straight ? Opcode::Max : Opcode::Min;
          case Opcode::CmpLt:
          case Opcode::CmpLe:
            return straight ? Opcode::Min : Opcode::Max;
          default:
            return Opcode::Nop;
        }
    }

    /**
     * Select(cmp(a, b), Max(a, c3), Max(b, c3)) is the three-way
     * maximum Max(a, Max(b, c3)) — value-exact for every compare
     * direction and every tie, because both select lanes then
     * equal max(a, b, c3).  (Dual for Min with the lanes holding
     * the compare *loser*.)  The rewrite collapses the two-lane
     * diamond into one chain: NW's pick-the-best-of-three score
     * keeps one Max on the carried cycle instead of two parallel
     * lanes that cannot both sit hop-1 around the placement ring.
     * Returns a none() operand when the pattern does not match.
     */
    Operand
    selectAsMinMax3(const Operand &cond, const Operand &t,
                    const Operand &f, const std::string &name)
    {
        if (t.kind != OperandKind::Node ||
            f.kind != OperandKind::Node)
            return Operand::none();
        const DfgNode &cmp = dfg_.node(cond.ref);
        const DfgNode &tn = dfg_.node(t.ref);
        const DfgNode &fn = dfg_.node(f.ref);
        if (tn.op != fn.op ||
            (tn.op != Opcode::Max && tn.op != Opcode::Min))
            return Operand::none();

        // The operand the compare declares greater (or equal).
        Operand hi, lo;
        switch (cmp.op) {
          case Opcode::CmpGe:
          case Opcode::CmpGt:
            hi = cmp.a;
            lo = cmp.b;
            break;
          case Opcode::CmpLt:
          case Opcode::CmpLe:
            hi = cmp.b;
            lo = cmp.a;
            break;
          default:
            return Operand::none();
        }
        // For Max the taken lane keeps the compare winner; for Min
        // the loser.  The other lane holds the remaining head, and
        // both lanes must share the third operand.
        const Operand &headT = tn.op == Opcode::Max ? hi : lo;
        const Operand &headF = tn.op == Opcode::Max ? lo : hi;
        auto third = [](const DfgNode &n,
                        const Operand &head) -> Operand {
            if (n.a == head)
                return n.b;
            if (n.b == head)
                return n.a;
            return Operand::none();
        };
        Operand c3t = third(tn, headT);
        Operand c3f = third(fn, headF);
        if (c3t.kind == OperandKind::None || !(c3t == c3f))
            return Operand::none();
        return emit(tn.op, headT, f, Operand::none(), name);
    }

    Dfg dfg_;
    bool peephole_ = false;
    std::map<std::tuple<Opcode, int, Word, int, Word, int, Word>,
             NodeId>
        cse_;
};

// ------------------------------------------------------------------
// Per-phase lowering
// ------------------------------------------------------------------

class PhaseLowering
{
  public:
    /** Lower @p root_in (replica @p replica_in of the phase) into
     *  @p flat_in through the shared builder @p bb_in. */
    PhaseLowering(Compilation &cc_in, const Region &root_in,
                  FlatPhase &flat_in, BodyBuilder &bb_in,
                  int replica_in)
        : cc(cc_in), root(root_in), flat(flat_in), bb(bb_in),
          replica(replica_in)
    {}

    bool runImpl();

  private:
    Compilation &cc;
    const Region &root;
    FlatPhase &flat;
    BodyBuilder &bb;
    int replica;
    std::map<std::string, Operand> env;
    std::set<std::string> definedNames;
    std::map<std::string, int> carriedIdx;
    /** Names whose seed is supplied structurally (round resets,
     *  synthetic while flags): no "unseeded" note for these. */
    std::set<std::string> structuralSeeds;

    /** Report a lower-pass note unless an identical one exists
     *  (replicas and refinement retries re-walk the same code). */
    void
    noteOnce(const std::string &msg)
    {
        for (const CompilerPassNote &n : cc.report.notes)
            if (n.pass == kPassLower && n.message == msg)
                return;
        cc.report.note(kPassLower, msg);
    }

    // ---- small expression helpers ----

    Operand
    andGate(const Operand &a, const Operand &b)
    {
        if (a.kind == OperandKind::None)
            return b;
        if (b.kind == OperandKind::None)
            return a;
        return bb.emit(Opcode::And, a, b);
    }

    Operand
    notOf(const Operand &p)
    {
        return bb.emit(Opcode::CmpEq, p, Operand::imm(0));
    }

    Operand
    eqImm(const Operand &u, Word v)
    {
        return bb.emit(Opcode::CmpEq, u, Operand::imm(v));
    }

    Operand
    divBy(const Operand &u, Word d)
    {
        if (d == 1)
            return u;
        return isPow2(d) ? bb.emit(Opcode::Shr, u,
                                   Operand::imm(log2Of(d)))
                         : bb.emit(Opcode::Div, u, Operand::imm(d));
    }

    Operand
    remBy(const Operand &u, Word d)
    {
        if (d == 1)
            return Operand::imm(0);
        return isPow2(d) ? bb.emit(Opcode::And, u,
                                   Operand::imm(d - 1))
                         : bb.emit(Opcode::Rem, u, Operand::imm(d));
    }

    // ---- name resolution / assignment ----

    Operand
    resolve(const std::string &name, bool &ok)
    {
        ok = true;
        auto e = env.find(name);
        if (e != env.end())
            return e->second;
        if (definedNames.count(name)) {
            // Defined later in the template: loop-carried.
            auto c = carriedIdx.find(name);
            int idx;
            if (c != carriedIdx.end()) {
                idx = c->second;
            } else {
                std::string port =
                    replica == 0
                        ? "carry." + name
                        : "carry.r" + std::to_string(replica) +
                              "." + name;
                idx = bb.dfg().addInput(std::move(port));
                carriedIdx[name] = idx;
                CarriedValue cv;
                cv.name = name;
                cv.inputIdx = idx;
                flat.carried.push_back(cv);
            }
            Operand op = Operand::input(idx);
            env[name] = op;
            return op;
        }
        auto s = cc.spec.scalars.find(name);
        if (s != cc.spec.scalars.end())
            return Operand::imm(s->second);
        auto i = cc.initEnv.find(name);
        if (i != cc.initEnv.end())
            return Operand::imm(i->second);
        ok = false;
        return Operand::none();
    }

    /** Assign @p name; under a gate the definition selects against
     *  the incoming value of the same name. */
    bool
    gatedAssign(const std::string &name, Operand val,
                const Operand &gate, const std::string &where)
    {
        if (gate.kind == OperandKind::None) {
            env[name] = val;
            return true;
        }
        bool ok = true;
        Operand old = resolve(name, ok);
        if (!ok)
            return cc.fail(kPassLower,
                           "gated definition of '" + name +
                               "' in " + where +
                               " has no incoming value");
        if (old == val)
            return true; // pass-through definition.
        env[name] = bb.emit(Opcode::Select, gate, val, old,
                            name + ".gate");
        return true;
    }

    // ---- block inlining ----

    /**
     * Inline one basic block under @p gate.  Stores carry the gate
     * as their predicate operand (no write on masked slots), loads
     * likewise (masked loads produce 0 instead of touching a
     * possibly-garbage address).  @p pred_out, when non-null,
     * captures the steering value of a Branch operator (Cond
     * predicate blocks).
     */
    bool
    inlineBlock(BlockId block, const Operand &gate,
                Operand *pred_out = nullptr)
    {
        const BasicBlock &src = cc.cdfg.block(block);
        const Dfg &dfg = src.dfg;
        std::map<NodeId, Operand> val;

        for (const DfgNode &n : dfg.nodes()) {
            auto operand = [&](const Operand &o,
                               bool &ok) -> Operand {
                ok = true;
                switch (o.kind) {
                  case OperandKind::Node:
                    return val.at(o.ref);
                  case OperandKind::Input:
                    return resolve(
                        dfg.inputs()[static_cast<std::size_t>(
                                         o.ref)]
                            .name,
                        ok);
                  default:
                    return o;
                }
            };
            bool oka = true, okb = true, okc = true;
            Operand a = operand(n.a, oka);
            Operand b = operand(n.b, okb);
            Operand c = operand(n.c, okc);
            if (!oka || !okb || !okc) {
                const Operand &bad =
                    !oka ? n.a : (!okb ? n.b : n.c);
                return cc.fail(
                    kPassLower,
                    "block '" + src.name + "' consumes port '" +
                        dfg.inputs()[static_cast<std::size_t>(
                                         bad.ref)]
                            .name +
                        "' with no reaching definition, binding "
                        "or seed");
            }
            switch (n.op) {
              case Opcode::Const:
                val[n.id] = Operand::imm(n.a.ref);
                break;
              case Opcode::Copy:
                val[n.id] = a;
                break;
              case Opcode::Branch:
                // The branch dissolved into a gate; its value is
                // its steering predicate.
                val[n.id] = a;
                if (pred_out != nullptr)
                    *pred_out = a;
                break;
              case Opcode::Loop:
                // Only header DFGs carry Loop operators; the
                // region walk inlines them deliberately (while
                // conditions) — the operator itself dissolves
                // into its condition operand.
                val[n.id] = a;
                if (pred_out != nullptr)
                    *pred_out = a;
                break;
              case Opcode::Store: {
                // Predicated store: the region gate conjoins with
                // any lane predicate the store already carries
                // (if-converted branches set operand c).
                if (gate.kind != OperandKind::None)
                    c = c.kind == OperandKind::None
                            ? gate
                            : bb.emit(Opcode::And, gate, c);
                val[n.id] = bb.emit(n.op, a, b, c, n.name);
                auto base = cc.spec.arrayBases.find(n.name);
                flat.memBase[val[n.id].ref] =
                    cc.options.memoryBase +
                    (base == cc.spec.arrayBases.end() ? 0
                                                      : base->second);
                break;
              }
              case Opcode::Load: {
                // Predicated load, same conjunction rule.
                if (gate.kind != OperandKind::None)
                    b = b.kind == OperandKind::None
                            ? gate
                            : bb.emit(Opcode::And, gate, b);
                val[n.id] = bb.emit(n.op, a, b, c, n.name);
                auto base = cc.spec.arrayBases.find(n.name);
                flat.memBase[val[n.id].ref] =
                    cc.options.memoryBase +
                    (base == cc.spec.arrayBases.end() ? 0
                                                      : base->second);
                break;
              }
              default:
                val[n.id] = bb.emit(n.op, a, b, c, n.name);
                break;
            }
        }

        for (const DfgOutput &o : dfg.outputs()) {
            if (!gatedAssign(o.name, val.at(o.producer), gate,
                            "block '" + src.name + "'"))
                return false;
        }
        return true;
    }

    // ---- region walkers ----

    bool
    lowerSeq(const std::vector<Region> &children, const Operand &u,
             Word span, const Operand &gate)
    {
        int spanful = 0;
        for (const Region &c : children)
            if (c.kind != RegionKind::Block)
                ++spanful;

        if (spanful == 0) {
            // Straight-line body: runs once per slot when span is
            // 1, else once per execution (entry slot).
            Operand g = span > 1 ? andGate(gate, eqImm(u, 0)) : gate;
            for (const Region &c : children)
                if (!inlineBlock(c.block, g))
                    return false;
            return true;
        }

        Word prefix = 0;
        int seen = 0;
        for (const Region &c : children) {
            if (c.kind == RegionKind::Block) {
                // Boundary blocks: before/between siblings they
                // ride the next sibling's first slot; after the
                // last sibling they ride the final slot.
                Word slot = seen < spanful ? prefix : span - 1;
                Operand g = andGate(gate, eqImm(u, slot));
                if (!inlineBlock(c.block, g))
                    return false;
                continue;
            }
            ++seen;
            Word S = c.span;
            Operand child_u =
                prefix == 0 ? u
                            : bb.emit(Opcode::Sub, u,
                                      Operand::imm(prefix));
            Operand mg = gate;
            if (!(prefix == 0 && S == span)) {
                Operand in_range;
                if (prefix == 0) {
                    in_range = bb.emit(Opcode::CmpLt, u,
                                       Operand::imm(S));
                } else if (prefix + S == span) {
                    in_range = bb.emit(Opcode::CmpGe, u,
                                       Operand::imm(prefix));
                } else {
                    in_range = bb.emit(
                        Opcode::And,
                        bb.emit(Opcode::CmpGe, u,
                                Operand::imm(prefix)),
                        bb.emit(Opcode::CmpLt, u,
                                Operand::imm(prefix + S)));
                }
                mg = andGate(gate, in_range);
            }
            if (!lowerRegion(c, child_u, mg))
                return false;
            prefix += S;
        }
        return true;
    }

    bool
    lowerCounted(const Region &r, const Operand &u,
                 const Operand &gate)
    {
        Word body_span = std::max<Word>(1, r.span / r.trips);
        Operand it_idx =
            body_span == 1 ? u : divBy(u, body_span);
        Operand local = body_span == 1 ? u : remBy(u, body_span);

        // Induction reconstruction.
        Operand iv = it_idx;
        if (r.geometric) {
            Operand shift =
                r.step == 1
                    ? it_idx
                    : bb.emit(Opcode::Mul, it_idx,
                              Operand::imm(r.step));
            iv = bb.emit(Opcode::Shl, Operand::imm(r.start), shift);
        } else {
            if (r.step != 1)
                iv = isPow2(r.step)
                         ? bb.emit(Opcode::Shl, it_idx,
                                   Operand::imm(log2Of(r.step)))
                         : bb.emit(Opcode::Mul, it_idx,
                                   Operand::imm(r.step));
            if (r.start != 0)
                iv = bb.emit(Opcode::Add, iv,
                             Operand::imm(r.start));
        }
        if (!r.ivPort.empty())
            env[r.ivPort] = iv;

        // Round resets: named state re-seeded at every entry of
        // this loop from outside (once per enclosing execution).
        auto resets = cc.spec.roundResets.find(r.headerName);
        if (resets != cc.spec.roundResets.end()) {
            Operand rg = andGate(gate, eqImm(u, 0));
            for (const auto &[name, value] : resets->second) {
                if (!gatedAssign(name, Operand::imm(value), rg,
                                 "round reset of '" + r.headerName +
                                     "'"))
                    return false;
            }
        }

        return lowerSeq(r.children, local, body_span, gate);
    }

    bool
    lowerWhile(const Region &r, const Operand &u,
               const Operand &gate)
    {
        // Guarded-exit lowering: active(0) = cond(0);
        // active(k) = active(k-1) && cond(k).  Effects of slots
        // past the dynamic exit are masked; the enclosing region
        // sized the slot range with the static cap.
        std::string act = "__while." + r.headerName + ".active";
        Operand first = eqImm(u, 0);
        bool ok = true;
        Operand prev = resolve(act, ok);
        (void)ok; // registered in definedNames by run().
        Operand prev_eff = bb.emit(Opcode::Select, first,
                                   Operand::imm(1), prev);

        // Inline the header: its Loop operator dissolves into the
        // exit condition it consumes, captured directly.
        Operand cond = Operand::none();
        if (!inlineBlock(r.header, gate, &cond))
            return false;
        if (cond.kind == OperandKind::None)
            return cc.fail(kPassLower,
                           "while-form loop '" + r.headerName +
                               "' has no recoverable exit "
                               "condition");

        Operand active = bb.emit(Opcode::And, prev_eff, cond);
        if (!gatedAssign(act, active, gate,
                         "while '" + r.headerName + "'"))
            return false;
        Operand g2 = andGate(gate, active);
        return lowerSeq(r.children, u, 1, g2);
    }

    bool
    lowerCond(const Region &r, const Operand &u,
              const Operand &gate)
    {
        Operand pred = Operand::none();
        if (!inlineBlock(r.pred, gate, &pred))
            return false;
        if (pred.kind == OperandKind::None)
            return cc.fail(kPassLower,
                           "branch '" + cc.cdfg.block(r.pred).name +
                               "' has no steering predicate");
        Operand g_then = andGate(gate, pred);
        Operand g_else = andGate(gate, notOf(pred));
        if (!lowerSeq(r.children, u, r.span, g_then))
            return false;
        return lowerSeq(r.elseChildren, u, r.span, g_else);
    }

    bool
    lowerRegion(const Region &r, const Operand &u,
                const Operand &gate)
    {
        switch (r.kind) {
          case RegionKind::CountedLoop:
            return lowerCounted(r, u, gate);
          case RegionKind::WhileLoop:
            return lowerWhile(r, u, gate);
          case RegionKind::Cond:
            return lowerCond(r, u, gate);
          case RegionKind::Block:
            return inlineBlock(r.block, gate);
          case RegionKind::Seq:
            return lowerSeq(r.children, u, r.span, gate);
        }
        return false;
    }
};

bool
PhaseLowering::runImpl()
{
    // Every name defined anywhere in the iteration template —
    // consumed-before-defined resolves as loop-carried.
    root.forEach([&](const Region &r) {
        auto addOutputs = [&](BlockId b) {
            for (const DfgOutput &o :
                 cc.cdfg.block(b).dfg.outputs())
                definedNames.insert(o.name);
        };
        switch (r.kind) {
          case RegionKind::Block:
            addOutputs(r.block);
            break;
          case RegionKind::Cond:
            addOutputs(r.pred);
            break;
          case RegionKind::WhileLoop: {
            addOutputs(r.header);
            std::string act =
                "__while." + r.headerName + ".active";
            definedNames.insert(act);
            structuralSeeds.insert(act);
            break;
          }
          case RegionKind::CountedLoop: {
            auto resets =
                cc.spec.roundResets.find(r.headerName);
            if (resets != cc.spec.roundResets.end()) {
                for (const auto &[name, value] :
                     resets->second) {
                    (void)value;
                    definedNames.insert(name);
                    structuralSeeds.insert(name);
                }
            }
            break;
          }
          case RegionKind::Seq:
            break;
        }
    });

    // Replicas append to a shared FlatPhase: only finalize the
    // carried chains this replica created.
    const std::size_t carriedBase = flat.carried.size();

    flat.trips = root.span;
    if (!lowerRegion(root, Operand::input(0), Operand::none()))
        return false;

    // Finalize carried chains.
    for (std::size_t ci = carriedBase; ci < flat.carried.size();
         ++ci) {
        CarriedValue &cv = flat.carried[ci];
        Operand fin = env.at(cv.name);
        if (fin.kind == OperandKind::Input &&
            fin.ref == static_cast<Word>(cv.inputIdx)) {
            // Pure pass-through: nothing ever updates the
            // value; liveness prunes it.
            cv.finalVal = Operand::none();
            continue;
        }
        if (fin.kind != OperandKind::Node)
            return cc.fail(kPassLower,
                           "loop-carried '" + cv.name +
                               "' collapses to a constant");
        cv.finalVal = fin;
        auto seed = cc.initEnv.find(cv.name);
        if (seed != cc.initEnv.end()) {
            cv.seed = seed->second;
        } else {
            auto s = cc.spec.scalars.find(cv.name);
            if (s != cc.spec.scalars.end()) {
                cv.seed = s->second;
            } else {
                // Reset-gated chains never read their seed; a
                // genuinely unseeded recurrence fails the
                // bit-exact golden validation instead.
                cv.seed = 0;
                if (!structuralSeeds.count(cv.name))
                    noteOnce(
                        "loop-carried '" + cv.name +
                        "' has no seed binding; seeding 0 "
                        "(round-entry reset expected)");
            }
        }
        // A fence-carried ordering token with a proven minimum
        // store->load alias distance D may run D slots ahead:
        // seed the closing channel with min(D, depth-1) words
        // instead of 1.  Cost path only — the snake baseline
        // keeps the legacy single-token recurrence.
        if (cc.options.placer == PlacerKind::Cost) {
            auto fd = cc.spec.fenceMinDistance.find(cv.name);
            if (fd != cc.spec.fenceMinDistance.end() &&
                fd->second > 1)
                cv.slack = std::min<Cycles>(
                    static_cast<Cycles>(fd->second), 7);
        }
    }
    if (replica == 0)
        flat.finalEnv = env;
    flat.replicaEnvs.push_back(std::move(env));
    return true;
}

/** Liveness: stores + observed ports root the graph; a carried
 *  chain is live only if its input port is consumed by live code. */
bool
finalizePhase(Compilation &cc, FlatPhase &flat, int phase_idx)
{
    const Dfg &dfg = flat.body;
    std::set<NodeId> live;
    std::set<int> liveInputs;

    std::vector<NodeId> work;
    for (const DfgNode &n : dfg.nodes())
        if (n.op == Opcode::Store)
            work.push_back(n.id);
    for (const Observation &ob : cc.observations)
        if (ob.phase == phase_idx)
            work.push_back(ob.node);

    auto markOperand = [&](const Operand &o) {
        if (o.kind == OperandKind::Node &&
            live.insert(o.ref).second)
            work.push_back(o.ref);
        if (o.kind == OperandKind::Input)
            liveInputs.insert(static_cast<int>(o.ref));
    };

    bool changed = true;
    while (changed) {
        changed = false;
        while (!work.empty()) {
            NodeId id = work.back();
            work.pop_back();
            live.insert(id);
            const DfgNode &n = dfg.node(id);
            markOperand(n.a);
            markOperand(n.b);
            markOperand(n.c);
        }
        // A consumed carried input keeps its producer chain alive.
        for (CarriedValue &cv : flat.carried) {
            if (!cv.live && liveInputs.count(cv.inputIdx)) {
                if (cv.finalVal.kind != OperandKind::Node)
                    return cc.fail(kPassLower,
                                   "loop-carried '" + cv.name +
                                       "' is consumed but never "
                                       "updated");
                cv.live = true;
                if (live.insert(cv.finalVal.ref).second) {
                    work.push_back(cv.finalVal.ref);
                    changed = true;
                }
            }
        }
    }

    flat.liveNodes = std::move(live);
    return true;
}

/** The bound phase region rewritten to replica @p r's stripe:
 *  iterations r, r+F, r+2F, ... of the striped header. */
Region
stripedClone(const Region &phase, int r, int factor)
{
    Region clone = phase;
    clone.start =
        phase.start + static_cast<Word>(r) * phase.step;
    clone.step = phase.step * factor;
    clone.trips = phase.trips / factor;
    clone.span = phase.span / factor;
    return clone;
}

/** Lower every phase at the given factors (1 = plain). */
bool
lowerAllPhases(Compilation &cc, const std::vector<int> &factors)
{
    cc.phases.assign(cc.top.phases.size(), FlatPhase{});
    const bool cost = cc.options.placer == PlacerKind::Cost;
    for (std::size_t p = 0; p < cc.top.phases.size(); ++p) {
        const Region &src = cc.top.phases[p];
        FlatPhase &flat = cc.phases[p];
        const int factor = factors[p];
        BodyBuilder bb(cost);
        if (factor <= 1) {
            PhaseLowering lowering(cc, src, flat, bb, 0);
            if (!lowering.runImpl())
                return false;
            flat.replicaEnvs.clear();
        } else {
            flat.unrollFactor = factor;
            flat.stripeSpan =
                std::max<Word>(1, src.span / src.trips);
            for (int r = 0; r < factor; ++r) {
                Region clone = stripedClone(src, r, factor);
                PhaseLowering lowering(cc, clone, flat, bb, r);
                if (!lowering.runImpl())
                    return false;
            }
        }
        flat.body = std::move(bb.dfg());
    }
    return true;
}

/**
 * Resolve observation ports and build the golden streams the emit
 * pass hands the kernel.  A port produced by an unrolled phase
 * splits into one observation per replica (consecutive FIFOs); its
 * golden value trace is de-interleaved to match — replica r's v-th
 * firing is source slot ((v / Si)*F + r)*Si + v%Si of the original
 * stream (Si = the striped loop's body span).  When a golden
 * stream is not one-word-per-slot the split is impossible; the
 * phase falls back to factor 1 (@p retryFactors signals the
 * caller to re-lower).
 */
bool
resolveObservations(Compilation &cc, std::vector<int> &factors,
                    bool &retry)
{
    cc.observations.clear();
    cc.goldenOutputs.clear();
    int fifo = 0;
    static const std::vector<Word> kNoGolden;
    for (std::size_t k = 0; k < cc.spec.observePorts.size(); ++k) {
        const std::string &port = cc.spec.observePorts[k];
        int found = -1;
        Operand op;
        for (std::size_t p = 0; p < cc.phases.size(); ++p) {
            auto it = cc.phases[p].finalEnv.find(port);
            if (it == cc.phases[p].finalEnv.end())
                continue;
            if (found >= 0)
                return cc.fail(kPassLower,
                               "observed port '" + port +
                                   "' is ambiguous across phases");
            found = static_cast<int>(p);
            op = it->second;
        }
        if (found < 0)
            return cc.fail(kPassLower, "observed port '" + port +
                                           "' is never produced");
        if (op.kind != OperandKind::Node)
            return cc.fail(kPassLower,
                           "observed port '" + port +
                               "' folds to a constant");

        FlatPhase &flat = cc.phases[static_cast<std::size_t>(found)];
        const std::vector<Word> &golden =
            k < cc.spec.expectedOutputs.size()
                ? cc.spec.expectedOutputs[k]
                : kNoGolden;
        if (flat.unrollFactor <= 1) {
            Observation ob;
            ob.fifo = fifo++;
            ob.phase = found;
            ob.node = op.ref;
            cc.observations.push_back(ob);
            cc.goldenOutputs.push_back(golden);
            continue;
        }

        const int F = flat.unrollFactor;
        const Word Si = flat.stripeSpan;
        if (golden.size() !=
            static_cast<std::size_t>(flat.trips) *
                static_cast<std::size_t>(F)) {
            factors[static_cast<std::size_t>(found)] = 1;
            retry = true;
            cc.report.note(
                kPassLower,
                "phase '" +
                    cc.top.phases[static_cast<std::size_t>(found)]
                        .headerName +
                    "': golden stream of observed port '" + port +
                    "' is not one word per slot; replication "
                    "disabled");
            return true;
        }
        for (int r = 0; r < F; ++r) {
            auto it = flat.replicaEnvs[static_cast<std::size_t>(r)]
                          .find(port);
            if (it == flat.replicaEnvs[static_cast<std::size_t>(r)]
                          .end() ||
                it->second.kind != OperandKind::Node)
                return cc.fail(kPassLower,
                               "observed port '" + port +
                                   "' is missing from replica " +
                                   std::to_string(r));
            Observation ob;
            ob.fifo = fifo++;
            ob.phase = found;
            ob.node = it->second.ref;
            cc.observations.push_back(ob);
            std::vector<Word> stream(
                static_cast<std::size_t>(flat.trips));
            for (Word v = 0; v < flat.trips; ++v)
                stream[static_cast<std::size_t>(v)] =
                    golden[static_cast<std::size_t>(
                        ((v / Si) * F + r) * Si + v % Si)];
            cc.goldenOutputs.push_back(std::move(stream));
        }
    }
    return true;
}

/** Next smaller divisor of @p trips below @p factor (>= 1). */
int
nextSmallerDivisor(Word trips, int factor)
{
    for (int f = factor - 1; f > 1; --f)
        if (trips % f == 0)
            return f;
    return 1;
}

} // namespace

// ------------------------------------------------------------------
// Pass 6: lower
// ------------------------------------------------------------------

bool
passLower(Compilation &cc)
{
    std::vector<int> factors(cc.top.phases.size(), 1);
    for (std::size_t p = 0;
         p < cc.unroll.size() && p < factors.size(); ++p)
        factors[p] = std::max(1, cc.unroll[p].factor);

    // The alive-PE pool the place pass will check against; the
    // refinement below shrinks replication factors until the
    // replicated bodies fit it, so a fault plan's dead PEs can
    // legitimately lower the factor of a recompile.
    const std::vector<PeId> dead_pes =
        cc.config.faults.effectiveDeadPes(cc.config.rows,
                                          cc.config.cols);
    const int alive =
        cc.config.numPes() - static_cast<int>(dead_pes.size());
    int dead_nonlinear = 0;
    for (PeId p : dead_pes)
        if (p >= cc.config.numPes() - cc.config.nonlinearPes)
            ++dead_nonlinear;
    const int alive_nonlinear =
        cc.config.nonlinearPes - dead_nonlinear;

    for (;;) {
        if (!lowerAllPhases(cc, factors))
            return false;
        bool retry = false;
        if (!resolveObservations(cc, factors, retry))
            return false;
        if (retry)
            continue;
        bool ok = true;
        for (std::size_t p = 0; p < cc.phases.size(); ++p)
            ok = ok && finalizePhase(cc, cc.phases[p],
                                     static_cast<int>(p));
        if (!ok)
            return false;

        int pes_needed = std::max<int>(
            0, static_cast<int>(cc.phases.size()) - 1);
        int nonlinear_needed = 0;
        int unrolled = -1;
        for (std::size_t p = 0; p < cc.phases.size(); ++p) {
            pes_needed +=
                1 +
                static_cast<int>(cc.phases[p].liveNodes.size());
            for (NodeId id : cc.phases[p].liveNodes)
                if (isNonlinearOp(cc.phases[p].body.node(id).op))
                    ++nonlinear_needed;
            if (factors[p] > 1)
                unrolled = static_cast<int>(p);
        }
        if ((pes_needed <= alive &&
             nonlinear_needed <= alive_nonlinear) ||
            unrolled < 0)
            break;

        // Shrink the largest replication factor to the next
        // divisor and re-lower.
        std::size_t worst = static_cast<std::size_t>(unrolled);
        for (std::size_t p = 0; p < factors.size(); ++p)
            if (factors[p] > factors[worst])
                worst = p;
        const Word orig_trips = cc.top.phases[worst].trips;
        factors[worst] =
            nextSmallerDivisor(orig_trips, factors[worst]);
    }

    for (std::size_t p = 0; p < cc.phases.size(); ++p) {
        if (p < cc.unroll.size())
            cc.unroll[p].factor = factors[p];
        std::ostringstream note;
        int carried_live = 0;
        for (const CarriedValue &cv : cc.phases[p].carried)
            carried_live += cv.live ? 1 : 0;
        note << "phase '" << cc.top.phases[p].headerName
             << "': " << cc.phases[p].trips << " flat iterations, "
             << cc.phases[p].liveNodes.size() << " operators, "
             << carried_live << " loop-carried value(s)";
        if (cc.phases[p].unrollFactor > 1)
            note << ", replicated x" << cc.phases[p].unrollFactor
                 << " (stripe " << cc.phases[p].stripeSpan
                 << " slot(s)/iteration)";
        cc.report.note(kPassLower, note.str());
    }
    return true;
}

} // namespace marionette
