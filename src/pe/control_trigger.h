/**
 * @file
 * Control Flow Trigger (paper Fig. 5).
 *
 * The pivotal configuration unit of the Marionette PE: a two-phase
 * state machine.  The *check phase* compares an incoming instruction
 * address against the current one; only a fresh address starts the
 * *configuration phase*, which applies after the configuration
 * latency.  The trigger "sustains the configuration determined in
 * the configuration phase until a fresh control input is detected",
 * eliminating per-token reconfiguration overhead — the key contrast
 * with dataflow-PE tokens (Sec. 4.1).
 */

#ifndef MARIONETTE_PE_CONTROL_TRIGGER_H
#define MARIONETTE_PE_CONTROL_TRIGGER_H

#include "sim/stats.h"
#include "sim/types.h"

namespace marionette
{

/** Two-phase (check / configure) configuration unit. */
class ControlFlowTrigger
{
  public:
    explicit ControlFlowTrigger(Cycles config_latency)
        : configLatency_(config_latency)
    {}

    /** Currently-active instruction address (invalidInstr = idle). */
    InstrAddr currentAddr() const { return current_; }

    /** True when a configuration phase is in flight. */
    bool configuring() const { return pending_ != invalidInstr; }

    /**
     * Check phase: present a control input.
     * A repeat of the current address is absorbed for free (the
     * sustained-configuration property).  A fresh address begins the
     * configuration phase.
     *
     * The two counters are passed as pre-resolved handles — the PE
     * caches them once and the check phase stays lookup-free.
     *
     * @return true when a (re)configuration was started.
     */
    bool checkPhase(Cycle now, InstrAddr addr, Stat &sustained,
                    Stat &switches);

    /** Convenience overload resolving the counters by name (tests;
     *  not for per-cycle code). */
    bool
    checkPhase(Cycle now, InstrAddr addr, StatGroup &stats)
    {
        return checkPhase(now, addr, stats.stat("ctrl_sustained"),
                          stats.stat("config_switches"));
    }

    /**
     * Configuration phase: returns the newly-applied address when
     * the pending configuration completes this cycle, otherwise
     * invalidInstr.
     */
    InstrAddr applyPhase(Cycle now);

    /** Force a configuration (controller boot path). */
    void forceConfigure(InstrAddr addr);

    /** Return to the unconfigured state. */
    void reset();

    /** Deep copy of the trigger's run-time state (snapshots). */
    struct State
    {
        InstrAddr current = invalidInstr;
        InstrAddr pending = invalidInstr;
        Cycle pendingReady = 0;
    };

    State saveState() const
    {
        return {current_, pending_, pendingReady_};
    }

    void
    restoreState(const State &s)
    {
        current_ = s.current;
        pending_ = s.pending;
        pendingReady_ = s.pendingReady;
    }

  private:
    Cycles configLatency_;
    InstrAddr current_ = invalidInstr;
    InstrAddr pending_ = invalidInstr;
    Cycle pendingReady_ = 0;
};

} // namespace marionette

#endif // MARIONETTE_PE_CONTROL_TRIGGER_H
