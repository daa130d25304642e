/**
 * @file
 * Lightweight named-statistics registry.
 *
 * Every architectural component owns a StatGroup and registers scalar
 * counters in it.  Groups nest by name prefix ("machine.pe03.fu").
 * The registry can render a sorted human-readable dump, which the
 * benches and EXPERIMENTS.md rely on.
 *
 * Hot-path contract: stat() returns a *stable* reference, so
 * components resolve every counter once (at construction or load)
 * and hold the handle as a member — per-cycle and per-event code
 * never performs a string-map lookup.  Rendering stays string-keyed
 * and sorted; a pre-registered stat that was never written is
 * skipped by render(), so dumps are identical to the historical
 * create-on-first-write behaviour.
 */

#ifndef MARIONETTE_SIM_STATS_H
#define MARIONETTE_SIM_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace marionette
{

/** A single named scalar statistic (a 64-bit counter or gauge). */
class Stat
{
  public:
    Stat() = default;

    /** Add @p delta to the counter. */
    void inc(std::uint64_t delta = 1) { value_ += delta; touched_ = true; }

    /** Overwrite the value (for gauges such as "max occupancy"). */
    void set(std::uint64_t v) { value_ = v; touched_ = true; }

    /** Track a running maximum. */
    void max(std::uint64_t v) { touched_ = true; if (v > value_) value_ = v; }

    /** Current value. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero (the stat keeps rendering once written). */
    void reset() { value_ = 0; }

    /** True once the stat has ever been written (inc/set/max). */
    bool touched() const { return touched_; }

    /** Snapshot support: overwrite value *and* touched flag exactly
     *  (render() omits untouched stats, so restoring a dump
     *  byte-identically needs both). */
    void restore(std::uint64_t v, bool touched)
    {
        value_ = v;
        touched_ = touched;
    }

  private:
    std::uint64_t value_ = 0;
    bool touched_ = false;
};

/** Deep copy of a StatGroup's contents (machine snapshots). */
struct StatGroupState
{
    /** (name, value, touched) per registered stat. */
    std::vector<std::tuple<std::string, std::uint64_t, bool>> stats;
};

/**
 * A collection of named statistics with a common prefix.
 *
 * Components embed a StatGroup by value; the owning component outlives
 * all references handed out by stat().
 */
class StatGroup
{
  public:
    /** @param prefix dotted path under which stats are reported. */
    explicit StatGroup(std::string prefix) : prefix_(std::move(prefix)) {}

    /**
     * Look up (creating on first use) the stat named @p name.
     * References remain valid for the lifetime of the group — cache
     * the result; do not call this from per-cycle code.
     */
    Stat &stat(const std::string &name);

    /** Read-only lookup; returns 0 for unknown names. */
    std::uint64_t value(const std::string &name) const;

    /** Reset every stat in the group to the pristine untouched
     *  state (dumps match a freshly constructed component). */
    void resetAll();

    /** Dotted path prefix. */
    const std::string &prefix() const { return prefix_; }

    /** Append "prefix.name value" lines to @p out, sorted by name.
     *  Stats that were registered but never written are omitted. */
    void render(std::vector<std::string> &out) const;

    /** Deep-copy every stat (machine snapshots). */
    StatGroupState captureState() const;

    /**
     * Restore a captured state.  In place: existing entries are
     * overwritten (never erased — components hold stable Stat&
     * handles), entries absent from the capture reset to the
     * untouched zero state, and entries only in the capture are
     * created.  Dumps after restore are byte-identical to dumps at
     * capture time.
     */
    void restoreState(const StatGroupState &state);

  private:
    std::string prefix_;
    std::map<std::string, Stat> stats_;
};

/** Render several stat groups into one newline-joined report. */
std::string renderStats(const std::vector<const StatGroup *> &groups);

} // namespace marionette

#endif // MARIONETTE_SIM_STATS_H
