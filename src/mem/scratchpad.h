/**
 * @file
 * Banked data scratchpad (paper Fig. 4d "Data SRAM ... BANK").
 *
 * Word-addressed, multi-banked SRAM with a configurable bank count.
 * Accesses in the same cycle to distinct banks proceed in parallel;
 * same-bank accesses beyond one port serialize, which the machine
 * observes as back-pressure.  Banking is low-order interleaved.
 */

#ifndef MARIONETTE_MEM_SCRATCHPAD_H
#define MARIONETTE_MEM_SCRATCHPAD_H

#include <vector>

#include "sim/logging.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace marionette
{

/** Banked word-addressed scratchpad memory. */
class Scratchpad
{
  public:
    /**
     * @param bytes capacity in bytes (4-byte words).
     * @param banks bank count (power of two recommended).
     * @param ports_per_bank simultaneous accesses per bank per cycle.
     */
    Scratchpad(int bytes, int banks, int ports_per_bank = 1);

    /** Capacity in 32-bit words. */
    int numWords() const { return static_cast<int>(data_.size()); }

    int numBanks() const { return banks_; }

    /** Bank an address maps to (low-order interleaving). */
    int bankOf(Word addr) const;

    /**
     * Begin a new cycle: reset per-cycle port occupancy.  Call once
     * per machine tick before issuing accesses.
     */
    void beginCycle();

    /**
     * Try to issue an access this cycle.  @return false when the
     * target bank's ports are exhausted (caller retries next cycle).
     */
    bool tryAccess(Word addr);

    /** Read the word at @p addr (bounds-checked). */
    Word read(Word addr) const;

    /** Write the word at @p addr. */
    void write(Word addr, Word value);

    /** Bulk initialization helper for workloads/tests. */
    void load(Word base, const std::vector<Word> &words);

    /** Bulk read-back helper. */
    std::vector<Word> dump(Word base, int count) const;

    const StatGroup &stats() const { return stats_; }

    /** Zero every statistic (persistent-machine request reset). */
    void resetStats() { stats_.resetAll(); }

    /** Full word image (machine snapshots). */
    const std::vector<Word> &words() const { return data_; }

    /** Restore a words() + stats capture (machine snapshots). */
    void
    restoreState(const std::vector<Word> &words,
                 const StatGroupState &stats)
    {
        MARIONETTE_ASSERT(words.size() == data_.size(),
                          "snapshot scratchpad size mismatch");
        data_ = words;
        stats_.restoreState(stats);
    }

    /** Snapshot the scratchpad's statistics (machine snapshots). */
    StatGroupState saveStats() const
    {
        return stats_.captureState();
    }

  private:
    std::vector<Word> data_;
    int banks_;
    int portsPerBank_;
    std::vector<int> portsUsed_;
    /** True when some port was claimed since the last beginCycle()
     *  (lets the reset skip untouched cycles). */
    bool portsDirty_ = false;
    StatGroup stats_;
    Stat &statAccesses_;
    Stat &statBankConflicts_;
};

} // namespace marionette

#endif // MARIONETTE_MEM_SCRATCHPAD_H
