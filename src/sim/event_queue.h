/**
 * @file
 * Calendar queue: arrival-cycle-ordered event buckets.
 *
 * The machine's in-flight traffic (mesh packets, control words,
 * FIFO pushes) is scheduled a small, bounded number of cycles ahead
 * — one ring-buffer bucket per future cycle makes delivery
 * O(arrivals this cycle) instead of O(everything pending), the
 * classic calendar-queue discipline of event-driven simulators.
 *
 * Items scheduled for the same cycle come back in schedule order,
 * which is what the fabric's FIFO ordering guarantees (per-channel
 * and per-control-port in-order delivery) rely on.
 */

#ifndef MARIONETTE_SIM_EVENT_QUEUE_H
#define MARIONETTE_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace marionette
{

/** Ring of per-cycle buckets holding events of type T. */
template <typename T>
class CalendarQueue
{
  public:
    /** @param horizon_hint furthest-ahead schedule expected; the
     *  ring grows automatically when exceeded. */
    explicit CalendarQueue(Cycles horizon_hint = 16)
    {
        std::size_t cap = 2;
        while (cap <= horizon_hint + 1)
            cap <<= 1;
        buckets_.resize(cap);
    }

    /** Number of events pending across all buckets. */
    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** Drop all pending events (kernel-boundary reset). */
    void
    clear()
    {
        for (auto &bucket : buckets_)
            bucket.clear();
        size_ = 0;
        drained_ = 0;
    }

    /** Schedule @p item to be delivered at cycle @p when.  @p when
     *  must not precede the last drained cycle. */
    void
    schedule(Cycle when, T item)
    {
        MARIONETTE_ASSERT(when >= drained_,
                          "event scheduled into the past");
        if (when - drained_ >= buckets_.size())
            grow(when - drained_);
        buckets_[index(when)].emplace_back(when, std::move(item));
        ++size_;
    }

    /**
     * Deliver every event scheduled for cycle @p now, in schedule
     * order, by calling @p fn(item).  Cycles must be drained in
     * nondecreasing order; skipped cycles may be caught up lazily as
     * long as the ring capacity exceeds the skip distance (the
     * machine drains every cycle, so this never triggers).
     */
    template <typename F>
    void
    drain(Cycle now, F &&fn)
    {
        MARIONETTE_ASSERT(now + 1 >= drained_, "drain went backwards");
        if (drained_ < now + 1)
            drained_ = now + 1;
        auto &slot = buckets_[index(now)];
        if (slot.empty())
            return;
        // Swap the bucket out before delivering: fn may schedule
        // new events (>= now + 1, every fabric latency is at least
        // one cycle), which can grow the ring or even map to this
        // very slot a full ring period ahead — both safe once we
        // iterate a detached vector.  The scratch buffer is swapped
        // back in, so bucket capacity is recycled across cycles.
        drainScratch_.clear();
        drainScratch_.swap(slot);
        size_ -= drainScratch_.size();
        for (const auto &ev : drainScratch_) {
            MARIONETTE_ASSERT(ev.first == now,
                              "stale event in bucket (cycle skip "
                              "exceeded ring capacity)");
            fn(ev.second);
        }
    }

    /** First cycle not yet drained (machine snapshots). */
    Cycle drained() const { return drained_; }

    /** Visit every pending event as @p fn(when, item) in delivery
     *  order: ascending cycle, schedule order within a cycle. */
    template <typename F>
    void
    forEachEvent(F &&fn) const
    {
        for (std::size_t d = 0; d < buckets_.size(); ++d) {
            Cycle when = drained_ + static_cast<Cycle>(d);
            for (const auto &ev : buckets_[index(when)])
                if (ev.first == when)
                    fn(ev.first, ev.second);
        }
    }

    /** Deep copy of the pending events in delivery order (machine
     *  snapshots; pair with drained()). */
    std::vector<std::pair<Cycle, T>>
    snapshotEvents() const
    {
        std::vector<std::pair<Cycle, T>> all;
        all.reserve(size_);
        forEachEvent([&all](Cycle when, const T &item) {
            all.emplace_back(when, item);
        });
        return all;
    }

    /** Restore a snapshotEvents() capture taken at @p drained. */
    void
    restoreEvents(Cycle drained,
                  const std::vector<std::pair<Cycle, T>> &events)
    {
        clear();
        drained_ = drained;
        for (const auto &ev : events)
            schedule(ev.first, ev.second);
    }

    /**
     * Remove and return every pending event satisfying @p pred, in
     * schedule-cycle order (ties broken by schedule order).  This is
     * the slow compatibility path for test-facing scans; the
     * hot path never calls it.
     */
    template <typename Pred>
    std::vector<T>
    extractIf(Pred &&pred)
    {
        std::vector<std::pair<Cycle, T>> matched;
        for (auto &bucket : buckets_) {
            auto it = bucket.begin();
            while (it != bucket.end()) {
                if (pred(it->second)) {
                    matched.push_back(std::move(*it));
                    it = bucket.erase(it);
                    --size_;
                } else {
                    ++it;
                }
            }
        }
        std::stable_sort(matched.begin(), matched.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::vector<T> out;
        out.reserve(matched.size());
        for (auto &m : matched)
            out.push_back(std::move(m.second));
        return out;
    }

  private:
    std::size_t index(Cycle when) const
    { return static_cast<std::size_t>(when) & (buckets_.size() - 1); }

    void
    grow(Cycles span)
    {
        std::size_t cap = buckets_.size();
        while (cap <= span + 1)
            cap <<= 1;
        std::vector<std::vector<std::pair<Cycle, T>>> bigger(cap);
        for (auto &bucket : buckets_)
            for (auto &ev : bucket) {
                std::size_t slot =
                    static_cast<std::size_t>(ev.first) & (cap - 1);
                bigger[slot].push_back(std::move(ev));
            }
        buckets_ = std::move(bigger);
    }

    /** buckets_[cycle & mask] -> (cycle, item) in schedule order. */
    std::vector<std::vector<std::pair<Cycle, T>>> buckets_;
    /** Detached bucket being delivered (capacity recycled). */
    std::vector<std::pair<Cycle, T>> drainScratch_;
    std::size_t size_ = 0;
    /** First cycle not yet drained. */
    Cycle drained_ = 0;
};

} // namespace marionette

#endif // MARIONETTE_SIM_EVENT_QUEUE_H
