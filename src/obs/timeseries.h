/**
 * @file
 * Time-series sampling of the allocator's gauges: the film to
 * snapshot.h's single frames.
 *
 * Fragmentation and blowup are time-series properties — a point sample
 * can miss a footprint excursion entirely — so this module records the
 * global gauges plus every heap's u_i/a_i into a fixed-size overwrite
 * ring at a configurable policy-time cadence (steady-clock nanoseconds
 * under NativePolicy, virtual cycles under SimPolicy, so native and
 * simulated runs produce the same shape of timeline).
 *
 * Design constraints mirror event_ring.h:
 *  - the per-operation cadence check must be branch-cheap: it rides
 *    on the allocator's per-thread op tick (common/op_tick.h), and the
 *    micro_obs_overhead --check budget covers it;
 *  - sampling must never allocate (slots are fully preallocated at
 *    construction) and never hold a sampler lock across a heap lock
 *    (SimPolicy fibers may yield inside heap mutexes);
 *  - a slow reader must never stall writers: every slot word is a
 *    relaxed atomic, rings overwrite, racing readers can at worst see
 *    a mixed sample, never UB.  Quiesced reads are exact.
 *
 * The sampler is gated like the rest of src/obs/: created at run time
 * only when observability is on and Config::obs_sample_interval > 0.
 */

#ifndef HOARD_OBS_TIMESERIES_H_
#define HOARD_OBS_TIMESERIES_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/failure.h"
#include "common/mathutil.h"
#include "obs/latency.h"

namespace hoard {
namespace obs {

/** One heap's footprint at a sample instant. */
struct HeapPoint
{
    std::uint64_t in_use = 0;  ///< u_i
    std::uint64_t held = 0;    ///< a_i
};

/** One decoded sample; timestamps are policy time. */
struct TimeSample
{
    std::uint64_t timestamp = 0;
    std::uint64_t in_use = 0;        ///< global gauge U
    std::uint64_t held = 0;          ///< global gauge A
    /// @name Virtual-memory split.
    /// committed is the RSS ground truth; reserved is provider address
    /// space; purged is held-but-decommitted.  committed + purged ==
    /// held at quiescence.
    /// @{
    std::uint64_t committed_bytes = 0;
    std::uint64_t reserved_bytes = 0;
    std::uint64_t purged_bytes = 0;
    /// @}
    std::uint64_t cached_bytes = 0;
    std::uint64_t allocs = 0;        ///< cumulative counters
    std::uint64_t frees = 0;
    std::uint64_t transfers = 0;     ///< superblock transfers to global
    std::uint64_t global_fetches = 0;
    std::uint64_t bin_hits = 0;      ///< fetches served by a global bin
    std::uint64_t bin_misses = 0;    ///< bin probes finding the class empty
    std::uint64_t cache_pushes = 0;  ///< empties retired to the reuse cache
    std::uint64_t cache_pops = 0;    ///< empties recycled from the cache
    /// @name Hardened-free rejections.
    /// @{
    std::uint64_t bad_free_wild = 0;
    std::uint64_t bad_free_foreign = 0;
    std::uint64_t bad_free_interior = 0;
    std::uint64_t bad_free_double = 0;
    /// @}
    /// @name Heap-profiler sampled totals (zero when disarmed).
    /// @{
    std::uint64_t prof_requested = 0;  ///< sampled requested bytes
    std::uint64_t prof_rounded = 0;    ///< sampled size-class bytes
    /// @}
    /// @name Per-path latency series (zeros when the latency
    /// histograms are disarmed).  Indexed by
    /// LatencyPath; p99 is in policy cycles, cumulative-to-date.
    /// @{
    std::array<std::uint64_t, kLatencyPathCount> lat_counts{};
    std::array<std::uint64_t, kLatencyPathCount> lat_p99{};
    /// @}
    std::vector<HeapPoint> heaps;    ///< [0] is the global heap

    /** A/U blowup at this instant (0 when nothing is live). */
    double
    blowup() const
    {
        return in_use == 0 ? 0.0
                           : static_cast<double>(held) /
                                 static_cast<double>(in_use);
    }
};

/**
 * Fixed-capacity overwrite ring of samples.  Writers claim a slot with
 * one fetch_add and fill it with relaxed stores; the interval cadence
 * is enforced by claim_due(), a CAS on the last sample time, so at
 * most one thread samples per interval window.
 */
class TimeSeriesSampler
{
  public:
    /**
     * @param slots     samples retained; power of two >= 2
     * @param heaps     heap entries per sample (heap_count + 1)
     * @param interval  minimum policy-time gap between samples
     */
    TimeSeriesSampler(std::size_t slots, std::size_t heaps,
                      std::uint64_t interval)
        : capacity_(slots),
          mask_(slots - 1),
          heap_slots_(heaps),
          interval_(interval),
          slots_(new Slot[slots])
    {
        HOARD_CHECK(detail::is_pow2(slots) && slots >= 2);
        for (std::size_t i = 0; i < slots; ++i) {
            slots_[i].heap_words.reset(
                new std::atomic<std::uint64_t>[heaps * 2]());
        }
    }

    TimeSeriesSampler(const TimeSeriesSampler&) = delete;
    TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

    std::uint64_t interval() const { return interval_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t heap_slots() const { return heap_slots_; }

    /**
     * Claims the right to take one sample stamped @p now.  Returns
     * false when the interval has not elapsed, when @p now is behind
     * the last claimed time (another thread's clock may be ahead —
     * losing claims keeps retained timestamps monotone), or when a
     * racing thread claimed this window first.
     */
    bool
    claim_due(std::uint64_t now)
    {
        std::uint64_t last = last_claim_.load(std::memory_order_relaxed);
        if (now < last + interval_)
            return false;
        return last_claim_.compare_exchange_strong(
            last, now, std::memory_order_relaxed);
    }

    /**
     * Forces a claim regardless of the interval, for end-of-run
     * flushes.  Never fails: when @p now is behind the last claimed
     * time the stamp is clamped forward to it, so retained timestamps
     * stay monotone even when the flushing clock restarted (a fresh
     * checker Machine's virtual clock begins at zero).  Returns the
     * timestamp to stamp the sample with.
     */
    std::uint64_t
    claim_flush(std::uint64_t now)
    {
        std::uint64_t last = last_claim_.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint64_t stamp = now > last ? now : last;
            if (last_claim_.compare_exchange_weak(
                    last, stamp, std::memory_order_relaxed))
                return stamp;
        }
    }

  private:
    struct Slot;

  public:
    /**
     * Writer interface: claim a slot, store fields, then store heap
     * points.  The caller (the allocator) fills heap points one heap
     * lock at a time; no sampler-side lock is held anywhere.
     */
    class Writer
    {
      public:
        void
        set_gauges(std::uint64_t in_use, std::uint64_t held,
                   std::uint64_t committed, std::uint64_t cached)
        {
            slot_->in_use.store(in_use, std::memory_order_relaxed);
            slot_->held.store(held, std::memory_order_relaxed);
            slot_->committed.store(committed,
                                   std::memory_order_relaxed);
            slot_->cached.store(cached, std::memory_order_relaxed);
        }

        /** Virtual-memory split gauges. */
        void
        set_vm(std::uint64_t reserved, std::uint64_t purged)
        {
            slot_->reserved.store(reserved, std::memory_order_relaxed);
            slot_->purged.store(purged, std::memory_order_relaxed);
        }

        void
        set_counters(std::uint64_t allocs, std::uint64_t frees,
                     std::uint64_t transfers, std::uint64_t fetches)
        {
            slot_->allocs.store(allocs, std::memory_order_relaxed);
            slot_->frees.store(frees, std::memory_order_relaxed);
            slot_->transfers.store(transfers,
                                   std::memory_order_relaxed);
            slot_->fetches.store(fetches, std::memory_order_relaxed);
        }

        void
        set_slowpath(std::uint64_t bin_hits, std::uint64_t bin_misses,
                     std::uint64_t cache_pushes,
                     std::uint64_t cache_pops)
        {
            slot_->bin_hits.store(bin_hits, std::memory_order_relaxed);
            slot_->bin_misses.store(bin_misses,
                                    std::memory_order_relaxed);
            slot_->cache_pushes.store(cache_pushes,
                                      std::memory_order_relaxed);
            slot_->cache_pops.store(cache_pops,
                                    std::memory_order_relaxed);
        }

        void
        set_bad_frees(std::uint64_t wild, std::uint64_t foreign,
                      std::uint64_t interior, std::uint64_t dbl)
        {
            slot_->bad_free_wild.store(wild, std::memory_order_relaxed);
            slot_->bad_free_foreign.store(foreign,
                                          std::memory_order_relaxed);
            slot_->bad_free_interior.store(interior,
                                           std::memory_order_relaxed);
            slot_->bad_free_double.store(dbl, std::memory_order_relaxed);
        }

        void
        set_profiler(std::uint64_t sampled_requested,
                     std::uint64_t sampled_rounded)
        {
            slot_->prof_requested.store(sampled_requested,
                                        std::memory_order_relaxed);
            slot_->prof_rounded.store(sampled_rounded,
                                      std::memory_order_relaxed);
        }

        void
        set_latency(int path, std::uint64_t count, std::uint64_t p99)
        {
            if (path < 0 || path >= kLatencyPathCount)
                return;
            const auto i = static_cast<std::size_t>(path);
            slot_->lat_counts[i].store(count,
                                       std::memory_order_relaxed);
            slot_->lat_p99[i].store(p99, std::memory_order_relaxed);
        }

        void
        set_heap(std::size_t index, std::uint64_t in_use,
                 std::uint64_t held)
        {
            if (index >= heap_slots_)
                return;
            slot_->heap_words[index * 2].store(
                in_use, std::memory_order_relaxed);
            slot_->heap_words[index * 2 + 1].store(
                held, std::memory_order_relaxed);
        }

      private:
        friend class TimeSeriesSampler;
        Writer(Slot* slot, std::size_t heap_slots)
            : slot_(slot), heap_slots_(heap_slots)
        {}
        Slot* slot_;
        std::size_t heap_slots_;
    };

    /**
     * Claims the next ring slot for a sample stamped @p now.
     *
     * Slot order must match stamp order (collect() promises monotone
     * timestamps across the retained window).  Claims are monotone,
     * but the claimer of an *earlier* window can reach this append
     * *after* a later claimer — the drain between claim and append is
     * long — so the slot index and the stamp are assigned under one
     * tiny ordering lock, with the stamp clamped forward to the
     * newest appended one.  The critical section is three stores; the
     * lock is policy-free on purpose (no virtual-time cost under the
     * simulator, no yield point inside).
     */
    Writer
    begin_sample(std::uint64_t now)
    {
        while (order_lock_.test_and_set(std::memory_order_acquire)) {
        }
        std::uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
        if (now < last_appended_)
            now = last_appended_;
        last_appended_ = now;
        Slot& slot = slots_[i & mask_];
        slot.timestamp.store(now, std::memory_order_relaxed);
        order_lock_.clear(std::memory_order_release);
        return Writer(&slot, heap_slots_);
    }

    /** Forked-child repair: a parent thread may have been inside
        begin_sample()'s ordering lock at the fork instant; the thread
        does not exist in the child, so the flag must be cleared. */
    void
    child_after_fork()
    {
        order_lock_.clear(std::memory_order_relaxed);
    }

    /** Samples ever taken (including overwritten ones). */
    std::uint64_t
    total_samples() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    /** Samples lost to overwrite so far. */
    std::uint64_t
    dropped() const
    {
        std::uint64_t n = total_samples();
        return n > capacity_ ? n - capacity_ : 0;
    }

    /**
     * Returns the retained samples, oldest first.  Intended for
     * quiesced readers; racing a writer is memory-safe but may yield
     * mixed samples (same contract as EventRing::collect).
     */
    std::vector<TimeSample>
    collect() const
    {
        std::uint64_t head = head_.load(std::memory_order_relaxed);
        std::uint64_t n =
            head < capacity_ ? head : static_cast<std::uint64_t>(
                                          capacity_);
        std::vector<TimeSample> out;
        out.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = head - n; i != head; ++i) {
            const Slot& slot = slots_[i & mask_];
            TimeSample sample;
            sample.timestamp =
                slot.timestamp.load(std::memory_order_relaxed);
            sample.in_use = slot.in_use.load(std::memory_order_relaxed);
            sample.held = slot.held.load(std::memory_order_relaxed);
            sample.committed_bytes =
                slot.committed.load(std::memory_order_relaxed);
            sample.reserved_bytes =
                slot.reserved.load(std::memory_order_relaxed);
            sample.purged_bytes =
                slot.purged.load(std::memory_order_relaxed);
            sample.cached_bytes =
                slot.cached.load(std::memory_order_relaxed);
            sample.allocs = slot.allocs.load(std::memory_order_relaxed);
            sample.frees = slot.frees.load(std::memory_order_relaxed);
            sample.transfers =
                slot.transfers.load(std::memory_order_relaxed);
            sample.global_fetches =
                slot.fetches.load(std::memory_order_relaxed);
            sample.bin_hits =
                slot.bin_hits.load(std::memory_order_relaxed);
            sample.bin_misses =
                slot.bin_misses.load(std::memory_order_relaxed);
            sample.cache_pushes =
                slot.cache_pushes.load(std::memory_order_relaxed);
            sample.cache_pops =
                slot.cache_pops.load(std::memory_order_relaxed);
            sample.bad_free_wild =
                slot.bad_free_wild.load(std::memory_order_relaxed);
            sample.bad_free_foreign =
                slot.bad_free_foreign.load(std::memory_order_relaxed);
            sample.bad_free_interior =
                slot.bad_free_interior.load(std::memory_order_relaxed);
            sample.bad_free_double =
                slot.bad_free_double.load(std::memory_order_relaxed);
            sample.prof_requested =
                slot.prof_requested.load(std::memory_order_relaxed);
            sample.prof_rounded =
                slot.prof_rounded.load(std::memory_order_relaxed);
            for (std::size_t p = 0; p < sample.lat_counts.size(); ++p) {
                sample.lat_counts[p] =
                    slot.lat_counts[p].load(std::memory_order_relaxed);
                sample.lat_p99[p] =
                    slot.lat_p99[p].load(std::memory_order_relaxed);
            }
            sample.heaps.resize(heap_slots_);
            for (std::size_t h = 0; h < heap_slots_; ++h) {
                sample.heaps[h].in_use = slot.heap_words[h * 2].load(
                    std::memory_order_relaxed);
                sample.heaps[h].held = slot.heap_words[h * 2 + 1].load(
                    std::memory_order_relaxed);
            }
            out.push_back(std::move(sample));
        }
        return out;
    }

  private:
    struct Slot
    {
        std::atomic<std::uint64_t> timestamp{0};
        std::atomic<std::uint64_t> in_use{0};
        std::atomic<std::uint64_t> held{0};
        std::atomic<std::uint64_t> committed{0};
        std::atomic<std::uint64_t> reserved{0};
        std::atomic<std::uint64_t> purged{0};
        std::atomic<std::uint64_t> cached{0};
        std::atomic<std::uint64_t> allocs{0};
        std::atomic<std::uint64_t> frees{0};
        std::atomic<std::uint64_t> transfers{0};
        std::atomic<std::uint64_t> fetches{0};
        std::atomic<std::uint64_t> bin_hits{0};
        std::atomic<std::uint64_t> bin_misses{0};
        std::atomic<std::uint64_t> cache_pushes{0};
        std::atomic<std::uint64_t> cache_pops{0};
        std::atomic<std::uint64_t> bad_free_wild{0};
        std::atomic<std::uint64_t> bad_free_foreign{0};
        std::atomic<std::uint64_t> bad_free_interior{0};
        std::atomic<std::uint64_t> bad_free_double{0};
        std::atomic<std::uint64_t> prof_requested{0};
        std::atomic<std::uint64_t> prof_rounded{0};
        std::array<std::atomic<std::uint64_t>, kLatencyPathCount>
            lat_counts{};
        std::array<std::atomic<std::uint64_t>, kLatencyPathCount>
            lat_p99{};
        /// u/a pairs, heap_slots entries of two words each.
        std::unique_ptr<std::atomic<std::uint64_t>[]> heap_words;
    };

    const std::size_t capacity_;
    const std::uint64_t mask_;
    const std::size_t heap_slots_;
    const std::uint64_t interval_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<std::uint64_t> head_{0};
    std::atomic<std::uint64_t> last_claim_{0};
    /// Orders slot assignment against stamping in begin_sample().
    std::atomic_flag order_lock_ = ATOMIC_FLAG_INIT;
    /// Newest appended stamp; guarded by order_lock_.
    std::uint64_t last_appended_ = 0;
};

}  // namespace obs
}  // namespace hoard

#endif  // HOARD_OBS_TIMESERIES_H_
