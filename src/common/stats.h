/**
 * @file
 * Thread-safe statistic counters and high-water-mark gauges.
 *
 * Every allocator in this repository exports the same AllocatorStats
 * block; the fragmentation and blowup tables (TBL-frag, TBL-blowup in
 * DESIGN.md) are computed straight from these gauges.
 */

#ifndef HOARD_COMMON_STATS_H_
#define HOARD_COMMON_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/failure.h"

namespace hoard {
namespace detail {

/**
 * Monotonic event counter.  Relaxed ordering: counters are diagnostics,
 * never synchronization.
 */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

    /**
     * Raises the count to @p n if it is lower — how a total folded from
     * OpShards is published.  Concurrent folds may finish out of order;
     * keeping the maximum means a reader never sees the count go down.
     */
    void
    raise_to(std::uint64_t n)
    {
        std::uint64_t seen = v_.load(std::memory_order_relaxed);
        while (n > seen &&
               !v_.compare_exchange_weak(seen, n,
                                         std::memory_order_relaxed)) {
        }
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/**
 * Signed level gauge with a high-water mark.  add()/sub() move the
 * current level; peak() is maintained with a CAS-max loop.
 */
class Gauge
{
  public:
    void
    add(std::uint64_t n)
    {
        std::uint64_t now =
            cur_.fetch_add(n, std::memory_order_relaxed) + n;
        std::uint64_t seen = peak_.load(std::memory_order_relaxed);
        while (now > seen &&
               !peak_.compare_exchange_weak(seen, now,
                                            std::memory_order_relaxed)) {
        }
    }

    /**
     * Lowers the level by @p n.  Subtracting more than the current
     * level would wrap the unsigned counter and poison every derived
     * metric (fragmentation, footprint tables), so debug builds treat
     * it as a caller bug.  The check reads the level racily; under
     * concurrent mutation it can only under-report, never false-fire
     * on a balanced add/sub history.
     */
    void
    sub(std::uint64_t n)
    {
        HOARD_DCHECK(n <= cur_.load(std::memory_order_relaxed));
        cur_.fetch_sub(n, std::memory_order_relaxed);
    }

    std::uint64_t current() const { return cur_.load(std::memory_order_relaxed); }
    std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

    /**
     * Overwrites the level (peak still ratchets up).  For single-
     * threaded repair paths — the post-fork child recomputes gauges
     * from the heap structures after add/sub histories tore across
     * fork() — and for publishing a level folded from OpShards, where
     * racing folds may store out of order but the peak keeps the
     * highest level any of them saw.
     */
    void
    set(std::uint64_t n)
    {
        cur_.store(n, std::memory_order_relaxed);
        std::uint64_t seen = peak_.load(std::memory_order_relaxed);
        while (n > seen &&
               !peak_.compare_exchange_weak(seen, n,
                                            std::memory_order_relaxed)) {
        }
    }

    void
    reset()
    {
        cur_.store(0, std::memory_order_relaxed);
        peak_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> cur_{0};
    std::atomic<std::uint64_t> peak_{0};
};

/**
 * One shard of the per-operation statistics: allocation and free
 * counts, requested bytes, and a signed in-use delta.  Each shard has
 * a single writer at a time (a heap's shard is written under that
 * heap's lock, a magazine shard by its owning thread), so the writer
 * updates fields by load + store — no locked instruction, no shared
 * cache line on the fast path.  The fields are still relaxed atomics
 * so a reader can sum the shards (OpTotals) without the writer's lock.
 *
 * The in-use delta is signed because a block can be freed into a
 * shard other than the one that counted its allocation (a block
 * allocated from heap 1 but freed after its superblock moved to a
 * global bin).  The sum over all shards is the live block bytes.
 *
 * peak_mark supports the in-use high-water mark, which is only known
 * at folds: it is the lowest level this shard has had since it last
 * asked for a fold.  count_alloc() asks again once the shard has
 * grown `step` bytes above it, which bounds how far the folded peak
 * can lag the true one (docs/OBSERVABILITY.md).
 */
struct OpShard
{
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> requested_bytes{0};
    std::atomic<std::int64_t> in_use_bytes{0};
    std::int64_t peak_mark = 0;  ///< writer-private; see above

    /**
     * Counts one allocation of @p bytes (block-rounded) for a request
     * of @p requested.  Returns true when the caller must fold now:
     * the in-use delta has risen @p step above peak_mark, which is
     * then reset to the current level.
     */
    bool
    count_alloc(std::size_t requested, std::size_t bytes,
                std::int64_t step)
    {
        bump(allocs, 1);
        bump(requested_bytes, requested);
        const std::int64_t now =
            in_use_bytes.load(std::memory_order_relaxed) +
            static_cast<std::int64_t>(bytes);
        in_use_bytes.store(now, std::memory_order_relaxed);
        if (now - peak_mark < step)
            return false;
        peak_mark = now;
        return true;
    }

    /** Counts one free of @p bytes (block-rounded). */
    void
    count_free(std::size_t bytes)
    {
        bump(frees, 1);
        const std::int64_t now =
            in_use_bytes.load(std::memory_order_relaxed) -
            static_cast<std::int64_t>(bytes);
        in_use_bytes.store(now, std::memory_order_relaxed);
        if (now < peak_mark)
            peak_mark = now;
    }

    /** count_alloc for a shard with many writers: atomic RMW, no peak
        mark (the caller folds instead). */
    void
    count_alloc_shared(std::size_t requested, std::size_t bytes)
    {
        allocs.fetch_add(1, std::memory_order_relaxed);
        requested_bytes.fetch_add(requested, std::memory_order_relaxed);
        in_use_bytes.fetch_add(static_cast<std::int64_t>(bytes),
                               std::memory_order_relaxed);
    }

    /** count_free for a shard with many writers (atomic RMW). */
    void
    count_free_shared(std::size_t bytes)
    {
        frees.fetch_add(1, std::memory_order_relaxed);
        in_use_bytes.fetch_sub(static_cast<std::int64_t>(bytes),
                               std::memory_order_relaxed);
    }

  private:
    template <typename T>
    static void
    bump(std::atomic<T>& field, std::uint64_t n)
    {
        field.store(field.load(std::memory_order_relaxed) +
                        static_cast<T>(n),
                    std::memory_order_relaxed);
    }
};

/** Running sum of OpShards — the read side of the shard discipline. */
struct OpTotals
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t requested_bytes = 0;
    std::int64_t in_use_bytes = 0;

    void
    add(const OpShard& shard)
    {
        allocs += shard.allocs.load(std::memory_order_relaxed);
        frees += shard.frees.load(std::memory_order_relaxed);
        requested_bytes +=
            shard.requested_bytes.load(std::memory_order_relaxed);
        in_use_bytes += shard.in_use_bytes.load(std::memory_order_relaxed);
    }
};

/** Statistics block shared by every allocator implementation. */
struct AllocatorStats
{
    Counter allocs;              ///< calls to allocate()
    Counter frees;               ///< calls to deallocate()
    Gauge requested_bytes;       ///< exact bytes the client asked for
    Gauge in_use_bytes;          ///< block-rounded bytes currently live (U)
    Gauge held_bytes;            ///< bytes held in superblocks (A)
    Gauge committed_bytes;       ///< OS-committed bytes (RSS ground truth);
                                 ///< held_bytes == committed + purged
    Gauge purged_bytes;          ///< held bytes whose pages were returned
                                 ///< to the OS by the purge pass
    Gauge cached_bytes;          ///< bytes parked in thread caches
    Counter superblock_allocs;   ///< fresh superblocks fetched from the OS
    Counter superblock_transfers;///< per-proc heap -> global heap moves
    Counter global_fetches;      ///< superblocks pulled from the global heap
    Counter huge_allocs;         ///< allocations > S/2 served directly
    Counter oom_reclaims;        ///< map failures answered by reclaiming
    Counter oom_failures;        ///< allocations that failed even after reclaim
    Counter remote_frees;        ///< frees pushed to a busy owner's queue
    Counter remote_drains;       ///< blocks drained from remote queues
    Counter batch_refills;       ///< magazine refills (one lock each)
    Counter batch_flushes;       ///< magazine spills/flushes (batched)
    Counter global_bin_hits;     ///< fetches served by a per-class global bin
    Counter global_bin_misses;   ///< bin probes that found the class empty
    Counter cache_pushes;        ///< empty superblocks pushed to the reuse cache
    Counter cache_pops;          ///< empty superblocks popped from the reuse cache
    Counter purge_passes;        ///< purge sweeps over idle superblocks
    Counter purged_superblocks;  ///< superblock payloads decommitted by purge
    Counter revived_superblocks; ///< purged superblocks put back into service
    Counter bad_free_wild;       ///< frees of pointers outside any superblock
    Counter bad_free_foreign;    ///< frees of another allocator's memory
    Counter bad_free_interior;   ///< frees of misaligned/interior pointers
    Counter bad_free_double;     ///< frees of blocks already free
    Counter bg_wakeups;          ///< background-worker passes started
    Counter bg_refills;          ///< superblocks the worker formatted into bins
    Counter bg_drains;           ///< blocks the worker settled from remote queues
    Counter bg_precommits;       ///< spans the worker pre-committed in the provider
    Counter bg_purges;           ///< purge passes run on the worker's cadence

    /**
     * Publishes per-operation totals folded from OpShards into the four
     * fields above that allocators sharding their op counts (Hoard)
     * never update directly.  A level below zero can only be a racy
     * fold (a free read after its allocation was missed); it reads 0.
     */
    void
    publish_ops(const OpTotals& t)
    {
        allocs.raise_to(t.allocs);
        frees.raise_to(t.frees);
        requested_bytes.set(t.requested_bytes);
        in_use_bytes.set(t.in_use_bytes > 0
                             ? static_cast<std::uint64_t>(t.in_use_bytes)
                             : 0);
    }

    /**
     * Fragmentation as the paper reports it: maximum memory held by the
     * allocator divided by maximum memory in use by the program.
     */
    double
    fragmentation() const
    {
        std::uint64_t u = in_use_bytes.peak();
        return u == 0 ? 1.0
                      : static_cast<double>(held_bytes.peak()) /
                            static_cast<double>(u);
    }
};

}  // namespace detail
}  // namespace hoard

#endif  // HOARD_COMMON_STATS_H_
