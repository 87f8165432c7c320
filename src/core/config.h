/**
 * @file
 * Tunable parameters of the Hoard allocator (paper §3).
 *
 * Defaults reproduce the paper's configuration: S = 8 KiB superblocks,
 * empty fraction f = 1/4, slack K = 0, geometric size classes with base
 * b = 1.2.  The algorithm's knobs (S, f, K, t and the thread cache) are
 * each swept by an ablation bench (DESIGN.md §6); the rest arm
 * observability, profiling, purging and the hardened free path.
 */

#ifndef HOARD_CORE_CONFIG_H_
#define HOARD_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace hoard {

/** Allocator configuration; validate() is called at construction. */
struct Config
{
    /** Superblock size S in bytes; must be a power of two >= 1024. */
    std::size_t superblock_bytes = 8192;

    /**
     * Empty fraction f in (0, 1): a heap must keep
     * u_i >= (1 - f) * a_i (up to the K*S slack) or it releases a
     * superblock to the global heap.
     */
    double empty_fraction = 0.25;

    /**
     * Slack K in superblocks: u_i >= a_i - K*S is always tolerated.
     * K > 0 damps superblock bouncing: a heap whose active size classes
     * each hold one partial superblock naturally sits below the
     * (1-f) occupancy line, and with K = 0 it would shuttle superblocks
     * to and from the global heap on nearly every free/alloc pair.
     * K = 8 absorbs a typical spread of partial classes (mixed-size
     * workloads touch 10-25 classes) while keeping the blowup bound
     * O(1); the ABL-K bench maps the cliff.
     */
    std::size_t slack_superblocks = 8;

    /**
     * Fraction of a superblock that must be free before it may be
     * transferred to the global heap (the "victim" rule).  The paper's
     * Figure 3 transfers any superblock that is at least f empty;
     * implemented literally, a workload whose natural heap density
     * sits below (1-f) — e.g. mixed sizes spread over many classes —
     * is *pinned at the emptiness boundary*: every free transfers a
     * partial superblock and the next allocation fetches it straight
     * back, serializing all heaps on the global lock (the ABL-release
     * bench measures a ~4x scalability loss on the shbench mix, and
     * shows that any t < 1 still churns — sparse classes live
     * permanently in the emptiest band).  The default transfers only
     * *completely empty* superblocks, which is what the released Hoard
     * implementations do; the cost is that the O(1) blowup bound holds
     * per retained-superblock occupancy rather than by the paper's
     * 1/(1-f) argument (an adversary keeping every superblock one
     * block full evades it — the classic size-class fragmentation
     * bound applies instead).  Set t = empty_fraction for the
     * paper-literal mode, which the invariant property tests validate.
     * Must lie in [empty_fraction, 1].
     */
    double release_threshold = 1.0;

    /** Geometric size-class growth factor b (> 1). */
    double size_class_base = 1.2;

    /** Smallest block size in bytes (>= 8, multiple of 8). */
    std::size_t min_block_bytes = 8;

    /**
     * Number of per-processor heaps P (heap 0 is the global heap and is
     * additional).  Threads map to heap 1 + (tid mod P).
     */
    int heap_count = 16;

    /**
     * Extension (not in the paper; the direction later allocators —
     * Hoard 3.x, tcmalloc — took): per-logical-thread block caches in
     * front of the heaps.  A freed block parks in the freeing thread's
     * cache and the next allocation of that class pops it without
     * touching any heap.  Value = blocks cached per size class per
     * thread slot; 0 disables.  0 is the default here, keeping the
     * simulated system the paper's; the shipped configuration behind
     * libhoard.so and global_new.h (shipped_config(), core/facade.h)
     * runs 64.  Caches are bounded — this many blocks per class, and
     * about 16 KiB per class for large blocks (detail::magazine_limits)
     * — and flushed to the owning heaps on overflow, so blowup gains
     * only a constant.  ABL-cache quantifies the effect.
     */
    std::uint32_t thread_cache_blocks = 0;

    /**
     * Blocks moved per magazine refill/flush transfer (the N of the
     * batched fast path): a refill carves up to this many blocks under
     * one heap-lock acquisition, and an overflowing magazine returns
     * this many in one pass.  0 (the default) derives the batch as
     * max(1, thread_cache_blocks / 2) — half the cap, so a thread
     * alternating between allocation-heavy and free-heavy phases keeps
     * headroom in both directions.  Either way a class's batch is
     * capped at half that class's (byte-capped) magazine bound.  Must not exceed
     * thread_cache_blocks; meaningless (and ignored) when caching is
     * off.  ABL-cache sweeps this axis.
     */
    std::uint32_t thread_cache_batch = 0;

    /**
     * Runtime switch for the observability layer (src/obs/): event
     * tracing into per-thread rings plus heap-lock contention
     * profiling.  The facade sets it from the HOARD_OBS environment
     * variable for the process-wide instance, so a deployed binary can
     * be traced without a rebuild; an allocator constructed directly
     * reads only this field.  Off by default: the only hot-path
     * residue is one predicted-not-taken branch.
     * Snapshots (take_snapshot) work regardless of this flag.
     */
    bool observability = false;

    /**
     * Events retained per ring shard when observability is on (the
     * recorder keeps EventRecorder::kShards rings and overwrites the
     * oldest events).  Power of two >= 2.
     */
    std::size_t obs_ring_events = 1024;

    /**
     * Minimum policy-time gap between time-series samples
     * (obs/timeseries.h): steady-clock nanoseconds under NativePolicy,
     * virtual cycles under SimPolicy.  0 (the default) disables the
     * sampler entirely — no ring is allocated and the allocation paths
     * keep only the usual observability branch.  Takes effect only
     * when observability is on.
     */
    std::uint64_t obs_sample_interval = 0;

    /**
     * Time-series samples retained (overwrite ring).  Power of two
     * >= 2.  Each slot preallocates heap_count + 1 u_i/a_i pairs.
     */
    std::size_t obs_sample_slots = 256;

    /**
     * Mean bytes between allocation samples for the heap profiler
     * (src/obs/heap_profiler.h), tcmalloc-style: each thread counts
     * allocated bytes down from an exponentially distributed threshold
     * with this mean, so every byte is equally likely to be sampled and
     * estimates are unbiased regardless of allocation size mix.  0 (the
     * default) disables the profiler — no table is allocated and the
     * fast path keeps one clear bit of the allocator's hook word.
     * 1 samples *every*
     * allocation (exact mode, used by the reconciliation tests).
     * The facade sets it from the HOARD_PROFILE_RATE environment
     * variable for the process-wide instance, so a shimmed binary can
     * be profiled without a rebuild.
     */
    std::size_t profile_sample_rate = 0;

    /**
     * Allocation-site table capacity (distinct sampled stacks).  Open
     * addressing, fixed size, power of two >= 2; when full, new sites
     * are dropped and counted.  2048 sites is ~0.5 MiB and far beyond
     * what real programs populate at the default sample rate.
     */
    std::size_t profile_site_slots = 2048;

    /**
     * Live-object side map capacity (sampled objects currently live).
     * Power of two >= 2.  At the default rate one slot tracks ~512 KiB
     * of live heap, so 16384 slots cover ~8 GiB; insert failures are
     * counted and roll the site's live gauges back so attribution
     * stays exact for what the map does track.
     */
    std::size_t profile_live_slots = 16384;

    /**
     * Backtrace frames captured per sample (1..64).  Frame-pointer
     * walk under NativePolicy; under SimPolicy the "backtrace" is a
     * deterministic {site token, fiber id} pair and depth is moot.
     */
    int profile_max_frames = 24;

    /**
     * Runtime switch for the tail-latency histograms (src/obs/
     * latency.h): per-path log-linear cycle histograms with
     * deepest-stage attribution on the slow paths.  The facade sets it
     * from the HOARD_LATENCY environment variable for the process-wide
     * instance only.  Off by default: the hot-path residue is one clear
     * bit of the allocator's hook word.
     */
    bool latency_histograms = false;

    /**
     * When the latency histograms are armed, time one in this many
     * *fast-path* operations per thread (magazine hit, magazine park,
     * owner-locked free).  Slow-path operations (refill and deeper,
     * spill, remote push, huge) are always timed — they are rare and
     * they are the tail.  1 times every operation (exact mode: path
     * counts reconcile with the allocator's op counters, used by the
     * integration tests and required for byte-identical sim replay);
     * the default keeps the armed overhead inside the
     * micro_obs_overhead 5% gate.  Must be >= 1.
     */
    std::uint32_t latency_sample_period = 256;

    /**
     * Timed operations at or above this many cycles emit an outlier
     * record: a latency_outlier trace event (when tracing is on) plus
     * an entry in the collector's outlier ring carrying the deepest
     * stage reached and a frame-pointer backtrace.  0 (the default)
     * disables outlier capture.  Only operations that were timed are
     * considered, so with the default sample period a fast-path
     * outlier can be missed; slow-path operations — where real
     * outliers live — are always timed.
     */
    std::uint64_t latency_outlier_cycles = 0;

    /**
     * Age threshold for the purge pass, in policy time (steady-clock
     * nanoseconds under NativePolicy, virtual cycles under SimPolicy):
     * an empty superblock idle in the reuse cache for at least this
     * long has its payload pages decommitted (madvise) while the span
     * stays mapped and formatted for O(1) revival.  0 (the default)
     * means age alone never triggers a
     * purge.  The purge pass is armed when this or rss_target_bytes is
     * nonzero; HOARD_PURGE_AGE under the facade.
     */
    std::uint64_t purge_age_ticks = 0;

    /**
     * Committed-bytes (RSS) target for the purge pass: while
     * stats.committed_bytes exceeds this, the pass decommits idle
     * superblocks regardless of age, oldest first.  0 (the default)
     * disables targeting.  A best-effort pressure valve, not a hard
     * cap — memory the program is actively using is never purged.
     * HOARD_RSS_TARGET under the facade.
     */
    std::size_t rss_target_bytes = 0;

    /**
     * Minimum policy-time gap between automatic purge passes (the
     * deallocate-tail check rides the same cadence machinery as the
     * time-series sampler).  Only meaningful when the pass is armed.
     * Must be >= 1.
     */
    std::uint64_t purge_interval_ticks = 1 << 20;

    /**
     * What deallocate() does when the hardened free path rejects a
     * pointer (wild, foreign-arena, interior, or double free).
     */
    enum class BadFreePolicy
    {
        /** Abort with a diagnostic naming the pointer and the defect. */
        fatal,

        /**
         * Count it (stats.bad_free_*), record a trace event, and leak
         * the block — graceful degradation for production processes
         * that prefer a slow leak to an abort.
         */
        warn,
    };

    /**
     * Validate pointers handed to deallocate() before touching any heap
     * structure: superblock magic, owning-arena id, block alignment
     * against the size class, and a bounded double-free probe.  The
     * check is a handful of reads on memory free() touches anyway
     * (micro_obs_overhead gates the cost below 2%); disabling it
     * restores the trusting paper-mode free path, where a hostile
     * pointer corrupts heaps instead of being reported.  Pointers
     * parked in thread magazines are trusted either way — the magazine
     * fast path stays lock- and check-free.
     */
    bool hardened_free = true;

    /** Policy applied when the hardened free path rejects a pointer. */
    BadFreePolicy on_bad_free = BadFreePolicy::fatal;

    /** Aborts with HOARD_FATAL on any out-of-range parameter. */
    void validate() const;
};

}  // namespace hoard

#endif  // HOARD_CORE_CONFIG_H_
