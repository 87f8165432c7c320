/**
 * @file
 * Sampling heap profiler: allocation-site attribution with pprof
 * export and live fragmentation telemetry (docs/PROFILING.md).
 *
 * The design is tcmalloc's sampler transplanted onto Hoard: every
 * logical thread counts allocated bytes down from an exponentially
 * distributed threshold (mean = Config::profile_sample_rate); when the
 * countdown crosses zero the allocator captures a bounded backtrace
 * (Policy::profile_backtrace — a frame-pointer walk natively, a
 * deterministic {site token, fiber} pair in the sim) and records the
 * allocation here.  Exponential gaps make the sampling a Poisson
 * process *in bytes*: every byte is equally likely to be the sampled
 * one, so per-site estimates are unbiased no matter how allocation
 * sizes are distributed, and each sampled allocation of size s stands
 * for 1/(1 - e^(-s/rate)) real ones.
 *
 * Everything on the recording path is lock-free and allocation-free:
 *
 *  - The *site table* is a fixed open-addressing array keyed by the
 *    stack hash.  Slots are claimed by CAS on the hash word; counters
 *    are per-slot relaxed atomics; frames are published once behind a
 *    release/acquire ready flag.  Distinct stacks that collide on the
 *    full 64-bit hash merge into one site (astronomically unlikely and
 *    harmless for attribution); distinct hashes that collide on a slot
 *    probe onward, and a full table drops new sites into a counter
 *    rather than blocking.
 *
 *  - The *live map* pairs frees back to their sampled site so live
 *    attribution is exact per sampled object: an aligned 8-slot window
 *    (one cache line of keys) is probed by pointer hash; slots are
 *    claimed by CAS through a busy sentinel so value fields are always
 *    accessed exclusively.  A free of an unsampled pointer — the
 *    common case — costs one cache line of key loads and no writes.
 *
 * The class is deliberately policy-free (plain data + atomics); the
 * allocator template feeds it thread indices, timestamps, and frames
 * from its Policy, which is what makes profiler tests replayable
 * bit-for-bit under SimPolicy.
 */

#ifndef HOARD_OBS_HEAP_PROFILER_H_
#define HOARD_OBS_HEAP_PROFILER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/failure.h"

namespace hoard {
namespace obs {

/// @name pprof varint/wire-format primitives.
/// Exposed (and unit-tested against golden bytes) so the hand-rolled
/// encoder in write_pprof_profile is verifiable without a protobuf
/// dependency.  Wire format: https://protobuf.dev/programming-guides/encoding
/// @{

/** Appends @p v as a base-128 varint (1..10 bytes). */
inline void
pprof_put_varint(std::string& out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>(0x80u | (v & 0x7Fu)));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/** Appends a varint-typed field: tag (field<<3 | 0) then the value. */
inline void
pprof_put_field_varint(std::string& out, int field, std::uint64_t v)
{
    pprof_put_varint(out, (static_cast<std::uint64_t>(field) << 3) | 0u);
    pprof_put_varint(out, v);
}

/** Appends a length-delimited field: tag (field<<3 | 2), len, bytes. */
inline void
pprof_put_field_bytes(std::string& out, int field, const std::string& bytes)
{
    pprof_put_varint(out, (static_cast<std::uint64_t>(field) << 3) | 2u);
    pprof_put_varint(out, bytes.size());
    out.append(bytes);
}

/// @}

/** Aggregate profiler counters (all relaxed reads; exact only at
    quiescence, like every other gauge in the system). */
struct ProfilerTotals
{
    std::uint64_t sampled_objects = 0;    ///< samples recorded
    std::uint64_t sampled_requested = 0;  ///< sum of requested bytes
    std::uint64_t sampled_rounded = 0;    ///< sum of size-class bytes
    std::uint64_t live_objects = 0;       ///< sampled objects still live
    std::uint64_t live_bytes = 0;         ///< their rounded bytes
    std::uint64_t live_requested = 0;     ///< their requested bytes
    std::uint64_t frees_paired = 0;       ///< frees matched in the map
    std::uint64_t sites = 0;              ///< distinct sites recorded
    std::uint64_t site_drops = 0;         ///< samples lost: table full
    std::uint64_t live_drops = 0;         ///< inserts lost: window full
    std::uint64_t live_drop_bytes = 0;    ///< their rounded bytes
};

/** Per-size-class sampled fragmentation accumulators. */
struct ClassProfile
{
    std::uint64_t objects = 0;
    std::uint64_t requested_bytes = 0;
    std::uint64_t rounded_bytes = 0;
};

/** @see file comment. */
class HeapProfiler
{
  public:
    /** Hard cap on captured frames (Config::profile_max_frames <= 64). */
    static constexpr int kMaxFrames = 64;

    /** Countdown slots; logical threads map in by index modulo this.
        Two threads sharing a slot merely interleave one byte-counter —
        statistically harmless, and it bounds the footprint. */
    static constexpr int kThreadSlots = 256;

    /** Size-class index used for huge (superblock-bypassing) blocks. */
    static constexpr std::uint32_t kHugeClass = 0xFFFFFFFFu;

    /**
     * @param sample_rate mean bytes between samples (>= 1; 1 = every
     *                    allocation, exact mode)
     * @param site_slots  site-table capacity (power of two >= 2)
     * @param live_slots  live-map capacity (power of two >= 8)
     * @param max_frames  frames kept per site (1..kMaxFrames)
     * @param num_classes small size classes (for per-class telemetry)
     */
    HeapProfiler(std::size_t sample_rate, std::size_t site_slots,
                 std::size_t live_slots, int max_frames,
                 std::uint32_t num_classes);
    ~HeapProfiler();

    HeapProfiler(const HeapProfiler&) = delete;
    HeapProfiler& operator=(const HeapProfiler&) = delete;

    /**
     * Fast-path byte countdown: charges @p bytes against the calling
     * thread's threshold and reports whether this allocation is
     * sampled.  One relaxed load, a subtraction, one relaxed store,
     * and a predicted-not-taken branch; deliberately *not* a
     * fetch_sub, so no lock-prefixed instruction lands on the
     * allocation fast path (slot sharing makes a lost update merely a
     * skipped tick).  always_inline: it runs on every allocation
     * while armed, and a call around it costs more than it does.
     */
    inline __attribute__((always_inline)) bool
    tick(int thread_index, std::size_t bytes)
    {
        ThreadState& t =
            threads_[static_cast<unsigned>(thread_index) &
                     (kThreadSlots - 1)];
        const std::int64_t c =
            t.countdown.load(std::memory_order_relaxed) -
            static_cast<std::int64_t>(bytes);
        if (c > 0) [[likely]] {
            t.countdown.store(c, std::memory_order_relaxed);
            return false;
        }
        t.countdown.store(next_threshold(t), std::memory_order_relaxed);
        return true;
    }

    /**
     * Records one sampled allocation: finds or creates the site for
     * @p frames, bumps its cumulative counters, and inserts @p ptr
     * into the live map so the matching free can be paired.
     *
     * @param ptr       block handed to the program
     * @param requested bytes the program asked for
     * @param rounded   bytes the allocator accounted (block_bytes for
     *                  small classes, the request itself for huge)
     * @param cls       size-class index, or kHugeClass
     * @param frames    backtrace, innermost first
     * @param depth     frames captured (>= 0)
     * @param now       Policy::timestamp() at allocation
     * @return whether @p ptr was inserted into the live map (a later
     *         on_free for it can hit); false on a site or live drop,
     *         so callers can skip free-side probes they know miss
     */
    bool record_alloc(const void* ptr, std::size_t requested,
                      std::size_t rounded, std::uint32_t cls,
                      const std::uintptr_t* frames, int depth,
                      std::uint64_t now);

    /**
     * Pairs a free: if @p ptr is a sampled live object, decrements its
     * site's live gauges and records its lifetime, calling @p now_fn
     * for the timestamp only on a hit (so unsampled frees — the
     * common case — never read the clock).  Returns whether it hit.
     */
    template <typename NowFn>
    bool
    on_free(const void* ptr, NowFn&& now_fn)
    {
        LiveSlot* slot = live_claim(ptr);
        if (slot == nullptr) [[likely]]
            return false;
        finish_free(slot, now_fn());
        return true;
    }

    /** Mean bytes between samples this profiler was armed with. */
    std::size_t sample_rate() const { return rate_; }

    /** @see ProfilerTotals */
    ProfilerTotals totals() const;

    /** Sampled per-class accumulators; index num_classes() is huge. */
    ClassProfile class_profile(std::uint32_t cls) const;
    std::uint32_t num_classes() const { return num_classes_; }

    /**
     * Serializes the pprof `profile.proto` wire format (uncompressed;
     * `pprof` and `go tool pprof` accept it directly).  Four sample
     * values per site — alloc_objects, alloc_space, inuse_objects,
     * inuse_space — scaled by the per-site Poisson weight
     * 1/(1 - e^(-m/rate)) with m the site's mean sampled size (an
     * approximation of summing per-object weights; exact when
     * rate == 1).  Frames are symbolized best-effort via dladdr.
     */
    void write_pprof_profile(std::ostream& os) const;

    /**
     * Human-readable end-of-run report: sites with live sampled bytes,
     * largest first, symbolized best-effort.  @p max_sites bounds the
     * listing.  Returns the number of leaking sites.
     */
    std::size_t write_leak_report(std::ostream& os,
                                  std::size_t max_sites = 32) const;

    /**
     * Prometheus-format fragmentation telemetry: totals plus per-class
     * sampled requested-vs-rounded bytes (internal fragmentation) and
     * live attribution.  Appended after obs::write_prometheus by the
     * tools so both land in one scrape.
     */
    void write_prometheus(std::ostream& os) const;

    /** Timestamps of the last few samples of site @p site_index
        (newest unspecified order); for lifetime/burst inspection. */
    static constexpr int kTimestampRing = 8;

    /**
     * Visits every populated site: fn(frames, depth, cumulative
     * objects/requested/rounded, live objects/requested/rounded,
     * lifetime_sum, lifetime_count).  Test/export hook; counters are
     * relaxed reads.
     */
    template <typename Fn>
    void
    for_each_site(Fn&& fn) const
    {
        for (std::size_t i = 0; i < site_slots_; ++i) {
            const Site& s = sites_[i];
            if (s.hash.load(std::memory_order_relaxed) == 0)
                continue;
            if (!s.ready.load(std::memory_order_acquire))
                continue;  // claimed a moment ago; frames not out yet
            fn(frames_store_ + i * static_cast<std::size_t>(max_frames_),
               s.depth,
               s.cum_objects.load(std::memory_order_relaxed),
               s.cum_requested.load(std::memory_order_relaxed),
               s.cum_rounded.load(std::memory_order_relaxed),
               s.live_objects.load(std::memory_order_relaxed),
               s.live_requested.load(std::memory_order_relaxed),
               s.live_rounded.load(std::memory_order_relaxed),
               s.lifetime_sum.load(std::memory_order_relaxed),
               s.lifetime_count.load(std::memory_order_relaxed));
        }
    }

  private:
    struct alignas(64) ThreadState
    {
        std::atomic<std::int64_t> countdown{0};
        std::atomic<std::uint64_t> rng{0};
    };

    struct Site
    {
        std::atomic<std::uint64_t> hash{0};  ///< 0 = empty; CAS-claimed
        std::atomic<bool> ready{false};      ///< frames published
        int depth = 0;                       ///< valid once ready

        std::atomic<std::uint64_t> cum_objects{0};
        std::atomic<std::uint64_t> cum_requested{0};
        std::atomic<std::uint64_t> cum_rounded{0};
        std::atomic<std::uint64_t> live_objects{0};
        std::atomic<std::uint64_t> live_requested{0};
        std::atomic<std::uint64_t> live_rounded{0};
        std::atomic<std::uint64_t> lifetime_sum{0};
        std::atomic<std::uint64_t> lifetime_count{0};

        /** Overwrite ring of recent sample timestamps. */
        std::atomic<std::uint64_t> ts_ring[kTimestampRing];
        std::atomic<std::uint32_t> ts_pos{0};
    };

    /**
     * One live-map entry.  The key owns the protocol: 0 = empty,
     * kBusy = claimed (values being read or written exclusively),
     * anything else = a live sampled pointer.  Values are relaxed
     * atomics only so that a quiescence-time export scan is race-free
     * by construction; the claim CASes carry the real ordering.
     */
    struct LiveSlot
    {
        std::atomic<std::uintptr_t> key{0};
        std::atomic<std::uint32_t> site{0};
        std::atomic<std::uint32_t> cls{0};
        std::atomic<std::uint64_t> requested{0};
        std::atomic<std::uint64_t> rounded{0};
        std::atomic<std::uint64_t> alloc_ts{0};
    };

    static constexpr std::uintptr_t kBusy = 1;  ///< never a valid block

    struct ClassAccum
    {
        std::atomic<std::uint64_t> objects{0};
        std::atomic<std::uint64_t> requested{0};
        std::atomic<std::uint64_t> rounded{0};
    };

    /** Draws the next exponential threshold for @p t (>= 1). */
    std::int64_t next_threshold(ThreadState& t);

    /** Finds or claims the site slot for @p hash; -1 if table full. */
    std::ptrdiff_t site_find_or_claim(std::uint64_t hash,
                                      const std::uintptr_t* frames,
                                      int depth);

    /** Claims @p ptr's live slot (key -> kBusy); null on miss. */
    LiveSlot* live_claim(const void* ptr);

    /** Completes a paired free on an exclusively held slot. */
    void finish_free(LiveSlot* slot, std::uint64_t now);

    const std::size_t rate_;
    const std::size_t site_slots_;   ///< power of two
    const std::size_t live_slots_;   ///< power of two, >= 8
    const int max_frames_;
    const std::uint32_t num_classes_;

    ThreadState* threads_ = nullptr;      ///< [kThreadSlots]
    Site* sites_ = nullptr;               ///< [site_slots_]
    std::uintptr_t* frames_store_ = nullptr;  ///< [site_slots_ * max_frames_]
    LiveSlot* live_ = nullptr;            ///< [live_slots_]
    ClassAccum* classes_ = nullptr;       ///< [num_classes_ + 1], last = huge

    std::atomic<std::uint64_t> sampled_objects_{0};
    std::atomic<std::uint64_t> sampled_requested_{0};
    std::atomic<std::uint64_t> sampled_rounded_{0};
    std::atomic<std::uint64_t> live_objects_{0};
    std::atomic<std::uint64_t> live_requested_{0};
    std::atomic<std::uint64_t> live_rounded_{0};
    std::atomic<std::uint64_t> frees_paired_{0};
    std::atomic<std::uint64_t> site_count_{0};
    std::atomic<std::uint64_t> site_drops_{0};
    std::atomic<std::uint64_t> live_drops_{0};
    std::atomic<std::uint64_t> live_drop_bytes_{0};
};

}  // namespace obs
}  // namespace hoard

#endif  // HOARD_OBS_HEAP_PROFILER_H_
