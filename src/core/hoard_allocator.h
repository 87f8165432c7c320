/**
 * @file
 * The Hoard allocator (paper §3, Figures 2-3).
 *
 * Structure: P per-processor heaps plus one global heap (heap 0).  A
 * thread allocates from heap `1 + (tid mod P)`.  Each heap tracks the
 * bytes it holds (a_i) and the bytes in use by the program (u_i) and
 * maintains the emptiness invariant
 *
 *     u_i >= a_i - K*S   or   u_i >= (1 - f) * a_i
 *
 * by transferring a superblock that is at least f empty to the global
 * heap whenever a free leaves both conditions violated.  That invariant
 * is the paper's central device: it bounds blowup to O(1) and makes the
 * expected synchronization per operation constant.
 *
 * The global heap itself is *sharded* (the scalloc direction — global
 * structures must scale too, PAPERS.md): one Heap per size class, over
 * that class only, each with its own lock and an occupancy count so
 * fetchers skip empty classes without locking; a lock-free Treiber
 * cache (superblock_cache.h), keyed by size class, is the one home of
 * every completely-empty superblock, so shards hold partials only;
 * transfers and fetches move superblocks in batches (kGlobalFetchBatch)
 * so one lock round trip lands or pulls several; and the huge-object
 * list is striped across kHugeStripes locks.  Together heap 0 is a
 * logical construct — u_0 / a_0 are sums over the shards plus the
 * cache — and no single mutex serializes the slow path.
 *
 * The class is templated on an execution policy (NativePolicy /
 * SimPolicy) so the identical algorithm runs under real threads and on
 * the virtual-time multiprocessor that regenerates the paper's figures.
 *
 * Fast path (extension over the paper, see docs/ARCHITECTURE.md): with
 * Config::thread_cache_blocks > 0 each logical thread keeps per-class
 * *magazines* of free blocks (magazine.h), each bounded in blocks and
 * in bytes (detail::magazine_limits).  malloc/free on a warm magazine
 * is lock-free and touches no shared statistics; magazines refill and
 * spill in batches (Config::thread_cache_batch, capped per class)
 * under a single heap-lock acquisition, and the cached-bytes gauge is
 * synced once per batch.  Each heap additionally owns a lock-free MPSC
 * remote-free queue: a free whose owning heap's lock is busy is pushed
 * there instead of blocking, and the owner settles the whole chain
 * with one exchange the next time it holds its lock.
 *
 * Statistics discipline: the per-operation counts (allocs, frees,
 * requested and in-use bytes) live in shards — one per heap (global
 * shards included), written under its lock, and one per magazine node,
 * written by its thread — so no small-object path writes a cache line
 * every thread shares.  Readers fold the shards on demand
 * (fold_stats).  Rare events (huge objects, remote pushes, superblock
 * traffic) stay on the shared stats_ block.
 */

#ifndef HOARD_CORE_HOARD_ALLOCATOR_H_
#define HOARD_CORE_HOARD_ALLOCATOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "common/failure.h"
#include "common/mathutil.h"
#include "common/memutil.h"
#include "common/stats.h"
#include "core/allocator.h"
#include "core/config.h"
#include "core/heap.h"
#include "core/magazine.h"
#include "core/size_classes.h"
#include "core/superblock.h"
#include "core/superblock_cache.h"
#include "obs/event_ring.h"
#include "obs/heap_profiler.h"
#include "obs/latency.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "os/page_provider.h"
#include "policy/cost_kind.h"

namespace hoard {
namespace detail {

/**
 * Process-unique id stamped into every superblock an allocator
 * instance formats, so the hardened free path can tell "this span
 * belongs to a *different* HoardAllocator" apart from "this span is
 * not a superblock at all".  Shared across policy instantiations (one
 * counter for the process, not one per template), starting at 1 so the
 * default Superblock arena 0 never matches a hardened allocator.
 */
inline std::uint32_t
next_arena_id()
{
    static std::atomic<std::uint32_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

/** Hoard allocator, parameterized by execution policy. */
template <typename Policy>
class HoardAllocator final : public Allocator
{
  public:
    using Heap = hoard::Heap<Policy>;

    /** Lock stripes for the huge-object list. Power of two. */
    static constexpr std::size_t kHugeStripes = 8;

    /**
     * Superblocks a cold per-processor heap may pull from its size
     * class's global shard in one fetch.  A heap that misses locally
     * is usually about to miss again, so batching amortizes the shard
     * lock over several superblocks; the emptiness-invariant allowance
     * widens to match (HeapSnapshot::emptiness_ok).  Only a non-empty
     * shard is batched from, and shards hold partials only, which the
     * default release_threshold = 1 never transfers.
     */
    static constexpr std::size_t kGlobalFetchBatch = 4;

    explicit HoardAllocator(
        const Config& config = Config(),
        os::PageProvider& provider = os::default_page_provider())
        : config_(validated(config)),
          provider_(provider),
          classes_(config_,
                   Superblock::payload_bytes_for(config_.superblock_bytes)),
          reuse_cache_(config_.superblock_bytes,
                       static_cast<std::size_t>(classes_.count()))
    {
        homes_.reserve(
            static_cast<std::size_t>(config_.heap_count + classes_.count()));
        for (int i = 1; i <= config_.heap_count; ++i)
            homes_.push_back(std::make_unique<Heap>(i, 0, classes_.count()));
        for (int cls = 0; cls < classes_.count(); ++cls)
            homes_.push_back(std::make_unique<Heap>(0, cls, 1));
        if (config_.thread_cache_blocks > 0 &&
            Policy::set_thread_exit_hook(&detail::magazine_thread_exit)) {
            const std::uint32_t batch =
                config_.thread_cache_batch != 0
                    ? config_.thread_cache_batch
                    : std::max(1u, config_.thread_cache_blocks / 2);
            mag_limits_.reserve(static_cast<std::size_t>(classes_.count()));
            for (int cls = 0; cls < classes_.count(); ++cls)
                mag_limits_.push_back(detail::magazine_limits(
                    config_.thread_cache_blocks, batch,
                    classes_.block_size(cls)));
            magazine_id_ = detail::magazine_register_allocator();
        }
        if (config_.observability) {
            recorder_ = std::make_unique<obs::EventRecorder>(
                config_.obs_ring_events);
            hooks_ |= kTrace;
            for (auto& home : homes_)
                home->mutex.set_profiled(true);
            if (config_.obs_sample_interval > 0) {
                sampler_ = std::make_unique<obs::TimeSeriesSampler>(
                    config_.obs_sample_slots,
                    static_cast<std::size_t>(config_.heap_count) + 1,
                    config_.obs_sample_interval);
                hooks_ |= kSample | kTick;
            }
        }
        // The latency histograms and the profiler gate independently
        // of observability: a production process can time its ops or
        // attribute its heap without paying for event tracing.
        if (config_.latency_histograms) {
            latency_ = std::make_unique<obs::LatencyCollector>(
                config_.latency_sample_period,
                config_.latency_outlier_cycles);
            // Exact mode times every op, so it needs no tick.
            hooks_ |= kLatency | (latency_->sample_period() == 1
                                      ? kTimed
                                      : kTick);
        }
        if (config_.profile_sample_rate > 0) {
            profiler_ = std::make_unique<obs::HeapProfiler>(
                config_.profile_sample_rate, config_.profile_site_slots,
                config_.profile_live_slots, config_.profile_max_frames,
                static_cast<std::uint32_t>(classes_.count()));
            hooks_ |= kProfile;
        }
        if (config_.purge_age_ticks != 0 || config_.rss_target_bytes != 0)
            hooks_ |= kPurge | kTick;
    }

    ~HoardAllocator() override
    {
        // Unregister first: it blocks until any in-flight thread-exit
        // flush drains, and afterwards no exit hook will call back
        // into this allocator.  Surviving threads' stale nodes are
        // recycled by their own exit hooks (the dead id skips the
        // flush, and never reads the node's shard).
        detail::magazine_unregister_allocator(magazine_id_);
        release_everything();
        detail::magazine_shards_free(
            mag_shards_.load(std::memory_order_relaxed));
    }

    HoardAllocator(const HoardAllocator&) = delete;
    HoardAllocator& operator=(const HoardAllocator&) = delete;

    /// @name Allocator interface
    /// @{

    void*
    allocate(std::size_t size) override
    {
        Policy::work(CostKind::malloc_base);
        const std::uint32_t op = op_begin();
        const int cls = classes_.class_for(size);
        void* block = nullptr;
        if (cls == SizeClasses::kHuge) {
            block = allocate_huge(size, /*align=*/16, op);
        } else {
            if (detail::MagazineNode* node = my_magazines()) {
                block = magazine_pop(node, cls, op);
                if (block != nullptr)
                    count_alloc(*node->ops, size, classes_.block_size(cls));
            }
            if (block == nullptr)
                block = allocate_from_class(cls, size, op);
        }
        if ((op & kAllocTail) != 0) [[unlikely]]
            alloc_tail(op, block, size, cls);
        return block;
    }

    void
    deallocate(void* p) override
    {
        if (p == nullptr)
            return;
        Policy::work(CostKind::free_base);
        Superblock* sb;
        if (config_.hardened_free) {
            sb = resolve_for_free(p);
            if (sb == nullptr)
                return;  // rejected and reported (warn policy leaks it)
        } else {
            sb = Superblock::from_pointer(p, config_.superblock_bytes);
        }
        const std::uint32_t op = op_begin();
        // Pair a sampled free once the pointer is known good; covers
        // the huge path too.  The superblock's sampled count — on the
        // header line this path already reads — gates the live-map
        // probe, so an unsampled free touches no profiler memory.
        if ((op & kProfile) != 0 && (sb->huge() || sb->has_sampled()))
            [[unlikely]]
            profile_free_slow(sb, p);
        // Either small path counts the free on the shard that accepts
        // the block; a rejected double free counts nothing.
        if (sb->huge())
            deallocate_huge(sb, op);
        else if (detail::MagazineNode* node = my_magazines())
            magazine_push(node, sb, p, op);
        else
            free_block(sb, p, op);
        // Tail position: no locks held here, so a due sample or purge
        // pass may take heap locks without self-deadlock risk.
        if ((op & kChecks) != 0) [[unlikely]]
            run_due_checks(op);
    }

    std::size_t
    usable_size(const void* p) const override
    {
        const Superblock* sb =
            Superblock::from_pointer(p, config_.superblock_bytes);
        if (sb->huge())
            return sb->huge_user_bytes();
        // The usable span runs from the given pointer to the block end
        // (aligned allocations hand out interior pointers).
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        auto begin = reinterpret_cast<std::uintptr_t>(sb->block_start(p));
        return sb->block_bytes() - (addr - begin);
    }

    /** Folds the per-operation shards first (fold_stats), so the
        four per-op fields are current as of this call. */
    const detail::AllocatorStats&
    stats() const override
    {
        fold_stats();
        return stats_;
    }
    const char* name() const override { return "hoard"; }

    /// @}

    /**
     * Allocates @p size bytes aligned to @p align (power of two, at most
     * S/2).  Alignments up to 16 are free; larger ones may return an
     * interior pointer of a larger block, which deallocate() handles.
     */
    void*
    allocate_aligned(std::size_t size, std::size_t align)
    {
        if (!detail::is_pow2(align))
            HOARD_FATAL("alignment %zu is not a power of two", align);
        if (align > config_.superblock_bytes / 2) {
            HOARD_FATAL("alignment %zu exceeds S/2 = %zu", align,
                        config_.superblock_bytes / 2);
        }
        if (align <= 16)
            return allocate(size == 0 ? 1 : size);

        Policy::work(CostKind::malloc_base);
        const std::uint32_t op = op_begin();
        // Find a class big enough that an aligned point with `size`
        // bytes after it must exist inside the block.
        const int cls = classes_.class_for(size + align);
        void* out;
        if (cls == SizeClasses::kHuge) {
            out = allocate_huge(size, align, op);
        } else {
            out = allocate_from_class(cls, size, op);
            if (out != nullptr)
                out = reinterpret_cast<void*>(detail::align_up(
                    reinterpret_cast<std::uintptr_t>(out), align));
        }
        // Profile with the *returned* (interior) pointer: that is the
        // one the program frees, so it is the live-map key.
        if ((op & kAllocTail) != 0) [[unlikely]]
            alloc_tail(op, out, size, cls);
        return out;
    }

    const Config& config() const { return config_; }
    const SizeClasses& size_classes() const { return classes_; }
    int heap_count() const { return config_.heap_count; }

    /**
     * Best-effort memory release back to the OS: flushes the calling
     * thread's own magazines, settles every remote-free queue, then
     * unmaps every completely-empty superblock from every heap and
     * from the global heap's reuse cache.  Returns the bytes
     * unmapped.  This is the reclaim step of the OOM retry path and
     * doubles as a malloc_trim-style API for long-running servers
     * reacting to memory pressure.  Takes no lock on entry; heap locks
     * are taken one at a time, so concurrent allocation stays safe
     * (and may legitimately race fresh memory in).  Foreign threads'
     * magazines stay parked — emptying them would race their owners'
     * lock-free fast paths; use flush_thread_caches() when quiesced.
     */
    std::size_t
    release_free_memory()
    {
        if (detail::MagazineNode* node = my_magazines()) {
            std::lock_guard<typename Policy::Mutex> guard(cache_mutex_);
            flush_node_locked(node);
        }
        drain_all_remote();
        // Only per-processor heaps can hold empties: a global shard
        // retires one to the reuse cache the moment it empties.
        std::size_t released = 0;
        for (int i = 1; i <= config_.heap_count; ++i) {
            Heap& heap = heap_at(i);
            std::lock_guard<typename Heap::Mutex> guard(heap.mutex);
            for (auto& bin : heap.bins) {
                // Only band 0 can hold used == 0 superblocks.
                auto& group = bin.groups[0];
                Superblock* sb = group.front();
                while (sb != nullptr) {
                    Superblock* next = group.next(sb);
                    if (sb->empty()) {
                        heap.unlink(sb, 0);
                        heap.held -= sb->span_bytes();
                        released += release_to_provider(sb);
                    }
                    sb = next;
                }
            }
        }
        Superblock* chain = reuse_cache_.drain();
        while (chain != nullptr) {
            Superblock* next =
                chain->cache_next.load(std::memory_order_relaxed);
            released += release_to_provider(chain);
            chain = next;
        }
        return released;
    }

    /**
     * Purge pass: decommits the payload pages of idle completely-empty
     * superblocks (the reuse cache, their one home in the global heap)
     * via the provider's purge(), keeping each span
     * mapped and its header formatted for O(1) revival.  Milder than
     * release_free_memory() — nothing is unmapped, the next same-class
     * fetch costs one unpurge() gauge move instead of a map syscall.
     * Eligibility: @p force takes everything; otherwise a superblock
     * must have sat idle for Config::purge_age_ticks, or
     * committed_bytes must still exceed Config::rss_target_bytes
     * (re-read per superblock, so targeting stops at the line).
     * Serialized by purge_mutex_; safe against concurrent allocation
     * (cache entries are detached while marked).  Returns the bytes
     * decommitted.
     */
    std::size_t
    purge(bool force = false)
    {
        std::lock_guard<typename Policy::Mutex> guard(purge_mutex_);
        const std::uint64_t now = force ? 0 : Policy::timestamp();
        auto eligible = [&](Superblock* sb) {
            if (sb->purged())
                return false;
            if (force)
                return true;
            if (config_.purge_age_ticks != 0 &&
                now >= sb->retire_tick() + config_.purge_age_ticks)
                return true;
            return config_.rss_target_bytes != 0 &&
                   stats_.committed_bytes.current() >
                       config_.rss_target_bytes;
        };
        std::size_t released = 0;
        // Detach the whole reuse cache (so no popper can adopt a
        // half-purged span), purge the eligible, push all back.
        // Pushing re-publishes purged spans; the fetch path revives
        // them before first use.
        Superblock* chain = reuse_cache_.drain();
        while (chain != nullptr) {
            Superblock* next =
                chain->cache_next.load(std::memory_order_relaxed);
            if (eligible(chain))
                released += purge_superblock(chain);
            reuse_cache_.push(chain);
            chain = next;
        }
        stats_.purge_passes.add();
        return released;
    }

    /**
     * Drains every thread's magazines back to the owning heaps and
     * settles every remote-free queue (no-op when thread caching is
     * disabled and no remote frees are pending).  Call when quiescing
     * — e.g. before reading footprint gauges or asserting leak-freedom
     * in tests.  Must not race the owning threads' fast paths: a
     * magazine is lock-free for its owner, so emptying a node under
     * cache_mutex_ is only safe once that owner has stopped mutating
     * (joined, or provably idle).
     */
    void
    flush_thread_caches()
    {
        if (magazine_id_ != 0) {
            std::lock_guard<typename Policy::Mutex> guard(cache_mutex_);
            for (detail::MagazineNode* node = cache_nodes_;
                 node != nullptr; node = node->next_in_set)
                flush_node_locked(node);
        }
        // The flush itself can remote-push (a busy owner lock); settle
        // the queues after the magazines so nothing stays in flight.
        drain_all_remote();
    }

    /// @name Introspection for tests and tables.
    /// @{

    /**
     * Writes a human-readable report of every heap: u_i/a_i, the
     * superblock population per size class with its fullness-group
     * histogram, the global empty cache, and thread-cache occupancy.
     * Takes each heap's lock briefly; intended for quiesced moments or
     * operator diagnostics, not hot paths.
     */
    void
    dump(std::ostream& os)
    {
        os << "HoardAllocator S=" << config_.superblock_bytes
           << " f=" << config_.empty_fraction
           << " K=" << config_.slack_superblocks
           << " t=" << config_.release_threshold
           << " P=" << config_.heap_count << "\n";
        os << "  heap 0 (global): in-use " << heap_in_use(0) << " held "
           << heap_held(0) << " empty-cached " << reuse_cache_.size()
           << "\n";
        for (auto& home : homes_) {
            if (home->index == 0) {
                std::lock_guard<typename Heap::Mutex> guard(home->mutex);
                dump_classes(os, *home);
            }
        }
        for (int i = 1; i <= config_.heap_count; ++i) {
            Heap& heap = heap_at(i);
            std::lock_guard<typename Heap::Mutex> guard(heap.mutex);
            os << "  heap " << heap.index << ": in-use " << heap.in_use
               << " held " << heap.held << "\n";
            dump_classes(os, heap);
        }
        if (magazine_id_ != 0) {
            std::size_t cached_blocks = 0;
            std::size_t cached_bytes = 0;
            {
                std::lock_guard<typename Policy::Mutex> guard(
                    cache_mutex_);
                for (detail::MagazineNode* node = cache_nodes_;
                     node != nullptr; node = node->next_in_set) {
                    for (std::uint32_t c = 0; c < node->num_classes;
                         ++c)
                        cached_blocks += node->mags[c].count;
                    cached_bytes += node->occupancy_bytes.load(
                        std::memory_order_relaxed);
                }
            }
            os << "  thread caches: " << cached_blocks << " block(s), "
               << cached_bytes << " B\n";
        }
        os.flush();
    }

    /** u_i of heap @p i (0 = global: summed over its shards). */
    std::size_t
    heap_in_use(int i)
    {
        std::size_t sum = 0;
        for (auto& home : homes_) {
            if (home->index == i) {
                std::lock_guard<typename Heap::Mutex> guard(home->mutex);
                sum += home->in_use;
            }
        }
        return sum;
    }

    /** a_i of heap @p i (0 = global: its shards plus the reuse cache). */
    std::size_t
    heap_held(int i)
    {
        std::size_t sum =
            i == 0 ? reuse_cache_.size() * config_.superblock_bytes : 0;
        for (auto& home : homes_) {
            if (home->index == i) {
                std::lock_guard<typename Heap::Mutex> guard(home->mutex);
                sum += home->held;
            }
        }
        return sum;
    }

    /** Heap index the calling thread allocates from. */
    int
    my_heap_index() const
    {
        return 1 + Policy::thread_index() % config_.heap_count;
    }

    /**
     * Walks every heap verifying counter consistency and the emptiness
     * invariant (allowing the one-superblock transient and per-header
     * slack discussed in DESIGN.md).  Aborts on violation; returns true
     * so it can sit inside EXPECT_TRUE.
     */
    bool
    check_invariants()
    {
        // Settle pending remote frees first: they have left the in_use
        // gauge but not yet the owning heap's u_i, and the emptiness
        // invariant is only enforced when the owner visits its lock.
        drain_all_remote();
        for (auto& home : homes_)
            check_heap(*home);
        return true;
    }

    /**
     * Structured snapshot of every heap: u_i/a_i, superblock population
     * per size class and fullness group, lock-contention profiles, the
     * huge list, and a copy of the global counters.  Available whether
     * or not event tracing is enabled.  Takes each heap's lock briefly
     * (one at a time, so concurrent allocation stays safe); exact
     * reconciliation against the gauges needs a quiesced allocator.
     * Under SimPolicy this must run inside a simulated thread, like any
     * other lock-taking introspection.
     */
    obs::AllocatorSnapshot
    take_snapshot()
    {
        // Phase 1: allocate every byte the snapshot will ever need.
        // In whole-process deployments (global_new.h) these
        // allocations come back through this very allocator, so they
        // must land (a) outside any heap lock — allocating under one
        // self-deadlocks — and (b) *before* the gauges are copied:
        // an allocation between the gauge copy and the heap walk is
        // seen by one side but not the other and breaks exact
        // reconciliation.
        obs::AllocatorSnapshot snap;
        snap.allocator_name = name();
        snap.superblock_bytes = config_.superblock_bytes;
        snap.empty_fraction = config_.empty_fraction;
        snap.release_threshold = config_.release_threshold;
        snap.slack_superblocks = config_.slack_superblocks;
        snap.heap_count = config_.heap_count;
        snap.global_fetch_batch = kGlobalFetchBatch;
        // heaps[0] is the global heap (its per-class shards plus the
        // reuse cache); heaps[i], i >= 1, per-processor heap i.
        snap.heaps.resize(static_cast<std::size_t>(config_.heap_count) + 1);
        for (obs::HeapSnapshot& hs : snap.heaps) {
            hs.classes.resize(
                static_cast<std::size_t>(classes_.count()));
            for (std::size_t cls = 0; cls < hs.classes.size(); ++cls) {
                hs.classes[cls].size_class = static_cast<int>(cls);
                hs.classes[cls].block_bytes =
                    static_cast<std::uint32_t>(
                        classes_.block_size(static_cast<int>(cls)));
                hs.classes[cls].group_counts.assign(
                    Superblock::kGroupCount, 0);
            }
        }

        // Phase 2a: settle the remote-free queues (drain-and-
        // attribute).  Those frees already left the in_use gauge at
        // deallocate() time but not yet the owning heap's u_i;
        // draining before the gauge copy is what keeps quiesced
        // reconciliation byte-exact with remote queues in play.
        snap.remote_drained_blocks = drain_all_remote();

        // Phase 2b: thread-cache occupancy, summed from the magazine
        // nodes themselves.  The global cached-bytes gauge is synced
        // only at batch boundaries and may lag by a partial batch; the
        // per-node occupancy is exact whenever the owners are idle.
        if (magazine_id_ != 0) {
            std::lock_guard<typename Policy::Mutex> guard(cache_mutex_);
            for (detail::MagazineNode* node = cache_nodes_;
                 node != nullptr; node = node->next_in_set)
                snap.cached_bytes += node->occupancy_bytes.load(
                    std::memory_order_relaxed);
        }

        // Phase 2c: copy the gauges, then walk — allocation-free.
        fold_stats();
        snap.stats.allocs = stats_.allocs.get();
        snap.stats.frees = stats_.frees.get();
        snap.stats.in_use_bytes = stats_.in_use_bytes.current();
        snap.stats.held_bytes = stats_.held_bytes.current();
        snap.stats.committed_bytes = stats_.committed_bytes.current();
        snap.stats.purged_bytes = stats_.purged_bytes.current();
        snap.stats.reserved_bytes = provider_.reserved_bytes();
        snap.stats.cached_bytes = stats_.cached_bytes.current();
        snap.stats.superblock_allocs = stats_.superblock_allocs.get();
        snap.stats.superblock_transfers =
            stats_.superblock_transfers.get();
        snap.stats.global_fetches = stats_.global_fetches.get();
        snap.stats.huge_allocs = stats_.huge_allocs.get();
        snap.stats.oom_reclaims = stats_.oom_reclaims.get();
        snap.stats.oom_failures = stats_.oom_failures.get();
        snap.stats.remote_frees = stats_.remote_frees.get();
        snap.stats.remote_drains = stats_.remote_drains.get();
        snap.stats.batch_refills = stats_.batch_refills.get();
        snap.stats.batch_flushes = stats_.batch_flushes.get();
        snap.stats.global_bin_hits = stats_.global_bin_hits.get();
        snap.stats.global_bin_misses = stats_.global_bin_misses.get();
        snap.stats.cache_pushes = stats_.cache_pushes.get();
        snap.stats.cache_pops = stats_.cache_pops.get();
        snap.stats.purge_passes = stats_.purge_passes.get();
        snap.stats.purged_superblocks = stats_.purged_superblocks.get();
        snap.stats.revived_superblocks =
            stats_.revived_superblocks.get();
        snap.stats.bad_free_wild = stats_.bad_free_wild.get();
        snap.stats.bad_free_foreign = stats_.bad_free_foreign.get();
        snap.stats.bad_free_interior = stats_.bad_free_interior.get();
        snap.stats.bad_free_double = stats_.bad_free_double.get();
        // Merged per-path latency histograms: fixed arrays, so no
        // allocation here either; exact at quiescence like the
        // counters above.
        if ((hooks_ & kLatency) != 0) {
            snap.latency = latency_->snapshot();
            snap.latency_armed = true;
        }
        for (auto& home : homes_)
            add_to_snapshot(*home,
                            snap.heaps[static_cast<std::size_t>(home->index)]);
        snap.heaps[0].empty_cached = reuse_cache_.size();
        snap.heaps[0].held +=
            snap.heaps[0].empty_cached * config_.superblock_bytes;
        for (auto& stripe : huge_stripes_) {
            std::lock_guard<typename Policy::Mutex> guard(stripe.mutex);
            for (Superblock* sb = stripe.list.front(); sb != nullptr;
                 sb = stripe.list.next(sb)) {
                ++snap.huge_count;
                snap.huge_user_bytes += sb->huge_user_bytes();
                snap.huge_span_bytes += sb->span_bytes();
            }
        }

        // Phase 3: prune empty classes.  erase() only moves and
        // destroys — still no allocation.
        for (obs::HeapSnapshot& hs : snap.heaps) {
            hs.classes.erase(
                std::remove_if(hs.classes.begin(), hs.classes.end(),
                               [](const obs::ClassSnapshot& cs) {
                                   return cs.superblocks == 0;
                               }),
                hs.classes.end());
            hs.active_classes =
                static_cast<std::uint32_t>(hs.classes.size());
        }
        return snap;
    }

    /**
     * The event recorder, or nullptr when tracing is off
     * (Config::observability unset).
     */
    const obs::EventRecorder* recorder() const { return recorder_.get(); }

    /** The page substrate this instance maps through. */
    const os::PageProvider& provider() const { return provider_; }

    /** True when event tracing and lock profiling are active. */
    bool observability_enabled() const { return (hooks_ & kTrace) != 0; }

    /**
     * The time-series sampler, or nullptr when sampling is off
     * (observability disabled or obs_sample_interval == 0).
     */
    const obs::TimeSeriesSampler* sampler() const
    {
        return sampler_.get();
    }

    /**
     * Forces one sample at the current policy time, ignoring the
     * cadence.  For end-of-run timeline flushes and
     * gauge-reconciliation tests; must not be called with any heap
     * lock held.  Returns false only when sampling is off.  Under
     * SimPolicy this must run inside a simulated thread, like
     * take_snapshot(); a fresh checker machine's clock restarts at
     * zero, so the sample is stamped no earlier than the last
     * in-run sample (claim_flush clamps forward).
     */
    bool
    sample_now()
    {
        if ((hooks_ & kSample) == 0)
            return false;
        take_sample(sampler_->claim_flush(Policy::timestamp()));
        return true;
    }

    /// @}

    /// @name Fork support (pthread_atfork; see docs/SHIM.md).
    /// @{

    /**
     * Acquires every lock this allocator owns, in a fixed total order
     * (cache mutex, then the purge mutex, then per-processor heaps by
     * index, then global shards by class, then huge stripes by slot),
     * so fork() snapshots no lock in a half-held state and no heap
     * structure mid-mutation.  The magazine registry's own lock is taken by
     * the caller (hoard_install_atfork) *before* this, since flushes
     * can hold it while waiting on heap locks.  MmapPageProvider and
     * the reuse cache are lock-free and need no quiescing here.
     */
    void
    prepare_fork()
    {
        cache_mutex_.lock();
        purge_mutex_.lock();
        for (auto& home : homes_)
            home->mutex.lock();
        for (auto& stripe : huge_stripes_)
            stripe.mutex.lock();
    }

    /** Releases every lock prepare_fork() took, in reverse order. */
    void
    parent_after_fork()
    {
        release_fork_locks();
    }

    /**
     * Child-side recovery: the forking thread (the only one alive)
     * still owns every lock prepare_fork() took, so release them,
     * then repair the pieces of state fork() can tear:
     *
     *  - the reuse cache's popper count may include parent threads
     *    that no longer exist; a nonzero count would make the next
     *    release_to_provider() spin in await_poppers() forever;
     *  - some books are updated *outside* the heap locks — the
     *    footprint gauges, and the in-use counts of the magazine and
     *    shared stats shards — so a parent thread caught between its
     *    heap update and its count leaves them torn.  Per-heap
     *    counters cannot tear — every mutation happens under a lock
     *    the prepare handler held across the fork — so the books are
     *    recounted from them.
     *
     * Dead parent threads' magazines are flushed back to the heaps
     * (their owners cannot race: they do not exist in the child), so
     * their blocks are reusable immediately; the node metadata itself
     * stays on the set list and is reused if a same-index thread
     * re-registers, else idles at a few hundred bytes per dead thread.
     */
    void
    child_after_fork()
    {
        release_fork_locks();
        reuse_cache_.reset_poppers();
        // A dead parent thread may have held the sampler's append
        // ordering lock at the fork instant.
        if ((hooks_ & kSample) != 0)
            sampler_->child_after_fork();
        flush_thread_caches();
        repair_after_fork();
    }

    /// @}

    /**
     * The sampling heap profiler, or null when disabled
     * (profile_sample_rate == 0).
     * Lock-free throughout, so it is safe to export from any thread at
     * any time; counters are exact only at quiescence.
     */
    const obs::HeapProfiler* profiler() const { return profiler_.get(); }

    /**
     * The latency collector, or null when disarmed
     * (Config::latency_histograms off).  Lock-free throughout;
     * snapshots are exact at quiescence.
     */
    const obs::LatencyCollector* latency() const { return latency_.get(); }

  private:
    static const Config&
    validated(const Config& config)
    {
        config.validate();
        return config;
    }

    /// @name The hook word (hooks_) and the per-op hook tail.
    ///
    /// Every per-op hook — tracing, latency timing, the heap profiler,
    /// the time-series sampler, the purge cadence — is armed by one bit
    /// of hooks_, set by the constructor and never written again.
    /// allocate, allocate_aligned and deallocate read the word once, in
    /// op_begin(), and every hook decision of that op tests the copy it
    /// returns; slow paths off the op test hooks_ itself.  With nothing
    /// armed, an op's hook residue is tests of that one register.
    /// @{

    /** Hook bits armed in hooks_ by the constructor. */
    static constexpr std::uint32_t kTrace = 1u << 0;    ///< event rings
    static constexpr std::uint32_t kLatency = 1u << 1;  ///< histograms
    static constexpr std::uint32_t kProfile = 1u << 2;  ///< heap profiler
    static constexpr std::uint32_t kSample = 1u << 3;   ///< timeline
    static constexpr std::uint32_t kPurge = 1u << 4;    ///< purge cadence
    /** An armed hook runs on the per-thread op tick (Policy::op_tick):
        the sampler, the purge cadence, and latency at a sample period
        above 1. */
    static constexpr std::uint32_t kTick = 1u << 5;
    /** Latency times this op: set by the tick on one op in the sample
        period, and in hooks_ itself at period 1 (exact mode). */
    static constexpr std::uint32_t kTimed = 1u << 6;
    /** The tick expired with the sampler or purge cadence armed: the
        op runs their due checks at its lock-free tail.  Op copy only. */
    static constexpr std::uint32_t kChecks = 1u << 7;
    /** The bits that send an allocation through alloc_tail(). */
    static constexpr std::uint32_t kAllocTail = kProfile | kChecks;

    /** The op's copy of the hook word: the one read of hooks_ an
        allocation or free makes, plus the tick's verdict when a hook
        that rides on the tick is armed. */
    std::uint32_t
    op_begin()
    {
        const std::uint32_t op = hooks_;
        if ((op & kTick) != 0 && --Policy::op_tick().countdown == 0)
            [[unlikely]]
            return op_tick_expired(op);
        return op;
    }

    /** The tick reached zero: decide whether latency times this op and
        whether the due checks run, and reload (detail::OpTick). */
    __attribute__((noinline)) std::uint32_t
    op_tick_expired(std::uint32_t op)
    {
        const std::uint32_t period =
            (op & (kLatency | kTimed)) == kLatency
                ? latency_->sample_period()
                : 0;
        const bool checks = (op & (kSample | kPurge)) != 0;
        if (Policy::op_tick().expire(period, checks))
            op |= kTimed;
        return checks ? op | kChecks : op;
    }

    /**
     * The hooks at an allocation's lock-free tail: the heap profiler's
     * byte countdown for @p block (null when the op failed), then any
     * due checks.  @p cls is the block's size class, or kHuge.  Only a
     * triggered sample pays for a backtrace and table insert; the
     * countdown charges rounded bytes so exact mode (rate 1) samples
     * every allocation — requested can legally be 0.  always_inline:
     * the countdown runs here on every armed allocation, and a call
     * frame around it costs more than the countdown.
     */
    inline __attribute__((always_inline)) void
    alloc_tail(std::uint32_t op, void* block, std::size_t size, int cls)
    {
        if ((op & kProfile) != 0 && block != nullptr) {
            // Huge accounting charges the user size to in_use, so the
            // profiler's "rounded" is the user size too — that keeps
            // the live-bytes reconciliation exact across both paths.
            const bool huge = cls == SizeClasses::kHuge;
            const std::size_t rounded =
                huge ? size : classes_.block_size(cls);
            if (profiler_->tick(Policy::thread_index(), rounded))
                [[unlikely]]
                profile_alloc_slow(
                    block, size, rounded,
                    huge ? obs::HeapProfiler::kHugeClass
                         : static_cast<std::uint32_t>(cls));
        }
        if ((op & kChecks) != 0)
            run_due_checks(op);
    }

    /**
     * The due checks of an op whose tick expired: takes a time-series
     * sample, and runs a purge pass, when one is due.  Runs at the
     * op's tail, where no locks are held — take_sample() acquires each
     * heap's lock one at a time, which would self-deadlock from inside
     * a locked region in whole-process deployments (global_new.h).
     * The purge CAS elects a single thread per interval; losers — and
     * winners — never block here beyond the pass itself.
     */
    __attribute__((noinline)) void
    run_due_checks(std::uint32_t op)
    {
        if ((op & kSample) != 0) {
            const std::uint64_t now = Policy::timestamp();
            if (sampler_->claim_due(now))
                take_sample(now);
        }
        if ((op & kPurge) != 0) {
            const std::uint64_t now = Policy::timestamp();
            std::uint64_t due =
                next_purge_tick_.load(std::memory_order_relaxed);
            if (now >= due &&
                next_purge_tick_.compare_exchange_strong(
                    due, now + config_.purge_interval_ticks,
                    std::memory_order_relaxed))
                purge();
        }
    }

    /**
     * The triggered-sample tail of alloc_tail: backtrace, table
     * insert, and the superblock's sampled-count bump that lets the
     * free path skip live-map probes.  Out of line and cold so the
     * 512-byte frame scratch and the record plumbing stay off the
     * malloc hot path — only the countdown and a predicted branch
     * remain inline.
     */
    __attribute__((noinline, cold)) void
    profile_alloc_slow(void* block, std::size_t requested,
                       std::size_t rounded, std::uint32_t cls)
    {
        std::uintptr_t frames[obs::HeapProfiler::kMaxFrames];
        const int depth = Policy::profile_backtrace(
            frames, config_.profile_max_frames);
        const bool live = profiler_->record_alloc(
            block, requested, rounded, cls, frames, depth,
            Policy::timestamp());
        // Count the live entry on its superblock (huge spans always
        // probe — rare).  Incremented before allocate() returns, so
        // any legal free of this pointer observes it.
        if (live && cls != obs::HeapProfiler::kHugeClass)
            Superblock::from_pointer(block, config_.superblock_bytes)
                ->sampled_inc();
    }

    /**
     * Free-side pairing for a superblock that holds sampled live
     * objects (or a huge span, which always probes).  Out of line and
     * cold for the same reason as profile_alloc_slow: deallocate
     * keeps only the armed-and-sampled guard inline.  The timestamp
     * lambda runs only on a live-map hit, so a miss never reads the
     * clock.
     */
    __attribute__((noinline, cold)) void
    profile_free_slow(Superblock* sb, void* p)
    {
        if (profiler_->on_free(p, [] { return Policy::timestamp(); }) &&
            !sb->huge())
            sb->sampled_dec();
    }

    /// @}

    /// @name Thread-local magazines (extension; layout in magazine.h).
    /// @{

    /**
     * The calling logical thread's magazine node for this allocator,
     * or nullptr when caching is disabled or the pool refused the
     * metadata (the caller then falls through to the locked path).
     * The fast path is one TLS-slot read and one compare: the slot
     * holds the head of the thread's node chain, kept at this
     * allocator by move-to-front — a thread touching one allocator,
     * the common case, matches on the head.
     */
    detail::MagazineNode*
    my_magazines()
    {
        if (magazine_id_ == 0)
            return nullptr;
        void*& slot = Policy::thread_cache_slot();
        auto* head = static_cast<detail::MagazineNode*>(slot);
        detail::MagazineNode* prev = nullptr;
        for (detail::MagazineNode* node = head; node != nullptr;
             prev = node, node = node->next_in_thread) {
            if (node->allocator_id != magazine_id_)
                continue;
            if (prev != nullptr) {  // move-to-front
                prev->next_in_thread = node->next_in_thread;
                node->next_in_thread = head;
                slot = node;
            }
            return node;
        }
        return register_thread_node(slot);
    }

    /** Cold path of my_magazines(): creates this thread's node for
        this allocator and links it at the head of the thread chain
        and into the allocator's set. */
    detail::MagazineNode*
    register_thread_node(void*& slot)
    {
        detail::MagazineNode* node = detail::magazine_node_new(
            static_cast<std::uint32_t>(classes_.count()));
        if (node == nullptr)
            return nullptr;
        node->ops = claim_magazine_shard();
        if (node->ops == nullptr) {
            detail::magazine_node_free(node);
            return nullptr;
        }
        for (std::uint32_t cls = 0; cls < node->num_classes; ++cls)
            node->mags[cls].cap = mag_limits_[cls].cap;
        node->allocator = this;
        node->allocator_id = magazine_id_;
        node->flush_fn = &HoardAllocator::exit_flush_node;
        node->next_in_thread = static_cast<detail::MagazineNode*>(slot);
        slot = node;
        Policy::arm_thread_exit_hook();
        {
            std::lock_guard<typename Policy::Mutex> guard(cache_mutex_);
            node->next_in_set = cache_nodes_;
            cache_nodes_ = node;
        }
        return node;
    }

    /**
     * A stats shard for a new magazine node: the first unclaimed one
     * on mag_shards_, else a fresh one from the pool pushed there.
     * Lock-free (the list is push-only), so registration costs no
     * extra lock round trip.  nullptr when the pool is out of memory;
     * the thread then runs uncached, like a failed node allocation.
     */
    detail::MagazineShard*
    claim_magazine_shard()
    {
        for (detail::MagazineShard* s =
                 mag_shards_.load(std::memory_order_acquire);
             s != nullptr; s = s->next) {
            bool free = false;
            if (!s->claimed.load(std::memory_order_relaxed) &&
                s->claimed.compare_exchange_strong(
                    free, true, std::memory_order_acquire,
                    std::memory_order_relaxed))
                return s;
        }
        detail::MagazineShard* s = detail::magazine_shard_new();
        if (s == nullptr)
            return nullptr;
        s->claimed.store(true, std::memory_order_relaxed);
        s->next = mag_shards_.load(std::memory_order_relaxed);
        while (!mag_shards_.compare_exchange_weak(
            s->next, s, std::memory_order_release,
            std::memory_order_relaxed)) {
        }
        return s;
    }

    /** node->flush_fn target: a thread's exit hook flushing its node
        back into this (registry-pinned, still live) allocator, then
        handing its stats shard to the next registering thread. */
    static void
    exit_flush_node(void* allocator, detail::MagazineNode* node)
    {
        auto* self = static_cast<HoardAllocator*>(allocator);
        std::lock_guard<typename Policy::Mutex> guard(
            self->cache_mutex_);
        self->unlink_node_locked(node);
        self->flush_node_locked(node);
        node->ops->claimed.store(false, std::memory_order_release);
    }

    /**
     * Pops a block from the calling thread's magazine: two pointer
     * moves and one relaxed occupancy update — no lock, no shared-
     * gauge write.  An empty magazine refills one batch under a single
     * heap-lock acquisition; nullptr means the OS refused memory and
     * the caller takes the reclaiming slow path.
     */
    void*
    magazine_pop(detail::MagazineNode* node, int cls, std::uint32_t op)
    {
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        if (mag.head == nullptr) [[unlikely]]
            return magazine_pop_slow(node, cls, op);
        if ((op & (kTrace | kTimed)) != 0) [[unlikely]]
            return magazine_pop_hooked(node, cls, op);
        return magazine_pop_take(node, mag, cls);
    }

    /** The magazine-hit pop tail: two pointer moves and one relaxed
        occupancy update — no lock, no shared-gauge write. */
    void*
    magazine_pop_take(detail::MagazineNode* node,
                      detail::MagazineNode::Magazine& mag, int cls)
    {
        void* block = mag.head;
        Policy::touch(block, sizeof(void*), false);
        mag.head = *static_cast<void**>(block);
        --mag.count;
        add_occupancy(node, -static_cast<std::ptrdiff_t>(
                                classes_.block_size(cls)));
        return block;
    }

    /** A magazine hit with a hook on it: the cache_hit event, and the
        same pop tail bracketed by the cycle clock when latency times
        this op.  noinline: keeping it out of line holds magazine_pop
        to its unarmed size (see refill_magazine on inlining parity). */
    __attribute__((noinline)) void*
    magazine_pop_hooked(detail::MagazineNode* node, int cls,
                        std::uint32_t op)
    {
        if ((op & kTrace) != 0) {
            record_event(obs::EventKind::cache_hit, my_heap_index(), cls,
                         classes_.block_size(cls));
        }
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        if ((op & kTimed) == 0)
            return magazine_pop_take(node, mag, cls);
        const std::uint64_t t0 = Policy::cycle_timestamp();
        void* block = magazine_pop_take(node, mag, cls);
        latency_commit(obs::LatencyPath::malloc_fast, t0);
        return block;
    }

    /** The magazine-miss path: refill one batch, then pop.  Always
        timed when armed — this is a slow-path op, and the refill tags
        the deepest stage it reached (local carve, global fetch, or
        fresh map).  nullptr means the OS refused memory; the caller
        takes the reclaiming slow path (which does its own timing), so
        nothing is recorded here for a failed op.  noinline: see
        refill_magazine. */
    __attribute__((noinline)) void*
    magazine_pop_slow(detail::MagazineNode* node, int cls,
                      std::uint32_t op)
    {
        if ((op & kTrace) != 0) {
            record_event(obs::EventKind::cache_miss, my_heap_index(),
                         cls, classes_.block_size(cls));
        }
        obs::LatencyPath stage = obs::LatencyPath::malloc_refill;
        std::uint64_t t0 = 0;
        if ((op & kLatency) != 0)
            t0 = Policy::cycle_timestamp();
        if (refill_magazine(node, cls, &stage) == 0)
            return nullptr;
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        void* block = magazine_pop_take(node, mag, cls);
        if ((op & kLatency) != 0)
            latency_commit(stage, t0);
        return block;
    }

    /**
     * Parks the (whole, free) block containing @p p in the calling
     * thread's magazine and counts the free; a full magazine first
     * spills one batch back to the owning heaps through the bulk-return
     * path.  Under hardened_free a block already heading the magazine
     * is a back-to-back double free: rejected and reported, nothing
     * counted — the same O(1) probe free_block applies to the
     * superblock free list.
     */
    void
    magazine_push(detail::MagazineNode* node, Superblock* sb, void* p,
                  std::uint32_t op)
    {
        void* block = sb->block_start(p);
        int cls = sb->size_class();
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        if (config_.hardened_free && mag.head == block) [[unlikely]] {
            report_bad_free(stats_.bad_free_double, "double", p, cls);
            return;
        }
        node->ops->count_free(sb->block_bytes());
        if (mag.count >= mag.cap) [[unlikely]] {
            magazine_push_spill(node, sb, cls, block, op);
            return;
        }
        if ((op & kTimed) != 0) [[unlikely]] {
            magazine_push_timed(node, sb, cls, block);
            return;
        }
        magazine_park(node, mag, sb, block);
    }

    /** The magazine-park tail: link the block, bump the counts. */
    void
    magazine_park(detail::MagazineNode* node,
                  detail::MagazineNode::Magazine& mag, Superblock* sb,
                  void* block)
    {
        Policy::touch(block, sizeof(void*), true);
        *static_cast<void**>(block) = mag.head;
        mag.head = block;
        ++mag.count;
        add_occupancy(node,
                      static_cast<std::ptrdiff_t>(sb->block_bytes()));
    }

    /** Moves @p node's occupancy by @p delta bytes.  Load + store, not
        a locked RMW: the caller is the node's only writer (its owner,
        or a flusher with the owner quiesced). */
    static void
    add_occupancy(detail::MagazineNode* node, std::ptrdiff_t delta)
    {
        node->occupancy_bytes.store(
            node->occupancy_bytes.load(std::memory_order_relaxed) +
                static_cast<std::size_t>(delta),
            std::memory_order_relaxed);
    }

    /** A timed magazine park (free fast path).  noinline: see
        magazine_pop_hooked. */
    __attribute__((noinline)) void
    magazine_push_timed(detail::MagazineNode* node, Superblock* sb,
                        int cls, void* block)
    {
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        const std::uint64_t t0 = Policy::cycle_timestamp();
        magazine_park(node, mag, sb, block);
        latency_commit(obs::LatencyPath::free_fast, t0);
    }

    /** A full magazine: spill one batch, then park.  Always timed
        when armed (slow-path op).  noinline: see refill_magazine. */
    __attribute__((noinline)) void
    magazine_push_spill(detail::MagazineNode* node, Superblock* sb,
                        int cls, void* block, std::uint32_t op)
    {
        std::uint64_t t0 = 0;
        if ((op & kLatency) != 0)
            t0 = Policy::cycle_timestamp();
        spill_magazine(node, cls);
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        magazine_park(node, mag, sb, block);
        if ((op & kLatency) != 0)
            latency_commit(obs::LatencyPath::free_spill, t0);
    }

    /**
     * Refills @p node's magazine of @p cls with one batch carved under
     * a single acquisition of the caller's heap lock — N blocks per
     * lock round trip instead of one.  Pending remote frees are
     * settled first (the owner is visiting its lock anyway, so the
     * drain costs no extra acquisition); the emptiness invariant is
     * enforced after the carve if the drain moved anything.  Only an
     * empty-handed refill fetches from the global heap or maps: a
     * batch that runs out of local superblocks comes back short, since
     * a superblock pulled in just to top it up would sit mostly unused
     * in this heap's class — on a producer-consumer pipeline that
     * drift cost ~5% peak RSS.  Returns the number of blocks parked;
     * 0 means the OS refused memory.
     *
     * noinline: once-per-batch, and keeping it (and spill_magazine /
     * free_block) out of line holds magazine_pop/push to their
     * two-pointer-move size in every policy instantiation — otherwise
     * instrumentation growth tips GCC's inlining budget differently
     * per variant and the overhead gate compares unlike hot paths.
     *
     * @p stage is raised to the deepest stage the refill reached
     * (global fetch, fresh map) for latency attribution; may be null.
     */
    __attribute__((noinline)) std::uint32_t
    refill_magazine(detail::MagazineNode* node, int cls,
                    obs::LatencyPath* stage = nullptr)
    {
        const std::size_t block_bytes = classes_.block_size(cls);
        Heap& heap = my_heap();
        heap.mutex.lock();
        std::size_t drained = drain_remote_locked(heap);
        void* chain = nullptr;
        std::uint32_t got = 0;
        const std::uint32_t batch =
            mag_limits_[static_cast<std::size_t>(cls)].batch;
        while (got < batch) {
            int probes = 0;
            Superblock* sb = heap.find_allocatable(cls, &probes);
            for (int i = 0; i < probes; ++i)
                Policy::work(CostKind::list_op);
            if (sb == nullptr) {
                // Have blocks: a short batch beats pulling a whole
                // superblock into this heap, and this class, for a
                // top-up.
                if (got > 0)
                    break;
                sb = fetch_from_global(cls, heap);
                if (sb != nullptr) {
                    if (stage != nullptr &&
                        *stage < obs::LatencyPath::malloc_global_fetch)
                        *stage = obs::LatencyPath::malloc_global_fetch;
                } else {
                    sb = fresh_superblock(cls);
                    if (sb == nullptr)
                        break;  // OS exhausted; caller reclaims
                    if (stage != nullptr)
                        *stage = obs::LatencyPath::malloc_fresh_map;
                    adopt(heap, sb);
                    record_event(obs::EventKind::class_refill,
                                 heap.index, cls, sb->span_bytes());
                }
            }
            int old_group = sb->fullness_group();
            Policy::touch(sb, sizeof(Superblock), true);
            std::uint32_t n =
                sb->allocate_batch(batch - got, &chain);
            heap.relink(sb, old_group);
            for (std::uint32_t i = 0; i < n; ++i)
                Policy::work(CostKind::list_op);
            got += n;
        }
        heap.in_use += static_cast<std::size_t>(got) * block_bytes;
        if (drained > 0)
            maybe_release_superblock(heap);
        heap.mutex.unlock();
        if (got == 0)
            return 0;
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        HOARD_DCHECK(mag.head == nullptr && mag.count == 0);
        mag.head = chain;
        mag.count = got;
        add_occupancy(node,
                      static_cast<std::ptrdiff_t>(got * block_bytes));
        sync_node_gauge(node);
        stats_.batch_refills.add();
        record_event(obs::EventKind::batch_refill, heap.index, cls,
                     static_cast<std::uint64_t>(got) * block_bytes);
        publish(*node->ops);
        return got;
    }

    /**
     * Spills one batch — the least recently freed blocks, from the
     * bottom of the LIFO — from @p node's magazine of @p cls back to
     * the owning heaps via the bulk-return path: one gauge sync and
     * one stats bump for the whole batch.  The bottom goes so that no
     * block stays parked for the thread's lifetime: a block that never
     * leaves pins its superblock, which then can never empty and be
     * reused for another class.  The cache-warm top stays.  noinline:
     * see refill_magazine.
     */
    __attribute__((noinline)) void
    spill_magazine(detail::MagazineNode* node, int cls)
    {
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        std::uint32_t n = std::min(
            mag_limits_[static_cast<std::size_t>(cls)].batch, mag.count);
        if (n == 0)
            return;
        void* chain;
        const std::uint32_t keep = mag.count - n;
        if (keep == 0) {
            chain = mag.head;
            mag.head = nullptr;
        } else {
            void* last = mag.head;  // becomes the last block kept
            for (std::uint32_t i = 1; i < keep; ++i) {
                Policy::touch(last, sizeof(void*), false);
                last = *static_cast<void**>(last);
            }
            chain = *static_cast<void**>(last);
            *static_cast<void**>(last) = nullptr;
        }
        mag.count -= n;
        add_occupancy(node, -static_cast<std::ptrdiff_t>(
                                n * classes_.block_size(cls)));
        sync_node_gauge(node);
        stats_.batch_flushes.add();
        record_event(obs::EventKind::batch_flush, my_heap_index(), cls,
                     static_cast<std::uint64_t>(n) *
                         classes_.block_size(cls));
        return_chain(chain);
        publish(*node->ops);
    }

    /**
     * Empties every magazine of @p node back to the owning heaps and
     * settles the node's share of the cached-bytes gauge.  Caller
     * holds cache_mutex_ and guarantees the node's owner is not
     * concurrently on its fast path (exit hook, quiesced flush, or
     * the owner itself).
     */
    void
    flush_node_locked(detail::MagazineNode* node)
    {
        void* chain = nullptr;
        std::uint64_t blocks = 0;
        std::size_t bytes = 0;
        for (std::uint32_t cls = 0; cls < node->num_classes; ++cls) {
            auto& mag = node->mags[cls];
            blocks += mag.count;
            bytes += static_cast<std::size_t>(mag.count) *
                     classes_.block_size(static_cast<int>(cls));
            while (mag.head != nullptr) {
                void* block = mag.head;
                mag.head = *static_cast<void**>(block);
                *static_cast<void**>(block) = chain;
                chain = block;
            }
            mag.count = 0;
        }
        add_occupancy(node, -static_cast<std::ptrdiff_t>(bytes));
        sync_node_gauge(node);
        if (blocks != 0) {
            stats_.batch_flushes.add();
            record_event(obs::EventKind::batch_flush, 0, -1, bytes);
            return_chain(chain);
            publish(*node->ops);
        }
    }

    /** Removes @p node from this allocator's set list.  Caller holds
        cache_mutex_. */
    void
    unlink_node_locked(detail::MagazineNode* node)
    {
        for (detail::MagazineNode** p = &cache_nodes_; *p != nullptr;
             p = &(*p)->next_in_set) {
            if (*p == node) {
                *p = node->next_in_set;
                node->next_in_set = nullptr;
                return;
            }
        }
    }

    /**
     * Brings the global cached-bytes gauge in line with @p node's
     * exact occupancy — the only place the gauge is written, so batch
     * boundaries are the only fast-path writes to shared statistics.
     * Caller is the node's owner at a batch boundary, or a flusher
     * holding cache_mutex_ with the owner quiesced.
     */
    void
    sync_node_gauge(detail::MagazineNode* node)
    {
        std::size_t occ =
            node->occupancy_bytes.load(std::memory_order_relaxed);
        if (occ > node->synced_bytes)
            stats_.cached_bytes.add(occ - node->synced_bytes);
        else if (occ < node->synced_bytes)
            stats_.cached_bytes.sub(node->synced_bytes - occ);
        node->synced_bytes = occ;
    }

    /// @}

    /// @name Remote-free queues and bulk block return.
    /// @{

    /**
     * Returns a chain of free blocks (threaded through first words,
     * any mix of classes) to their owning heaps.  Consecutive blocks
     * of one heap reuse a single lock acquisition — the batched flush
     * that replaces a one-lock-per-victim spill loop.  A busy owner is
     * never waited on: the block goes to its lock-free remote queue
     * instead.  Each heap is settled (remote drain plus invariant
     * enforcement) once, as its lock is released.
     */
    void
    return_chain(void* chain)
    {
        Heap* locked = nullptr;
        while (chain != nullptr) {
            void* block = chain;
            Policy::touch(block, sizeof(void*), false);
            chain = *static_cast<void**>(block);
            Superblock* sb = Superblock::from_pointer(
                block, config_.superblock_bytes);
            for (;;) {
                Heap* owner = static_cast<Heap*>(sb->owner());
                if (owner == locked) {
                    // Stable: transfers require the lock we hold.
                    free_into_locked(*locked, sb, block);
                    Policy::work(CostKind::list_op);
                    break;
                }
                if (locked != nullptr) {
                    settle_and_unlock(*locked);
                    locked = nullptr;
                }
                if (owner->mutex.is_locked_hint()) {
                    remote_free(*owner, sb, block);
                    break;
                }
                owner->mutex.lock();
                if (static_cast<Heap*>(sb->owner()) == owner) {
                    locked = owner;
                    continue;
                }
                owner->mutex.unlock();
                continue;  // raced an ownership change; retry
            }
        }
        if (locked != nullptr)
            settle_and_unlock(*locked);
    }

    /** Lock-free handoff of a (whole, free) block to busy @p owner's
        remote queue (Treiber push; the owner settles it later). */
    void
    remote_free(Heap& owner, Superblock* sb, void* block)
    {
        Policy::touch(block, sizeof(void*), true);
        // Capture event fields before the push publishes the block:
        // the owner may drain it, empty the superblock, and retire it
        // into the reuse cache, where a concurrent fetch reformats.
        const int cls = sb->size_class();
        const std::uint32_t bytes = sb->block_bytes();
        owner.remote_push(block);
        Policy::work(CostKind::list_op);
        stats_.remote_frees.add();
        record_event(obs::EventKind::remote_free, owner.index, cls,
                     bytes);
    }

    /**
     * Settles every block pending on @p home's remote queue; the
     * caller holds the lock.  A block whose superblock changed owner
     * while queued is re-routed (lock-free) to the current owner's
     * queue.  Returns the number of blocks settled here.  A queued
     * block has left the in_use gauge but not its superblock's used
     * count, so the superblock cannot have been retired to the reuse
     * cache — the owner read never sees null.
     */
    std::size_t
    drain_remote_locked(Heap& home)
    {
        if (!home.remote_pending())
            return 0;
        // Always timed when armed (the pending probe above keeps the
        // no-work case clock-free): the owner settling its remote
        // queue is a distinct slow-path stage, nested inside whichever
        // op visited the lock.
        std::uint64_t t0 = 0;
        if ((hooks_ & kLatency) != 0)
            t0 = Policy::cycle_timestamp();
        void* chain = home.remote_drain();
        std::size_t drained = 0;
        while (chain != nullptr) {
            void* block = chain;
            Policy::touch(block, sizeof(void*), false);
            chain = *static_cast<void**>(block);
            Superblock* sb = Superblock::from_pointer(
                block, config_.superblock_bytes);
            Heap* owner = static_cast<Heap*>(sb->owner());
            if (owner != &home) {
                owner->remote_push(block);
                continue;
            }
            free_into_locked(home, sb, block);
            Policy::work(CostKind::list_op);
            ++drained;
        }
        if (drained != 0) {
            stats_.remote_drains.add(drained);
            if ((hooks_ & kLatency) != 0)
                latency_commit(obs::LatencyPath::owner_drain, t0);
        }
        return drained;
    }

    /**
     * Drains every remote queue, enforcing the emptiness invariant on
     * each per-processor heap it settles.  Per-processor heaps first,
     * the global shards last (homes_ order): on a quiesced allocator
     * the only re-routes a drain can generate point global-ward (the
     * drain's own enforcement is the only thing moving ownership,
     * heap to shard; shard-to-heap moves only happen in fetches, none
     * of which are in flight), so this order leaves every queue
     * empty.  Returns the total blocks settled.
     */
    std::uint64_t
    drain_all_remote()
    {
        std::uint64_t drained = 0;
        for (auto& home : homes_)
            drained += drain_home_remote(*home);
        return drained;
    }

    /** One home's share of drain_all_remote(); takes the lock only
        when the cheap pending probe says there is work. */
    std::uint64_t
    drain_home_remote(Heap& home)
    {
        if (!home.remote_pending())
            return 0;
        std::lock_guard<typename Heap::Mutex> guard(home.mutex);
        std::size_t n = drain_remote_locked(home);
        if (n != 0)
            maybe_release_superblock(home);
        return n;
    }

    /** Drains pending remote frees, enforces the emptiness invariant,
        and releases @p home's lock. */
    void
    settle_and_unlock(Heap& home)
    {
        drain_remote_locked(home);
        maybe_release_superblock(home);
        home.mutex.unlock();
    }

    /// @}

    /**
     * Records one trace event; costs one predicted branch when
     * tracing is off.  Safe to call with or without heap locks held
     * (the ring is lock-free).
     */
    void
    record_event(obs::EventKind kind, int heap, int size_class,
                 std::uint64_t bytes)
    {
        if ((hooks_ & kTrace) != 0) {
            recorder_->record(Policy::timestamp(),
                              Policy::thread_index(), kind, heap,
                              size_class, bytes);
        }
    }

    /// @name Latency instrumentation (obs/latency.h).
    ///
    /// Timing discipline: *slow-path* operations (magazine refill and
    /// anything deeper, spills, huge allocs/frees, owner drains) are
    /// always timed when armed — they are rare and they are where the
    /// tail lives.  *Fast-path* operations (magazine hit/park, locked
    /// local alloc/free) are timed when the op carries kTimed: one op
    /// in Config::latency_sample_period per thread, chosen by the
    /// per-thread op tick (op_begin), so the armed overhead of an
    /// untimed fast op is the tick's one decrement.  Period 1 times
    /// everything: histogram counts then reconcile exactly with the
    /// allocator's op counters (the integration tests' mode).  Every
    /// record is made at most once per operation, and only for
    /// operations the op counters count (an OOM-null allocation or a
    /// rejected bad free records nothing).
    /// @{

    /**
     * Records one timed op ending now.  Caller has checked kLatency.
     * The outlier test rides the same branch misprediction budget:
     * with the knob unset is_outlier is one always-false compare.
     */
    void
    latency_commit(obs::LatencyPath path, std::uint64_t t0)
    {
        const std::uint64_t elapsed = Policy::cycle_timestamp() - t0;
        latency_->record(Policy::thread_index(), path, elapsed);
        if (latency_->is_outlier(elapsed)) [[unlikely]]
            latency_outlier_slow(path, elapsed);
    }

    /**
     * Outlier capture: an event-ring trace record (stage in the
     * size_class field, cycles in bytes) plus a collector-ring entry
     * with a frame-pointer backtrace.  noinline+cold: never on the
     * non-outlier path's inlining budget.
     */
    __attribute__((noinline, cold)) void
    latency_outlier_slow(obs::LatencyPath path, std::uint64_t elapsed)
    {
        std::uintptr_t frames[obs::LatencyCollector::kMaxOutlierFrames];
        int n = Policy::profile_backtrace(
            frames, obs::LatencyCollector::kMaxOutlierFrames);
        latency_->record_outlier(Policy::timestamp(),
                                 Policy::thread_index(), path,
                                 elapsed, frames, n);
        record_event(obs::EventKind::latency_outlier,
                     my_heap_index(), static_cast<int>(path),
                     elapsed);
    }

    /// @}

    /**
     * Records one sample stamped @p now: global gauges and counters
     * first, then every heap's u_i/a_i under its lock (one lock at a
     * time; nothing here allocates, so this is safe in whole-process
     * deployments).  A racing reader may see the sample half-filled —
     * same relaxed-atomic contract as the event rings.
     */
    void
    take_sample(std::uint64_t now)
    {
        // Drain-and-attribute, like take_snapshot(): settle pending
        // remote frees so per-heap u_i matches the gauges, and sum
        // cached bytes from the magazine nodes (the global gauge
        // lags by up to a partial batch per thread).
        drain_all_remote();
        fold_stats();
        std::uint64_t cached = 0;
        if (magazine_id_ != 0) {
            std::lock_guard<typename Policy::Mutex> guard(cache_mutex_);
            for (detail::MagazineNode* node = cache_nodes_;
                 node != nullptr; node = node->next_in_set)
                cached += node->occupancy_bytes.load(
                    std::memory_order_relaxed);
        }
        obs::TimeSeriesSampler::Writer writer =
            sampler_->begin_sample(now);
        writer.set_gauges(stats_.in_use_bytes.current(),
                          stats_.held_bytes.current(),
                          stats_.committed_bytes.current(), cached);
        writer.set_vm(provider_.reserved_bytes(),
                      stats_.purged_bytes.current());
        writer.set_counters(stats_.allocs.get(), stats_.frees.get(),
                            stats_.superblock_transfers.get(),
                            stats_.global_fetches.get());
        writer.set_slowpath(stats_.global_bin_hits.get(),
                            stats_.global_bin_misses.get(),
                            stats_.cache_pushes.get(),
                            stats_.cache_pops.get());
        writer.set_bad_frees(stats_.bad_free_wild.get(),
                             stats_.bad_free_foreign.get(),
                             stats_.bad_free_interior.get(),
                             stats_.bad_free_double.get());
        if ((hooks_ & kProfile) != 0) {
            const obs::ProfilerTotals pt = profiler_->totals();
            writer.set_profiler(pt.sampled_requested, pt.sampled_rounded);
        }
        if ((hooks_ & kLatency) != 0) {
            // LatencySnapshot is fixed-size arrays on the stack —
            // no allocation, so the no-alloc contract above holds.
            const obs::LatencySnapshot lat = latency_->snapshot();
            for (int p = 0; p < obs::kLatencyPathCount; ++p)
                writer.set_latency(
                    p, lat.paths[static_cast<std::size_t>(p)].count(),
                    static_cast<std::uint64_t>(
                        lat.paths[static_cast<std::size_t>(p)]
                            .percentile(99.0)));
        }
        writer.set_heap(0, heap_in_use(0), heap_held(0));
        for (int i = 1; i <= config_.heap_count; ++i) {
            Heap& heap = heap_at(i);
            std::lock_guard<typename Heap::Mutex> guard(heap.mutex);
            writer.set_heap(static_cast<std::size_t>(i), heap.in_use,
                            heap.held);
        }
    }

    /**
     * Adds @p home into its heap's snapshot row @p hs; takes and
     * releases the home's lock.  Heap 0's row sums its per-class
     * shards, lock profiles included (histogram merge), so the heap-0
     * contention row means "the global heap".  @p hs arrives with every
     * vector pre-sized by take_snapshot() — nothing here may allocate.
     * Allocating under the heap lock would self-deadlock whole-process
     * deployments (global_new.h), and allocating at all between the
     * gauge copy and this walk would break exact reconciliation.
     * LockStats is safe to copy under the lock: its histogram is a
     * fixed std::array.
     */
    void
    add_to_snapshot(Heap& home, obs::HeapSnapshot& hs)
    {
        std::lock_guard<typename Heap::Mutex> guard(home.mutex);
        hs.index = home.index;
        hs.in_use += home.in_use;
        hs.held += home.held;
        for (std::size_t i = 0; i < home.bins.size(); ++i) {
            auto& bin = home.bins[i];
            obs::ClassSnapshot& cs =
                hs.classes[static_cast<std::size_t>(home.first_class) + i];
            for (int g = 0; g < Superblock::kGroupCount; ++g) {
                for (Superblock* sb = bin.groups[g].front();
                     sb != nullptr; sb = bin.groups[g].next(sb)) {
                    ++cs.group_counts[static_cast<std::size_t>(g)];
                    ++cs.superblocks;
                    cs.used_blocks += sb->used();
                    cs.capacity_blocks += sb->capacity();
                    hs.uncarved +=
                        sb->span_bytes() -
                        static_cast<std::size_t>(sb->capacity()) *
                            sb->block_bytes();
                }
            }
        }
        obs::LockStats ls = home.mutex.stats_locked();
        hs.lock.acquires += ls.acquires;
        hs.lock.contended += ls.contended;
        hs.lock.wait.merge(ls.wait);
    }

    /** One dump() row per non-empty size class of @p home.  Caller
        holds its lock. */
    void
    dump_classes(std::ostream& os, Heap& home)
    {
        for (std::size_t i = 0; i < home.bins.size(); ++i) {
            auto& bin = home.bins[i];
            std::size_t count = 0;
            for (auto& group : bin.groups)
                count += group.size();
            if (count == 0)
                continue;
            const int cls = home.first_class + static_cast<int>(i);
            os << "    class " << cls << " (" << classes_.block_size(cls)
               << " B): " << count << " superblock(s), groups [";
            for (int g = 0; g < Superblock::kGroupCount; ++g) {
                if (g != 0)
                    os << ' ';
                os << bin.groups[g].size();
            }
            os << "]\n";
        }
    }

    /** Per-processor heap @p i (1 <= i <= P). */
    Heap&
    heap_at(int i)
    {
        return *homes_[static_cast<std::size_t>(i - 1)];
    }

    /** The global heap's shard for size class @p cls. */
    Heap&
    global_shard(int cls)
    {
        return *homes_[static_cast<std::size_t>(config_.heap_count + cls)];
    }

    Heap&
    my_heap()
    {
        return heap_at(my_heap_index());
    }

    /**
     * Graceful-degradation wrapper around the class allocation path:
     * when the provider refuses memory, reclaim everything reclaimable
     * (thread caches, empty superblocks across all heaps) and retry
     * exactly once before reporting OOM to the caller.  All heap
     * accounting is already settled when the try-path reports failure,
     * so the retry observes a consistent allocator.  @p size is the
     * request, counted on the heap's stats shard on success.
     *
     * With latency armed a probe rides along.  With magazines off this
     * is malloc's per-op path, so the local hit is timed only when @p op
     * carries kTimed; the probe self-arms at slow-path entry
     * regardless, so refills/fetches/maps are always timed — from op
     * start when the tick selected the op, from slow-path entry
     * otherwise.  Records only ops that return a block, like the
     * counters.
     */
    void*
    allocate_from_class(int cls, std::size_t size, std::uint32_t op)
    {
        obs::LatencyProbe probe;
        obs::LatencyProbe* timing = nullptr;
        if ((op & kLatency) != 0) [[unlikely]] {
            timing = &probe;
            if ((op & kTimed) != 0)
                probe.begin(Policy::cycle_timestamp());
        }
        void* block = try_allocate_from_class(cls, size, timing);
        if (block == nullptr) {
            stats_.oom_reclaims.add();
            record_event(obs::EventKind::oom_reclaim, my_heap_index(),
                         cls, classes_.block_size(cls));
            release_free_memory();
            block = try_allocate_from_class(cls, size, timing);
            if (block == nullptr)
                stats_.oom_failures.add();
        }
        if (block != nullptr && probe.active)
            latency_commit(probe.stage, probe.t0);
        return block;
    }

    /** malloc slow+fast path for a non-huge class (paper Figure 2),
        counting a request of @p size on the heap's stats shard when it
        succeeds.  @p probe, when non-null, is armed at slow-path entry
        and raised to the deepest stage reached. */
    void*
    try_allocate_from_class(int cls, std::size_t size,
                            obs::LatencyProbe* probe = nullptr)
    {
        const std::size_t block_bytes = classes_.block_size(cls);
        Heap& heap = my_heap();
        std::lock_guard<typename Heap::Mutex> guard(heap.mutex);

        int probes = 0;
        Superblock* sb = heap.find_allocatable(cls, &probes);
        for (int i = 0; i < probes; ++i)
            Policy::work(CostKind::list_op);

        bool fresh = false;
        if (sb == nullptr) {
            if (probe != nullptr)
                probe->begin(Policy::cycle_timestamp());
            sb = fetch_from_global(cls, heap);
            if (sb != nullptr) {
                if (probe != nullptr)
                    probe->raise(
                        obs::LatencyPath::malloc_global_fetch);
            } else {
                sb = fresh_superblock(cls);
                if (sb == nullptr)
                    return nullptr;  // OS exhausted
                fresh = true;
                if (probe != nullptr)
                    probe->raise(obs::LatencyPath::malloc_fresh_map);
                // A fresh superblock is invisible to other threads (no
                // block of it has escaped), so adopting it outside the
                // global lock is race-free.
                adopt(heap, sb);
                record_event(obs::EventKind::class_refill, heap.index,
                             cls, sb->span_bytes());
            }
        }

        int old_group = sb->fullness_group();
        Policy::touch(sb, sizeof(Superblock), true);
        void* block = sb->allocate();
        heap.in_use += block_bytes;
        heap.relink(sb, old_group);
        Policy::work(CostKind::list_op);
        // A fresh map is where the footprint grows: fold there too.
        // Global fetches are not fold points — they recur in steady
        // cross-thread churn, where a fold under this lock costs more
        // than the tighter peak is worth.
        count_alloc(heap.ops, size, block_bytes, fresh);
        return block;
    }

    /**
     * free path for a non-huge block (paper Figure 3, with the remote
     * queue replacing the paper's blocking lock).  The owner may change
     * between the read and the lock (another thread can transfer the
     * superblock), so re-check under the lock and retry on a mismatch
     * (paper §3.4).  An owner observed *busy* (is_locked_hint, a
     * relaxed probe — cheaper than a failed try_lock) is not waited
     * on: the block goes to its lock-free remote queue and the owner
     * settles it at its next lock visit.
     *
     * The free is counted on the stats shard of the home that
     * accepted it, under that home's lock, or on the shared shard when
     * it went to a remote queue.  A block the hardened under-lock
     * double-free probe rejects (reported; nothing freed) is counted
     * nowhere.  The remote-queue path skips the probe (best-effort:
     * the owner's state can't be examined without its lock).
     *
     * noinline: lock-bound, and see refill_magazine.
     */
    __attribute__((noinline)) void
    free_block(Superblock* sb, void* p, std::uint32_t op)
    {
        // Sampled timing: with magazines off this is free's per-op
        // path.  The tick decided up front (kTimed); the stage is
        // whichever branch the op takes (owner-locked accept =
        // free_fast, busy owner = free_remote_push).  A rejected
        // double free records nothing, matching the untouched op
        // counters.
        const bool timed = (op & kTimed) != 0;
        std::uint64_t t0 = 0;
        if (timed) [[unlikely]]
            t0 = Policy::cycle_timestamp();
        void* block = sb->block_start(p);
        // Read before freeing: once the block lands, an emptied
        // superblock can be retired to the reuse cache and reformatted
        // by a concurrent fetch.
        const std::size_t block_bytes = sb->block_bytes();
        for (;;) {
            Heap* home = static_cast<Heap*>(sb->owner());
            if (home->mutex.is_locked_hint()) {
                remote_free(*home, sb, block);
                shared_ops_.count_free_shared(block_bytes);
                if (timed)
                    latency_commit(
                        obs::LatencyPath::free_remote_push, t0);
                return;
            }
            // The hint can go stale before the acquire; then we block
            // briefly (the paper's behavior), which is still correct.
            home->mutex.lock();
            if (static_cast<Heap*>(sb->owner()) != home) {
                home->mutex.unlock();
                continue;
            }
            if (config_.hardened_free &&
                (sb->used() == 0 || sb->free_list_head() == block)) {
                // Stable under the owner's lock: a used_ of zero or
                // the block already heading the free list is a double
                // free.  Deeper list scans are deliberately skipped —
                // O(1) keeps the check inside the overhead gate.
                home->mutex.unlock();
                report_bad_free(stats_.bad_free_double, "double", p,
                                sb->size_class());
                return;
            }
            free_into_locked(*home, sb, block);
            home->ops.count_free(block_bytes);
            Policy::work(CostKind::list_op);
            settle_and_unlock(*home);
            if (timed)
                latency_commit(obs::LatencyPath::free_fast, t0);
            return;
        }
    }

    /**
     * Hardened free path (Config::hardened_free): classifies @p p
     * before any heap structure is touched.  Returns the superblock
     * when the pointer is plausible, nullptr when it was rejected and
     * reported (the fatal policy never returns).  Every probe is a
     * lock-free read of memory free() touches anyway:
     *
     *  1. range: outside the hull of every span this process ever
     *     mapped -> wild.  The bounds are relaxed atomics, but a valid
     *     pointer crossing threads implies an app-level happens-before
     *     edge that publishes the bound stores sequenced before
     *     allocate() returned it, so a valid free never false-fires.
     *  2. header magic mismatch -> wild (not a superblock).
     *  3. arena-id mismatch -> foreign (another allocator's span).
     *  4. huge: anything but the exact pointer handed out -> interior.
     *  5. small: an implausible class/block-size pairing -> foreign
     *     (reformatted foreign span); outside the carved payload ->
     *     interior (header or tail remainder); a cleared owner means
     *     the superblock sits empty in the reuse cache, so the block
     *     was already freed -> double.
     *
     * A pointer *interior to a block* is legitimate (aligned
     * allocations hand those out) and passes; only pointers no
     * allocation path can have produced are rejected.  A double free
     * of a block parked in a thread magazine is caught only while the
     * block heads that magazine (magazine_push), and the remote-free
     * path skips the under-lock double probe — the hardening is
     * best-effort by design (docs/SHIM.md).
     *
     * always_inline: this is deallocate's hot prefix under the
     * default hardened_free, and the accept path is a handful of
     * header compares against data the free path loads anyway.  Left
     * to the heuristics, instrumented instantiations outline it (a
     * call per free) while uninstrumented ones inline it, and the
     * overhead gate ends up comparing unlike free paths.
     */
    inline __attribute__((always_inline)) Superblock*
    resolve_for_free(void* p)
    {
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        if (addr < mapped_lo_.load(std::memory_order_relaxed) ||
            addr >= mapped_hi_.load(std::memory_order_relaxed)) {
            return report_bad_free(stats_.bad_free_wild, "wild", p, -1);
        }
        Superblock* sb = Superblock::from_pointer_checked(
            p, config_.superblock_bytes);
        if (sb == nullptr)
            return report_bad_free(stats_.bad_free_wild, "wild", p, -1);
        if (sb->arena() != arena_id_) {
            return report_bad_free(stats_.bad_free_foreign, "foreign",
                                   p, sb->size_class());
        }
        if (sb->huge()) {
            std::size_t offset =
                sb->span_bytes() - sb->huge_user_bytes();
            if (addr != reinterpret_cast<std::uintptr_t>(sb) + offset) {
                return report_bad_free(stats_.bad_free_interior,
                                       "interior", p,
                                       SizeClasses::kHuge);
            }
            return sb;
        }
        int cls = sb->size_class();
        if (cls < 0 || cls >= classes_.count() ||
            sb->block_bytes() != classes_.block_size(cls)) {
            return report_bad_free(stats_.bad_free_foreign, "foreign",
                                   p, cls);
        }
        auto base = reinterpret_cast<std::uintptr_t>(sb->payload_begin());
        if (addr < base ||
            addr >= base + static_cast<std::size_t>(sb->capacity()) *
                               sb->block_bytes()) {
            return report_bad_free(stats_.bad_free_interior, "interior",
                                   p, cls);
        }
        if (sb->owner() == nullptr) {
            return report_bad_free(stats_.bad_free_double, "double", p,
                                   cls);
        }
        return sb;
    }

    /**
     * Reports one rejected free per Config::on_bad_free: fatal aborts
     * with a diagnostic; warn bumps @p counter, records a trace event,
     * and leaks the block.  Returns nullptr so rejection sites can
     * `return report_bad_free(...)`.  noinline, cold: rejection is
     * the exceptional outcome, and compact call sites keep the
     * always-inlined resolve_for_free from bloating deallocate.
     */
    __attribute__((noinline, cold)) Superblock*
    report_bad_free(detail::Counter& counter, const char* kind,
                    const void* p, int size_class)
    {
        if (config_.on_bad_free == Config::BadFreePolicy::fatal) {
            HOARD_FATAL("bad free (%s) of pointer %p (size class %d)",
                        kind, p, size_class);
        }
        counter.add();
        record_event(obs::EventKind::bad_free, 0, size_class, 0);
        return nullptr;
    }

    /**
     * Widens the [mapped_lo_, mapped_hi_) hull to cover a span just
     * mapped from the provider.  The hull only grows (spans given back
     * are not carved out), so the range probe over-accepts and never
     * over-rejects; over-accepted pointers still face the magic and
     * arena checks.
     */
    void
    note_mapped_range(const void* p, std::size_t bytes)
    {
        auto lo = reinterpret_cast<std::uintptr_t>(p);
        auto hi = lo + bytes;
        std::uintptr_t seen = mapped_lo_.load(std::memory_order_relaxed);
        while (lo < seen &&
               !mapped_lo_.compare_exchange_weak(
                   seen, lo, std::memory_order_relaxed)) {
        }
        seen = mapped_hi_.load(std::memory_order_relaxed);
        while (hi > seen &&
               !mapped_hi_.compare_exchange_weak(
                   seen, hi, std::memory_order_relaxed)) {
        }
    }

    /**
     * Recounts the process-wide gauges from the per-heap ground truth
     * (child_after_fork documents why only the gauges can tear).  The
     * child is single-threaded here, magazines are already flushed and
     * remote queues settled, so the sums are exact: in_use is the u_i
     * of every heap and global shard plus huge user bytes; held adds
     * the reuse cache's
     * spans; committed is held minus whatever the purge pass has
     * decommitted (summed span-by-span over the reuse cache, the only
     * place purged superblocks live).  The in-use book itself stays
     * sharded: the difference between the recount and the folded
     * shards (a dead thread caught mid-update of a magazine or shared
     * shard) is booked on the shared shard, then everything is folded
     * again.
     * Event counters and requested_bytes are left alone — they are
     * diagnostics, not reconciled.
     */
    void
    repair_after_fork()
    {
        std::uint64_t in_use = 0;
        std::uint64_t held = 0;
        std::uint64_t purged = 0;
        for (auto& home : homes_) {
            in_use += home->in_use;
            held += home->held;
        }
        // Walk the reuse cache (single-threaded child: the
        // drain/re-push pair cannot race anyone) so purged spans are
        // counted span-exactly, not just by cache size.
        Superblock* chain = reuse_cache_.drain();
        while (chain != nullptr) {
            Superblock* next =
                chain->cache_next.load(std::memory_order_relaxed);
            held += chain->span_bytes();
            purged += chain->purged_bytes();
            reuse_cache_.push(chain);
            chain = next;
        }
        for (auto& stripe : huge_stripes_) {
            for (Superblock* sb = stripe.list.front(); sb != nullptr;
                 sb = stripe.list.next(sb)) {
                in_use += sb->huge_user_bytes();
                held += sb->span_bytes();
            }
        }
        std::uint64_t cached = 0;
        for (detail::MagazineNode* node = cache_nodes_; node != nullptr;
             node = node->next_in_set) {
            std::size_t occ =
                node->occupancy_bytes.load(std::memory_order_relaxed);
            node->synced_bytes = occ;
            cached += occ;
        }
        // Heap u_i counts magazine-parked blocks; the gauge does not.
        detail::OpTotals folded = fold_ops();
        shared_ops_.in_use_bytes.fetch_add(
            static_cast<std::int64_t>(in_use - cached) -
                folded.in_use_bytes,
            std::memory_order_relaxed);
        fold_stats();
        stats_.held_bytes.set(held);
        stats_.committed_bytes.set(held - purged);
        stats_.purged_bytes.set(purged);
        stats_.cached_bytes.set(cached);
    }

    /// @name Per-operation statistics shards (common/stats.h OpShard).
    /// @{

    /** Sums every per-op stats shard: the shared one, each heap's
        (global shards included), and each magazine shard.  Lock-free and
        cost-free (no policy charge), so it is safe from any context. */
    detail::OpTotals
    fold_ops() const
    {
        detail::OpTotals totals;
        totals.add(shared_ops_);
        for (const auto& home : homes_)
            totals.add(home->ops);
        for (const detail::MagazineShard* s =
                 mag_shards_.load(std::memory_order_acquire);
             s != nullptr; s = s->next)
            totals.add(*s);
        return totals;
    }

    /**
     * The one read side of the per-op statistics: folds the shards and
     * publishes the totals into stats_ (counts only rise; the in-use
     * level is stored and its peak ratcheted).  Every stats reader
     * goes through here, and so do the in-use peak's fold points.  Exact
     * when the writers are quiescent; a fold racing them may mix
     * before/after values of different shards.
     */
    __attribute__((noinline)) void
    fold_stats() const
    {
        stats_.publish_ops(fold_ops());
    }

    /** A fold on behalf of @p shard's writer (the caller), restarting
        the shard's growth measure from its current level. */
    __attribute__((noinline)) void
    publish(detail::OpShard& shard)
    {
        shard.peak_mark = shard.in_use_bytes.load(std::memory_order_relaxed);
        fold_stats();
    }

    /** Counts one allocation on @p shard, whose writer the caller is,
        folding when the shard has grown a superblock since its last
        fold or @p force asks for one. */
    void
    count_alloc(detail::OpShard& shard, std::size_t requested,
                std::size_t bytes, bool force = false)
    {
        if (shard.count_alloc(requested, bytes, publish_step_) || force)
            [[unlikely]]
            publish(shard);
    }

    /// @}

    /**
     * Lands one (whole) free block in @p home, which owns @p sb and
     * whose lock the caller holds: superblock bookkeeping, u_i, and the
     * fullness-group move.  A superblock that empties in a global shard
     * leaves it for the reuse cache, the path heap-born empties take,
     * so shards hold partials only; the class-keyed cache still hands
     * it back formatted to the next same-class fetch.  Invariant
     * enforcement is the caller's job (settle_and_unlock / drain
     * paths), so chains can land many blocks per enforcement pass.
     */
    void
    free_into_locked(Heap& home, Superblock* sb, void* block)
    {
        int old_group = sb->fullness_group();
        Policy::touch(block, sizeof(void*), true);
        Policy::touch(sb, sizeof(Superblock), true);
        sb->deallocate_block(block);
        home.in_use -= sb->block_bytes();
        if (home.index == 0 && sb->empty()) {
            home.unlink(sb, old_group);
            home.held -= sb->span_bytes();
            retire_empty(sb);
            return;
        }
        home.relink(sb, old_group);
    }

    /**
     * Emptiness-invariant enforcement: while u_i < a_i - K*S and
     * u_i < (1-f) a_i, move at-least-f-empty superblocks to the global
     * heap.  The paper's Figure 3 transfers once per free; because we
     * pick the *emptiest* victim first, once is almost always enough —
     * but a victim sitting right at the f-empty boundary reduces the
     * deficit by less than one free added, so a single transfer does
     * not restore the invariant inductively.  Looping does, keeps the
     * amortized cost O(1) (every transferred superblock was paid for
     * by the frees that emptied it), and is what the invariant-based
     * blowup bound actually requires.  Caller holds the heap lock.
     * The global heap (index 0) has no further heap to release to, so
     * for its shards the threshold is never crossed.
     *
     * Batched: the loop collects every victim first (the owner's lock
     * is already held; no global lock is touched while deciding), then
     * lands them — empties go to the lock-free reuse cache, partials
     * to their class's global shard with every same-class victim
     * spliced in under one shard-lock acquisition.  Between unlink and
     * landing a victim's owner still reads @p heap, whose lock we hold,
     * so a concurrent free remote-queues and is re-routed at the next
     * drain — the same transient the single-victim transfer had.
     */
    void
    maybe_release_superblock(Heap& heap)
    {
        if (heap.index == 0)
            return;
        const std::size_t slack =
            config_.slack_superblocks * config_.superblock_bytes;
        const double keep_fraction = 1.0 - config_.empty_fraction;

        SuperblockList victims;
        while (heap.in_use + slack < heap.held &&
               static_cast<double>(heap.in_use) <
                   keep_fraction * static_cast<double>(heap.held)) {
            Superblock* victim =
                heap.find_transfer_victim(config_.release_threshold);
            if (victim == nullptr)
                break;  // only header slack remains (rare)

            Policy::work(CostKind::transfer);
            heap.unlink(victim, victim->fullness_group());
            heap.held -= victim->span_bytes();
            heap.in_use -= victim->used_bytes();
            stats_.superblock_transfers.add();
            record_event(obs::EventKind::transfer_to_global, heap.index,
                         victim->size_class(), victim->span_bytes());
            victims.push_front(victim);
        }

        while (Superblock* sb = victims.pop_front()) {
            if (sb->empty()) {
                retire_empty(sb);
                continue;
            }
            Heap& shard = global_shard(sb->size_class());
            std::lock_guard<typename Heap::Mutex> guard(shard.mutex);
            adopt(shard, sb);
            Policy::work(CostKind::list_op);
            // Splice every remaining victim of this class under the
            // same acquisition — the batched transfer.
            Superblock* next = victims.front();
            while (next != nullptr) {
                Superblock* after = victims.next(next);
                if (!next->empty() &&
                    next->size_class() == shard.first_class) {
                    victims.remove(next);
                    adopt(shard, next);
                    Policy::work(CostKind::list_op);
                }
                next = after;
            }
        }
    }

    /**
     * Pulls superblocks of @p cls from the global heap for @p dest,
     * whose lock the caller holds.  The class's shard is probed first
     * — without its lock, via the occupancy count — and a hit pulls up
     * to kGlobalFetchBatch partial superblocks (fullest-first) under
     * one shard-lock acquisition: the cold heap is about to miss
     * repeatedly, so batching amortizes the round trip.
     * On a miss the lock-free reuse cache supplies a recycled empty
     * superblock, reformatted if its last class differs.  Each
     * handover happens under the lock of the side that still owns
     * escaped blocks (shard for partials; an empty superblock has none),
     * so a concurrent free never sees a null or stale owner it could
     * act on.  Returns the fullest pulled superblock, or nullptr when
     * the global heap has nothing — the caller then maps fresh memory.
     */
    Superblock*
    fetch_from_global(int cls, Heap& dest)
    {
        Heap& shard = global_shard(cls);
        Superblock* first = nullptr;
        if (shard.occupancy.load(std::memory_order_relaxed) != 0) {
            std::lock_guard<typename Heap::Mutex> guard(shard.mutex);
            drain_remote_locked(shard);
            for (std::size_t pulled = 0; pulled < kGlobalFetchBatch;
                 ++pulled) {
                int probes = 0;
                Superblock* sb = shard.find_allocatable(cls, &probes);
                for (int i = 0; i < probes; ++i)
                    Policy::work(CostKind::list_op);
                if (sb == nullptr)
                    break;
                shard.unlink(sb, sb->fullness_group());
                shard.held -= sb->span_bytes();
                shard.in_use -= sb->used_bytes();
                stats_.global_fetches.add();
                adopt(dest, sb);
                record_event(obs::EventKind::fetch_from_global,
                             dest.index, cls, sb->span_bytes());
                if (first == nullptr)
                    first = sb;  // fullest: pulled fullest-first
            }
        }
        if (first != nullptr) {
            stats_.global_bin_hits.add();
            return first;
        }
        stats_.global_bin_misses.add();

        Superblock* sb = reuse_cache_.pop(cls);
        if (sb == nullptr)
            return nullptr;
        stats_.cache_pops.add();
        record_event(obs::EventKind::cache_pop, dest.index,
                     sb->size_class(), sb->span_bytes());
        revive_superblock(sb);
        if (sb->size_class() != cls) {
            Policy::work(CostKind::superblock_init);
            sb->reformat(cls, static_cast<std::uint32_t>(
                                  classes_.block_size(cls)));
        }
        stats_.global_fetches.add();
        adopt(dest, sb);
        record_event(obs::EventKind::fetch_from_global, dest.index, cls,
                     sb->span_bytes());
        return sb;
    }

    /** Maps and formats a brand-new superblock of @p cls. */
    Superblock*
    fresh_superblock(int cls)
    {
        Policy::work(CostKind::os_map);
        Policy::work(CostKind::superblock_init);
        void* memory = provider_.map(config_.superblock_bytes,
                                     config_.superblock_bytes);
        if (memory == nullptr)
            return nullptr;
        note_mapped_range(memory, config_.superblock_bytes);
        stats_.superblock_allocs.add();
        stats_.committed_bytes.add(config_.superblock_bytes);
        stats_.held_bytes.add(config_.superblock_bytes);
        return Superblock::create(
            memory, config_.superblock_bytes, cls,
            static_cast<std::uint32_t>(classes_.block_size(cls)),
            arena_id_);
    }

    /** Hands ownership of unlinked @p sb to @p heap.  Caller holds its
        lock; the owner store happens under it (escaped blocks may
        exist). */
    void
    adopt(Heap& heap, Superblock* sb)
    {
        sb->set_owner(&heap);
        heap.held += sb->span_bytes();
        heap.in_use += sb->used_bytes();
        heap.link(sb);
    }

    /**
     * Retires unlinked, completely-empty @p sb onto the lock-free
     * reuse cache.  The owner is cleared first — safe because an empty
     * superblock has no escaped blocks, so no free can race the store.
     * Callers hold no particular lock (the push is lock-free).
     */
    void
    retire_empty(Superblock* sb)
    {
        sb->set_owner(nullptr);
        if ((hooks_ & kPurge) != 0)
            sb->set_retire_tick(Policy::timestamp());
        // Capture event fields before the push publishes the
        // superblock: a concurrent popper may reformat it immediately.
        const int cls = sb->size_class();
        const std::size_t span = sb->span_bytes();
        reuse_cache_.push(sb);
        stats_.cache_pushes.add();
        record_event(obs::EventKind::cache_push, 0, cls, span);
    }

    /**
     * Decommits one empty superblock's payload (everything past the
     * page-aligned header) through the provider, moving its bytes from
     * the committed gauge to the purged gauge.  The caller owns @p sb
     * exclusively (detached from the cache).
     * Returns the bytes decommitted — 0 when the span is too small to
     * have a whole payload page or the provider refused (then nothing
     * changed and the superblock is whole again).
     */
    std::size_t
    purge_superblock(Superblock* sb)
    {
        Superblock::PurgeRegion region =
            sb->prepare_purge(os::page_bytes());
        if (region.bytes == 0)
            return 0;
        Policy::work(CostKind::os_purge);
        if (!provider_.purge(region.p, region.bytes)) {
            sb->revive();  // roll the mark back; no gauge moved yet
            return 0;
        }
        stats_.committed_bytes.sub(region.bytes);
        stats_.purged_bytes.add(region.bytes);
        stats_.purged_superblocks.add();
        return region.bytes;
    }

    /**
     * Moves a purged superblock's bytes back from the purged gauge to
     * committed and tells the provider (the pages themselves refault
     * zeroed on first touch — no syscall).  No-op on unpurged spans,
     * so every path that puts a superblock back to work calls this
     * unconditionally.  @p into_service distinguishes a real revival
     * (counted, costed as a commit) from the bookkeeping restore
     * release_to_provider does just before the span dies.
     */
    void
    revive_superblock(Superblock* sb, bool into_service = true)
    {
        const std::size_t bytes = sb->revive();
        if (bytes == 0)
            return;
        char* payload = reinterpret_cast<char*>(sb) +
                        (sb->span_bytes() - bytes);
        provider_.unpurge(payload, bytes);
        stats_.purged_bytes.sub(bytes);
        stats_.committed_bytes.add(bytes);
        if (into_service) {
            Policy::work(CostKind::os_commit);
            stats_.revived_superblocks.add();
        }
    }

    /** Reverse of prepare_fork()'s lock sweep (both after-fork hooks
        start here; only the child repairs state afterwards). */
    void
    release_fork_locks()
    {
        for (std::size_t i = kHugeStripes; i-- > 0;)
            huge_stripes_[i].mutex.unlock();
        for (std::size_t i = homes_.size(); i-- > 0;)
            homes_[i]->mutex.unlock();
        purge_mutex_.unlock();
        cache_mutex_.unlock();
    }

    /**
     * Unmaps an unlinked superblock, settling the footprint gauges.
     * The caller has already removed @p sb from its home's lists and
     * held count.  Waits out any in-flight reuse-cache pop first: a
     * popper holding a stale head pointer may still dereference the
     * superblock's cache link (one relaxed load when no pop is in
     * flight — the overwhelmingly common case).  Returns the bytes
     * given back.
     */
    std::size_t
    release_to_provider(Superblock* sb)
    {
        reuse_cache_.await_poppers();
        // A purged span's committed accounting must be restored before
        // the unmap so the provider's whole-span decommit books
        // symmetrically (not a revival into service — the span dies).
        revive_superblock(sb, /*into_service=*/false);
        std::size_t bytes = sb->span_bytes();
        stats_.held_bytes.sub(bytes);
        stats_.committed_bytes.sub(bytes);
        Policy::work(CostKind::os_map);
        sb->~Superblock();
        provider_.unmap(sb, bytes);
        return bytes;
    }

    /** Huge path with the same reclaim-then-retry-once OOM handling.
        Always timed when armed, attributed to malloc_fresh_map (every
        huge allocation maps fresh memory); records on success only. */
    void*
    allocate_huge(std::size_t size, std::size_t align, std::uint32_t op)
    {
        std::uint64_t t0 = 0;
        if ((op & kLatency) != 0)
            t0 = Policy::cycle_timestamp();
        void* p = try_allocate_huge(size, align);
        if (p == nullptr) {
            stats_.oom_reclaims.add();
            record_event(obs::EventKind::oom_reclaim, 0,
                         SizeClasses::kHuge, size);
            release_free_memory();
            p = try_allocate_huge(size, align);
            if (p == nullptr)
                stats_.oom_failures.add();
        }
        if (p != nullptr && (op & kLatency) != 0)
            latency_commit(obs::LatencyPath::malloc_fresh_map, t0);
        return p;
    }

    /** Huge path: a dedicated chunk with a superblock header. */
    void*
    try_allocate_huge(std::size_t size, std::size_t align)
    {
        Policy::work(CostKind::os_map);
        std::size_t header = Superblock::header_bytes();
        std::size_t offset =
            align <= header ? header : detail::align_up(header, align);
        if (size > std::numeric_limits<std::size_t>::max() - offset)
            return nullptr;  // span would overflow; report OOM
        std::size_t total = offset + size;
        void* memory = provider_.map(total, config_.superblock_bytes);
        if (memory == nullptr)
            return nullptr;
        note_mapped_range(memory, total);
        Superblock* sb =
            Superblock::create_huge(memory, total, size, arena_id_);
        {
            HugeStripe& stripe = huge_stripe_for(memory);
            std::lock_guard<typename Policy::Mutex> guard(stripe.mutex);
            stripe.list.push_front(sb);
        }
        // The shared shard has no peak mark, so every huge allocation
        // folds.
        shared_ops_.count_alloc_shared(size, size);
        fold_stats();
        stats_.huge_allocs.add();
        stats_.held_bytes.add(total);
        stats_.committed_bytes.add(total);
        record_event(obs::EventKind::huge_alloc, 0, SizeClasses::kHuge,
                     size);
        return static_cast<char*>(memory) + offset;
    }

    void
    deallocate_huge(Superblock* sb, std::uint32_t op)
    {
        // Always timed when armed; recorded as free_fast (a huge free
        // is rare, and its munmap cost is genuine free-path latency —
        // docs/OBSERVABILITY.md documents the attribution).
        std::uint64_t t0 = 0;
        if ((op & kLatency) != 0)
            t0 = Policy::cycle_timestamp();
        Policy::work(CostKind::os_map);
        {
            HugeStripe& stripe = huge_stripe_for(sb);
            std::lock_guard<typename Policy::Mutex> guard(stripe.mutex);
            stripe.list.remove(sb);
        }
        std::size_t user = sb->huge_user_bytes();
        std::size_t total = sb->span_bytes();
        shared_ops_.count_free_shared(user);
        stats_.held_bytes.sub(total);
        stats_.committed_bytes.sub(total);
        sb->~Superblock();
        provider_.unmap(sb, total);
        if ((op & kLatency) != 0)
            latency_commit(obs::LatencyPath::free_fast, t0);
    }

    /** Destructor support: unmaps every superblock still held. */
    void
    release_everything()
    {
        for (auto& home : homes_) {
            for (auto& bin : home->bins) {
                for (auto& group : bin.groups) {
                    while (Superblock* sb = group.pop_front())
                        unmap_superblock(sb);
                }
            }
        }
        Superblock* chain = reuse_cache_.drain();
        while (chain != nullptr) {
            Superblock* next =
                chain->cache_next.load(std::memory_order_relaxed);
            unmap_superblock(chain);
            chain = next;
        }
        for (auto& stripe : huge_stripes_) {
            while (Superblock* sb = stripe.list.pop_front())
                unmap_superblock(sb);
        }
    }

    void
    unmap_superblock(Superblock* sb)
    {
        revive_superblock(sb, /*into_service=*/false);
        std::size_t bytes = sb->span_bytes();
        sb->~Superblock();
        provider_.unmap(sb, bytes);
    }

    /**
     * Counter/list consistency and the emptiness invariant for one
     * home; takes its lock.  Every superblock sits in its own class's
     * list for its fullness group, and u_i, a_i and the occupancy count
     * match the lists exactly.  A global shard (index 0) holds no empty
     * superblock (the reuse cache is their one home) and is exempt from
     * the invariant; a per-processor heap must satisfy it in the form
     * HeapSnapshot::emptiness_ok states, with the uncarved bytes, the
     * active classes and kGlobalFetchBatch in its allowance.
     */
    void
    check_heap(Heap& home)
    {
        std::lock_guard<typename Heap::Mutex> guard(home.mutex);
        obs::HeapSnapshot hs;
        hs.index = home.index;
        std::size_t used_sum = 0;
        std::size_t held_sum = 0;
        std::uint32_t count = 0;
        for (std::size_t i = 0; i < home.bins.size(); ++i) {
            auto& bin = home.bins[i];
            const int cls = home.first_class + static_cast<int>(i);
            bool any = false;
            for (int g = 0; g < Superblock::kGroupCount; ++g) {
                for (Superblock* sb = bin.groups[g].front(); sb != nullptr;
                     sb = bin.groups[g].next(sb)) {
                    HOARD_CHECK(sb->size_class() == cls);
                    HOARD_CHECK(sb->fullness_group() == g);
                    HOARD_CHECK(sb->owner() == &home);
                    HOARD_CHECK(sb->used() <= sb->capacity());
                    HOARD_CHECK(home.index != 0 || !sb->empty());
                    used_sum += sb->used_bytes();
                    held_sum += sb->span_bytes();
                    hs.uncarved +=
                        sb->span_bytes() -
                        static_cast<std::size_t>(sb->capacity()) *
                            sb->block_bytes();
                    any = true;
                    ++count;
                }
            }
            if (any)
                ++hs.active_classes;
        }
        HOARD_CHECK(used_sum == home.in_use);
        HOARD_CHECK(held_sum == home.held);
        HOARD_CHECK(count == home.occupancy.load(std::memory_order_relaxed));
        hs.in_use = home.in_use;
        hs.held = home.held;
        HOARD_CHECK(hs.emptiness_ok(config_.superblock_bytes,
                                    config_.release_threshold,
                                    config_.slack_superblocks,
                                    kGlobalFetchBatch));
    }

    /// One stripe of the huge-object list: huge registrations hash to
    /// a stripe by address, so concurrent huge allocations rarely
    /// share a lock.
    struct HugeStripe
    {
        typename Policy::Mutex mutex;
        SuperblockList list;
    };

    /** The stripe registering the huge span that starts at @p p. */
    HugeStripe&
    huge_stripe_for(const void* p)
    {
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        return huge_stripes_[(addr / config_.superblock_bytes) &
                             (kHugeStripes - 1)];
    }

    const Config config_;
    os::PageProvider& provider_;
    SizeClasses classes_;
    /// Identity stamped into every superblock this instance formats
    /// (the hardened free path's foreign-span check).
    const std::uint32_t arena_id_ = detail::next_arena_id();
    /// The hook word: the hook bits (kTrace .. kPurge) the
    /// constructor armed, kTick when one of them rides on the op tick,
    /// and kTimed in latency's exact mode.  Written only by the
    /// constructor; every hook test reads it, and allocate and
    /// deallocate read it once per op (op_begin).  Declared among the
    /// read-mostly members every op touches, beside the four hook
    /// objects its bits stand for.
    std::uint32_t hooks_ = 0;
    /// Sampling heap profiler; non-null only with kProfile.  Destroyed
    /// after the heaps (reverse declaration order) so teardown flushes
    /// can still pair sampled frees.
    std::unique_ptr<obs::HeapProfiler> profiler_;
    /// Per-path latency histograms; non-null only with kLatency.
    std::unique_ptr<obs::LatencyCollector> latency_;
    /// Event rings; non-null only with kTrace.
    std::unique_ptr<obs::EventRecorder> recorder_;
    /// Gauge time series; non-null only with kSample (tracing on and
    /// Config::obs_sample_interval > 0).
    std::unique_ptr<obs::TimeSeriesSampler> sampler_;
    /// Hull of every span ever mapped for this instance; [max, 0)
    /// until the first map, so a fresh allocator rejects everything.
    std::atomic<std::uintptr_t> mapped_lo_{
        std::numeric_limits<std::uintptr_t>::max()};
    std::atomic<std::uintptr_t> mapped_hi_{0};
    /// Every superblock home, in lock order: per-processor heap i at
    /// [i - 1] (heap_at), then the global heap's one-class shard for
    /// class c at [P + c] (global_shard).  Heap 0 — the global heap —
    /// is those shards plus the reuse cache below.
    std::vector<std::unique_ptr<Heap>> homes_;
    /// Lock-free cache of completely-empty superblocks, the only place
    /// the global heap keeps them: one Treiber stack per size class, so
    /// a same-class pop recycles a superblock already formatted for it;
    /// cross-class steals reformat.
    SuperblockCache<Policy> reuse_cache_;
    /// Guards cache_nodes_ and serializes magazine flushes against each
    /// other (never against the owners' lock-free fast paths).
    typename Policy::Mutex cache_mutex_;
    detail::MagazineNode* cache_nodes_ = nullptr;
    std::uint64_t magazine_id_ = 0;  ///< 0 = caching disabled
    /// Per-class magazine cap and batch (detail::magazine_limits);
    /// empty when caching is disabled.
    std::vector<detail::MagazineLimits> mag_limits_;
    HugeStripe huge_stripes_[kHugeStripes];
    /// Serializes purge passes (manual purge() vs. the cadence hook).
    typename Policy::Mutex purge_mutex_;
    /// Policy time before which no automatic pass runs; the CAS in
    /// run_due_checks() elects one thread per interval.
    std::atomic<std::uint64_t> next_purge_tick_{0};
    /// Process-wide statistics.  Rare events are counted here directly;
    /// the four per-op fields are written only by fold_stats, which
    /// const readers call too — hence mutable.
    mutable detail::AllocatorStats stats_;
    /// Per-op stats of the rare multi-writer paths (huge objects,
    /// remote pushes, fork repair), updated by RMW.
    detail::OpShard shared_ops_;
    /// Push-only list of magazine stats shards (MagazineShard), handed
    /// back to the pool by the destructor.
    std::atomic<detail::MagazineShard*> mag_shards_{nullptr};
    /// In-use growth after which a shard folds: one superblock.
    const std::int64_t publish_step_ =
        static_cast<std::int64_t>(config_.superblock_bytes);
};

}  // namespace hoard

#endif  // HOARD_CORE_HOARD_ALLOCATOR_H_
