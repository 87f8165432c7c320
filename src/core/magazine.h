/**
 * @file
 * Thread-local magazine plumbing shared by every HoardAllocator
 * instantiation: the per-(thread, allocator) magazine node, the
 * per-logical-thread node chain, the process-wide pool their metadata
 * comes from, and the process-wide liveness registry that lets a
 * thread-exit hook tell a live allocator from a destroyed one.
 *
 * Why this is not simply a `thread_local` member: the allocator is a
 * template over the execution policy, and under SimPolicy the logical
 * "thread" is a fiber — many fibers share one OS thread, so C++
 * thread_local is the wrong key.  The policy instead hands out one
 * opaque per-logical-thread pointer slot (Policy::thread_cache_slot);
 * this module defines what hangs off it.  The node layout is
 * deliberately policy-free so every allocator instantiation (native,
 * sim, the uninstrumented bench policy) shares one chain format and
 * one exit hook.
 *
 * Memory discipline: nodes, stats shards and liveness records never
 * come from malloc or operator new.  In whole-process deployments
 * (global_new.h, the LD_PRELOAD shim) both are the allocator under
 * construction, and the shim would serve a registration made inside a
 * wrapper from its never-reused bootstrap arena, so every new thread
 * would leak its metadata there.  Instead one process-wide pool carves
 * them from an os::MetaArena over its own mmap provider and keeps the
 * exited ones on free lists for the next thread.  The pool outlives
 * every allocator: a surviving thread's chain may still hold a node of
 * an allocator destroyed meanwhile.  A node goes back to the pool only
 * from its owning thread's exit hook; other threads may empty a node's
 * lists (quiesced flush) but never release it, so the fast path needs
 * no lifetime synchronization.
 *
 * Lock order (the only multi-lock paths in the allocator):
 *   allocator cache-set mutex -> heap locks -> global-heap lock.
 * The liveness-registry mutex also guards the metadata pool.  It nests
 * inside nothing and guards nothing that suspends: exit hooks pin an
 * allocator with a busy refcount and drop the registry mutex *before*
 * calling into it, because under SimPolicy a policy mutex can suspend
 * the calling fiber and parking a process-wide std::mutex across that
 * would deadlock the one OS thread the simulation runs on.
 */

#ifndef HOARD_CORE_MAGAZINE_H_
#define HOARD_CORE_MAGAZINE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/stats.h"

namespace hoard {
namespace detail {

/**
 * Bytes one magazine may park, in whole blocks: a class caches at most
 * max(kMagazineMinBlocks, ceil(kMagazineClassBytes / block)) blocks,
 * and never more than Config::thread_cache_blocks.  A byte bound, not
 * only a block count, keeps what a thread can strand in its caches
 * O(1) in bytes per class: a consumer that only frees fills its
 * magazines with whatever size its producers chose.
 */
inline constexpr std::size_t kMagazineClassBytes = 16 * 1024;

/** Floor of the per-class cap, so the largest classes still batch. */
inline constexpr std::uint32_t kMagazineMinBlocks = 4;

/** One class's magazine bound and its refill/spill batch. */
struct MagazineLimits
{
    std::uint32_t cap = 0;    ///< blocks a magazine of the class holds
    std::uint32_t batch = 0;  ///< blocks one refill or spill moves
};

/**
 * The limits of a class of @p block_bytes blocks under a
 * Config::thread_cache_blocks of @p cache_blocks and a (resolved,
 * nonzero) Config::thread_cache_batch of @p batch.  The batch is capped
 * at half the class's cap so a magazine keeps headroom both ways.
 */
inline MagazineLimits
magazine_limits(std::uint32_t cache_blocks, std::uint32_t batch,
                std::size_t block_bytes)
{
    const std::size_t by_bytes =
        (kMagazineClassBytes + block_bytes - 1) / block_bytes;
    MagazineLimits limits;
    limits.cap = static_cast<std::uint32_t>(std::min<std::size_t>(
        cache_blocks,
        std::max<std::size_t>(kMagazineMinBlocks, by_bytes)));
    limits.batch = std::max(1u, std::min(batch, limits.cap / 2));
    return limits;
}

/**
 * The per-operation stats shard a magazine node counts into.  It is
 * not embedded in the node because nodes are recycled at thread exit
 * while stats readers fold shards without any lock: an allocator
 * instead keeps a push-only list of these (returned to the pool only
 * by its destructor), a node claims an unclaimed one at registration, and
 * its thread's exit flush releases it for the next thread.  Counts
 * are cumulative across owners; the release store / acquire claim
 * pair hands the single-writer role over.  Cache-line aligned so two
 * threads' shards never share a line.
 */
struct alignas(64) MagazineShard : OpShard
{
    std::atomic<bool> claimed{false};
    /** Immutable once published; in the pool, links the free list. */
    MagazineShard* next = nullptr;
};

/**
 * One thread's magazines for one allocator instance: a bounded LIFO of
 * whole free blocks per size class, threaded through block first words
 * (the same chain format Superblock::allocate_batch builds and
 * HoardHeap::remote_push consumes, so batches move by splice).
 *
 * Single-writer: only the owning logical thread touches `mags` and
 * `synced_bytes` on the fast path.  `occupancy_bytes` is the one field
 * other threads read (snapshot/sampler cached-bytes attribution); it is
 * updated per operation by a relaxed load + store (no locked RMW) and
 * is exact whenever the owner is quiesced.  The global cached_bytes
 * gauge is synced to it only at batch boundaries — that is the
 * "statistics move to batch boundaries" half of the fast path.
 */
struct MagazineNode
{
    struct Magazine
    {
        void* head = nullptr;      ///< LIFO threaded through blocks
        std::uint32_t count = 0;
        std::uint32_t cap = 0;     ///< MagazineLimits::cap of the class
    };

    /** Owning allocator; valid only while `allocator_id` is live. */
    void* allocator = nullptr;

    /** Monotonic allocator identity — never reused, so a stale node
        can never be mistaken for a new allocator at the same address. */
    std::uint64_t allocator_id = 0;

    /**
     * Flushes this node's blocks back into `allocator` and unlinks the
     * node from the allocator's set list.  Installed by the owning
     * HoardAllocator instantiation; called by the thread-exit hook with
     * the allocator pinned in the liveness registry (busy refcount —
     * which is what keeps `allocator` alive across the call).
     */
    void (*flush_fn)(void* allocator, MagazineNode* node) = nullptr;

    /** Per-thread chain; the thread's cache slot holds its head.  In
        the pool, links the free list instead. */
    MagazineNode* next_in_thread = nullptr;
    MagazineNode* next_in_set = nullptr;     ///< per-allocator chain

    /** Exact bytes parked across all classes (relaxed; see above). */
    std::atomic<std::size_t> occupancy_bytes{0};

    /** This node's per-operation stats shard: magazine pops and parks
        are counted here by the owning thread alone (see
        MagazineShard). */
    MagazineShard* ops = nullptr;

    /** Portion already reflected in the global cached_bytes gauge.
        Touched only at batch boundaries, by the owner (or a quiesced
        flusher). */
    std::size_t synced_bytes = 0;

    std::uint32_t num_classes = 0;

    /** Magazines this node's storage holds (>= num_classes); kept
        across reuse so the pool can hand the node to any allocator
        with at most this many classes. */
    std::uint32_t capacity = 0;

    /**
     * Latency-sampling countdown (obs/latency.h): decremented on each
     * armed fast-path op; hitting zero selects the op for timing and
     * reloads Config::latency_sample_period.  Lives here instead of a
     * thread_local because the node pointer is already in a register
     * on every magazine op and this line is already dirty — the armed
     * untimed cost stays one in-cache decrement and a predicted
     * branch.  Starts at 1 so a fresh thread's first op is timed
     * (exact from the first op at period 1).  Owner-only, like mags.
     */
    std::uint32_t lat_countdown = 1;

    /** Per-class magazines; points into this node's own allocation. */
    Magazine* mags = nullptr;
};

/** A node from the process-wide pool with room for @p num_classes
    magazines (all empty), or nullptr when the pool cannot map more
    memory (caching then silently degrades to the uncached path for
    this thread). */
MagazineNode* magazine_node_new(std::uint32_t num_classes);

/** Returns a node that was never linked anywhere to the pool. */
void magazine_node_free(MagazineNode* node);

/** A zeroed, unclaimed stats shard from the pool, or nullptr. */
MagazineShard* magazine_shard_new();

/** Returns a chain of shards (linked by MagazineShard::next) to the
    pool; an allocator's destructor hands back its whole list. */
void magazine_shards_free(MagazineShard* shards);

/// @name Allocator liveness registry.
/// Serializes thread-exit flushes against allocator destruction: the
/// exit hook flushes a node only while its allocator's id is still
/// registered (pinning it with a busy refcount for the duration), and
/// unregistering blocks until no exit flush holds a pin.  Do not
/// destroy an allocator *from a sim fiber* while another fiber of the
/// same machine may be exiting with blocks cached — the waiting
/// destructor would park the machine's only OS thread.
/// @{

/** Registers a new allocator; returns its fresh nonzero id, or 0
    when the pool cannot map a record (caching then stays off). */
std::uint64_t magazine_register_allocator();

/** Unregisters @p id; after return no exit hook will flush into it. */
void magazine_unregister_allocator(std::uint64_t id);

/// @}

/// @name Fork support (pthread_atfork; see docs/SHIM.md).
/// The registry mutex is held across fork() — it is the outermost
/// lock of every multi-lock path, so it is taken before any
/// allocator's own prepare handler — and the child additionally
/// clears busy pins left by exit flushes of threads that no longer
/// exist (a stale pin would block that allocator's destructor
/// forever).
/// @{

/** Parent, before fork(): locks the registry mutex. */
void magazine_registry_prepare_fork();

/** Parent, after fork(): unlocks the registry mutex. */
void magazine_registry_parent_after_fork();

/** Child, after fork(): unlocks and clears stale busy pins. */
void magazine_registry_child_after_fork();

/// @}

/**
 * The thread-exit hook both execution policies invoke with a thread's
 * non-null cache slot (the head of its node chain): flushes every node
 * whose allocator is still live (via node->flush_fn, pinned in the
 * registry), then returns the whole chain to the pool.  Signature
 * matches Policy::set_thread_exit_hook.
 */
void magazine_thread_exit(void* head);

}  // namespace detail
}  // namespace hoard

#endif  // HOARD_CORE_MAGAZINE_H_
