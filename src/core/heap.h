/**
 * @file
 * The Hoard heap (paper §3): one type for every superblock home.  A
 * heap holds a lock, the u_i / a_i byte counters, a per-operation
 * stats shard, a remote-free stack, and fullness-group lists for a
 * range of size classes.
 *
 *  - Per-processor heap i is Heap(i, 0, classes): every class.
 *  - The global heap (heap 0) is sharded by size class: its shard for
 *    class c is Heap(0, c, 1), a heap over that one class under its
 *    own lock.
 *
 * The free path discovers a block's home through Superblock::owner(),
 * which stores a Heap pointer; `index` 0 marks a global-heap shard.
 * All fields are guarded by `mutex` except where noted.
 */

#ifndef HOARD_CORE_HEAP_H_
#define HOARD_CORE_HEAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/failure.h"
#include "common/stats.h"
#include "core/superblock.h"
#include "obs/contention.h"

namespace hoard {

/** Fullness-group lists for one size class within one heap. */
struct SizeClassBin
{
    SuperblockList groups[Superblock::kGroupCount];
};

/** One superblock home; the template parameter supplies the mutex. */
template <typename Policy>
struct Heap
{
    /**
     * The policy mutex behind an optional contention profiler.  The
     * wrapper is a plain forwarder until ProfiledMutex::set_profiled
     * flips it on.
     */
    using Mutex = obs::ProfiledMutex<Policy>;

    /** Heap @p index_ over the classes [first_class_, first_class_ +
        num_classes). */
    Heap(int index_, int first_class_, int num_classes)
        : index(index_),
          first_class(first_class_),
          bins(static_cast<std::size_t>(num_classes))
    {}

    Heap(const Heap&) = delete;
    Heap& operator=(const Heap&) = delete;

    /** Heap number; 0 marks a shard of the global heap. */
    const int index;

    /** Size class of bins[0]. */
    const int first_class;

    Mutex mutex;

    /** u_i: block bytes currently handed to the program from here. */
    std::size_t in_use = 0;

    /** a_i: bytes held in this heap's superblocks (span bytes). */
    std::size_t held = 0;

    /**
     * Per-operation statistics of the locked path: allocations served
     * from this heap and frees accepted into it, written under `mutex`
     * and folded lock-free by the allocator's stats readers.
     */
    detail::OpShard ops;

    /**
     * MPSC remote-free stack (Treiber, push-only): a thread freeing a
     * block owned by this heap while its lock is busy pushes here
     * instead of blocking; the owner splices the whole chain off with
     * one exchange at its next lock acquisition and settles the frees
     * under the lock it already holds.  Blocks link through their first
     * words — the magazine/bulk-carve chain format.  No individual pop
     * ever happens, so the classic Treiber ABA hazard cannot arise; the
     * release/acquire pair on the head is what publishes each block's
     * next-pointer write to the draining owner.
     */
    std::atomic<void*> remote_head{nullptr};

    /**
     * Superblocks linked here: written under `mutex` (link/unlink),
     * read without it by fetchers deciding whether a global shard is
     * worth locking.  A stale zero costs one extra miss of the class;
     * a stale nonzero costs one wasted lock — never correctness.
     */
    std::atomic<std::uint32_t> occupancy{0};

    /** Superblock lists per size class, segregated by fullness. */
    std::vector<SizeClassBin> bins;

    /** Cheap empty test so the drain's exchange is skipped when idle. */
    bool
    remote_pending() const
    {
        return remote_head.load(std::memory_order_relaxed) != nullptr;
    }

    /** Lock-free push of a (whole, free) block. Any thread, no lock. */
    void
    remote_push(void* block)
    {
        void* old = remote_head.load(std::memory_order_relaxed);
        do {
            *static_cast<void**>(block) = old;
        } while (!remote_head.compare_exchange_weak(
            old, block, std::memory_order_release,
            std::memory_order_relaxed));
    }

    /**
     * Detaches the whole pending chain (nullptr when empty).  Caller
     * holds the lock and owns every block on the returned chain.
     */
    void*
    remote_drain()
    {
        return remote_head.exchange(nullptr, std::memory_order_acquire);
    }

    /** The lists of @p cls, which must lie in this heap's range. */
    SizeClassBin&
    bin(int cls)
    {
        HOARD_DCHECK(cls >= first_class &&
                     cls - first_class < static_cast<int>(bins.size()));
        return bins[static_cast<std::size_t>(cls - first_class)];
    }

    /**
     * Finds a superblock of @p cls with a free block, preferring the
     * fullest (paper §3.1 allocates from nearly-full superblocks to keep
     * memory dense).  Returns nullptr when no superblock has space.
     * Caller holds the lock and charges one list_op per probed group.
     */
    Superblock*
    find_allocatable(int cls, int* probes)
    {
        SizeClassBin& b = bin(cls);
        *probes = 0;
        for (int g = Superblock::kFullnessBands - 1; g >= 0; --g) {
            ++*probes;
            if (Superblock* sb = b.groups[g].front())
                return sb;
        }
        return nullptr;
    }

    /**
     * Finds a superblock that is at least @p f empty for transfer to the
     * global heap; emptiest candidates first.  Returns nullptr if none
     * qualifies.  Caller holds the lock.
     */
    Superblock*
    find_transfer_victim(double f)
    {
        // A superblock in band g has used/capacity >= g / kFullnessBands;
        // bands beyond (1-f) cannot contain an f-empty superblock.
        const double band_width = 1.0 / Superblock::kFullnessBands;
        for (int g = 0; g < Superblock::kFullnessBands; ++g) {
            if (g * band_width > 1.0 - f)
                break;
            for (auto& b : bins) {
                for (Superblock* sb = b.groups[g].front(); sb != nullptr;
                     sb = b.groups[g].next(sb)) {
                    if (sb->at_least_fraction_empty(f))
                        return sb;
                }
            }
        }
        return nullptr;
    }

    /** Links @p sb into the right fullness group. Caller holds lock. */
    void
    link(Superblock* sb)
    {
        HOARD_DCHECK(!SuperblockList::is_linked(sb));
        bin(sb->size_class()).groups[sb->fullness_group()].push_front(sb);
        occupancy.store(occupancy.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    }

    /** Unlinks @p sb from its current group. Caller holds lock. */
    void
    unlink(Superblock* sb, int group)
    {
        bin(sb->size_class()).groups[group].remove(sb);
        occupancy.store(occupancy.load(std::memory_order_relaxed) - 1,
                        std::memory_order_relaxed);
    }

    /** Moves @p sb between groups after its fullness changed. */
    void
    relink(Superblock* sb, int old_group)
    {
        int now = sb->fullness_group();
        if (now == old_group)
            return;
        SizeClassBin& b = bin(sb->size_class());
        b.groups[old_group].remove(sb);
        b.groups[now].push_front(sb);
    }
};

}  // namespace hoard

#endif  // HOARD_CORE_HEAP_H_
