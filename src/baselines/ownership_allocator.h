/**
 * @file
 * Private-heaps-with-ownership baseline (paper §2.1: the Ptmalloc /
 * MTmalloc / LKmalloc category).
 *
 * Model: one arena per heap slot, threads assigned by tid mod N.
 * Frees return blocks to the arena that carved them ("ownership"), so
 * unlike the pure-private baseline blowup is bounded — but by O(P),
 * not O(1): an arena never gives memory back, each arena retains its
 * own high-water mark, and empty superblocks are recycled only within
 * the arena, never across arenas or to the OS.
 *
 * This class's signature behaviors, per the paper: it scales (no
 * shared hot lock) and it avoids allocator-induced false sharing, but
 * (a) its footprint grows with P where Hoard's does not (TBL-blowup),
 * and (b) cross-thread frees — the Larson epochs — pay for locking the
 * remote owner's arena, which Hoard bounds via the global heap's
 * recycling instead of per-arena captivity.
 */

#ifndef HOARD_BASELINES_OWNERSHIP_ALLOCATOR_H_
#define HOARD_BASELINES_OWNERSHIP_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/failure.h"
#include "common/stats.h"
#include "core/allocator.h"
#include "core/config.h"
#include "core/heap.h"
#include "core/size_classes.h"
#include "core/superblock.h"
#include "os/page_provider.h"
#include "policy/cost_kind.h"

namespace hoard {
namespace baselines {

/** Arena allocator with ownership returns and trylock arena hopping. */
template <typename Policy>
class OwnershipAllocator final : public Allocator
{
  public:
    /** A heap over every class plus the arena's own empty
        superblocks, which it reuses for any class and never gives
        back. */
    struct Arena : Heap<Policy>
    {
        using Heap<Policy>::Heap;
        SuperblockList empty_list;  ///< guarded by the arena's mutex
    };

    explicit OwnershipAllocator(
        const Config& config = Config(),
        os::PageProvider& provider = os::default_page_provider())
        : config_(validated(config)),
          provider_(provider),
          classes_(config_,
                   Superblock::payload_bytes_for(config_.superblock_bytes)),
          narenas_((config_.heap_count + kThreadsPerArena - 1) /
                   kThreadsPerArena)
    {
        arenas_.reserve(static_cast<std::size_t>(narenas_));
        for (int i = 0; i < narenas_; ++i)
            arenas_.push_back(
                std::make_unique<Arena>(i, 0, classes_.count()));
    }

    ~OwnershipAllocator() override
    {
        for (auto& arena : arenas_) {
            if (arena == nullptr)
                continue;
            for (auto& bin : arena->bins) {
                for (auto& group : bin.groups) {
                    while (Superblock* sb = group.pop_front())
                        unmap_superblock(sb);
                }
            }
            while (Superblock* sb = arena->empty_list.pop_front())
                unmap_superblock(sb);
        }
    }

    OwnershipAllocator(const OwnershipAllocator&) = delete;
    OwnershipAllocator& operator=(const OwnershipAllocator&) = delete;

    void*
    allocate(std::size_t size) override
    {
        Policy::work(CostKind::malloc_base);
        int cls = classes_.class_for(size);
        if (cls == SizeClasses::kHuge)
            return allocate_huge(size);
        const std::size_t block_bytes = classes_.block_size(cls);

        Arena& arena = lock_some_arena();
        // lock_some_arena returns with arena.mutex held.
        int probes = 0;
        Superblock* sb = arena.find_allocatable(cls, &probes);
        for (int i = 0; i < probes; ++i)
            Policy::work(CostKind::list_op);

        if (sb == nullptr) {
            if ((sb = arena.empty_list.pop_front()) != nullptr) {
                if (sb->size_class() != cls) {
                    Policy::work(CostKind::superblock_init);
                    sb->reformat(cls,
                                 static_cast<std::uint32_t>(block_bytes));
                }
            } else {
                sb = fresh_superblock(cls);
                if (sb == nullptr) {
                    arena.mutex.unlock();
                    return nullptr;
                }
            }
            sb->set_owner(&arena);
            arena.held += sb->span_bytes();
            arena.link(sb);
        }

        int old_group = sb->fullness_group();
        Policy::touch(sb, sizeof(Superblock), true);
        void* block = sb->allocate();
        arena.in_use += block_bytes;
        arena.relink(sb, old_group);
        Policy::work(CostKind::list_op);
        arena.mutex.unlock();

        stats_.allocs.add();
        stats_.requested_bytes.add(size);
        stats_.in_use_bytes.add(block_bytes);
        return block;
    }

    void
    deallocate(void* p) override
    {
        if (p == nullptr)
            return;
        Policy::work(CostKind::free_base);
        Superblock* sb =
            Superblock::from_pointer(p, config_.superblock_bytes);
        if (sb->huge()) {
            deallocate_huge(sb);
            return;
        }

        // Ownership: the block goes home.  Owners never change, so no
        // re-check loop is needed.
        auto* arena = static_cast<Arena*>(sb->owner());
        std::lock_guard<typename Arena::Mutex> guard(arena->mutex);
        int old_group = sb->fullness_group();
        Policy::touch(p, sizeof(void*), true);
        Policy::touch(sb, sizeof(Superblock), true);
        sb->deallocate(p);
        arena->in_use -= sb->block_bytes();
        arena->relink(sb, old_group);
        Policy::work(CostKind::list_op);
        stats_.frees.add();
        stats_.in_use_bytes.sub(sb->block_bytes());

        if (sb->empty()) {
            arena->unlink(sb, sb->fullness_group());
            arena->empty_list.push_front(sb);
        }
    }

    std::size_t
    usable_size(const void* p) const override
    {
        const Superblock* sb =
            Superblock::from_pointer(p, config_.superblock_bytes);
        return sb->huge() ? sb->huge_user_bytes() : sb->block_bytes();
    }

    const detail::AllocatorStats& stats() const override { return stats_; }
    const char* name() const override { return "ownership"; }

    /** Arenas in the pool (heap_count: one per thread slot). */
    int arena_count() const { return narenas_; }

  private:
    static const Config&
    validated(const Config& config)
    {
        config.validate();
        return config;
    }

    /** Locks and returns the calling thread's arena. */
    Arena&
    lock_some_arena()
    {
        auto idx = static_cast<std::size_t>(Policy::thread_index() %
                                            narenas_);
        arenas_[idx]->mutex.lock();
        return *arenas_[idx];
    }

    Superblock*
    fresh_superblock(int cls)
    {
        Policy::work(CostKind::os_map);
        Policy::work(CostKind::superblock_init);
        void* memory = provider_.map(config_.superblock_bytes,
                                     config_.superblock_bytes);
        if (memory == nullptr)
            return nullptr;
        stats_.superblock_allocs.add();
        stats_.committed_bytes.add(config_.superblock_bytes);
        stats_.held_bytes.add(config_.superblock_bytes);
        return Superblock::create(
            memory, config_.superblock_bytes, cls,
            static_cast<std::uint32_t>(classes_.block_size(cls)));
    }

    void*
    allocate_huge(std::size_t size)
    {
        Policy::work(CostKind::os_map);
        std::size_t offset = Superblock::header_bytes();
        if (size > std::numeric_limits<std::size_t>::max() - offset)
            return nullptr;  // span would overflow; report OOM
        std::size_t total = offset + size;
        void* memory = provider_.map(total, config_.superblock_bytes);
        if (memory == nullptr)
            return nullptr;
        Superblock::create_huge(memory, total, size);
        stats_.allocs.add();
        stats_.huge_allocs.add();
        stats_.requested_bytes.add(size);
        stats_.in_use_bytes.add(size);
        stats_.held_bytes.add(total);
        stats_.committed_bytes.add(total);
        return static_cast<char*>(memory) + offset;
    }

    void
    deallocate_huge(Superblock* sb)
    {
        Policy::work(CostKind::os_map);
        std::size_t total = sb->span_bytes();
        stats_.frees.add();
        stats_.in_use_bytes.sub(sb->huge_user_bytes());
        stats_.held_bytes.sub(total);
        stats_.committed_bytes.sub(total);
        sb->~Superblock();
        provider_.unmap(sb, total);
    }

    void
    unmap_superblock(Superblock* sb)
    {
        std::size_t bytes = sb->span_bytes();
        sb->~Superblock();
        provider_.unmap(sb, bytes);
    }

    /** Threads per arena (1: each thread slot owns an arena). */
    static constexpr int kThreadsPerArena = 1;

    const Config config_;
    os::PageProvider& provider_;
    SizeClasses classes_;
    const int narenas_;
    std::vector<std::unique_ptr<Arena>> arenas_;
    detail::AllocatorStats stats_;
};

}  // namespace baselines
}  // namespace hoard

#endif  // HOARD_BASELINES_OWNERSHIP_ALLOCATOR_H_
