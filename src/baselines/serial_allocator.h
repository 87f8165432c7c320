/**
 * @file
 * Serial baseline: one heap, one lock (paper §2, "serial single heap" —
 * the category of Solaris malloc, the allocator the paper's speedup
 * figures show collapsing under concurrency).
 *
 * Reuses Hoard's superblock machinery so the memory layout and per-op
 * work match; what differs is exactly what the taxonomy says: every
 * thread funnels through a single mutex, and adjacent blocks from one
 * superblock are handed to different threads (active false sharing).
 */

#ifndef HOARD_BASELINES_SERIAL_ALLOCATOR_H_
#define HOARD_BASELINES_SERIAL_ALLOCATOR_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>

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

/** Single-heap, single-lock allocator. */
template <typename Policy>
class SerialAllocator final : public Allocator
{
  public:
    explicit SerialAllocator(
        const Config& config = Config(),
        os::PageProvider& provider = os::default_page_provider())
        : config_(validated(config)),
          provider_(provider),
          classes_(config_,
                   Superblock::payload_bytes_for(config_.superblock_bytes)),
          heap_(0, 0, classes_.count())
    {}

    ~SerialAllocator() override { release_everything(); }

    SerialAllocator(const SerialAllocator&) = delete;
    SerialAllocator& operator=(const SerialAllocator&) = delete;

    void*
    allocate(std::size_t size) override
    {
        Policy::work(CostKind::malloc_base);
        int cls = classes_.class_for(size);
        if (cls == SizeClasses::kHuge)
            return allocate_huge(size);

        const std::size_t block_bytes = classes_.block_size(cls);
        std::lock_guard<typename Heap<Policy>::Mutex> guard(heap_.mutex);

        int probes = 0;
        Superblock* sb = heap_.find_allocatable(cls, &probes);
        for (int i = 0; i < probes; ++i)
            Policy::work(CostKind::list_op);

        if (sb == nullptr) {
            if ((sb = empty_list_.pop_front()) != nullptr) {
                if (sb->size_class() != cls) {
                    Policy::work(CostKind::superblock_init);
                    sb->reformat(cls,
                                 static_cast<std::uint32_t>(block_bytes));
                }
            } else {
                sb = fresh_superblock(cls);
                if (sb == nullptr)
                    return nullptr;
            }
            sb->set_owner(&heap_);
            heap_.held += sb->span_bytes();
            heap_.link(sb);
        }

        int old_group = sb->fullness_group();
        Policy::touch(sb, sizeof(Superblock), true);
        void* block = sb->allocate();
        heap_.in_use += block_bytes;
        heap_.relink(sb, old_group);
        Policy::work(CostKind::list_op);

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

        std::lock_guard<typename Heap<Policy>::Mutex> guard(heap_.mutex);
        int old_group = sb->fullness_group();
        Policy::touch(p, sizeof(void*), true);
        Policy::touch(sb, sizeof(Superblock), true);
        sb->deallocate(p);
        heap_.in_use -= sb->block_bytes();
        stats_.in_use_bytes.sub(sb->block_bytes());
        heap_.relink(sb, old_group);
        Policy::work(CostKind::list_op);
        stats_.frees.add();

        if (sb->empty()) {
            heap_.unlink(sb, sb->fullness_group());
            empty_list_.push_front(sb);
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
    const char* name() const override { return "serial"; }

  private:
    static const Config&
    validated(const Config& config)
    {
        config.validate();
        return config;
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
    release_everything()
    {
        for (auto& bin : heap_.bins) {
            for (auto& group : bin.groups) {
                while (Superblock* sb = group.pop_front()) {
                    std::size_t bytes = sb->span_bytes();
                    sb->~Superblock();
                    provider_.unmap(sb, bytes);
                }
            }
        }
        while (Superblock* sb = empty_list_.pop_front()) {
            std::size_t bytes = sb->span_bytes();
            sb->~Superblock();
            provider_.unmap(sb, bytes);
        }
    }

    const Config config_;
    os::PageProvider& provider_;
    SizeClasses classes_;
    Heap<Policy> heap_;
    /// Completely-empty superblocks, reused by any class (guarded by
    /// heap_.mutex).
    SuperblockList empty_list_;
    detail::AllocatorStats stats_;
};

}  // namespace baselines
}  // namespace hoard

#endif  // HOARD_BASELINES_SERIAL_ALLOCATOR_H_
