/** @file Unit tests for the Hoard allocator (single-threaded behavior). */

#include "core/hoard_allocator.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/memutil.h"
#include "common/rng.h"
#include "policy/native_policy.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;

class HoardAllocatorTest : public ::testing::Test
{
  protected:
    Config
    small_config()
    {
        Config config;
        config.heap_count = 4;
        return config;
    }
};

TEST_F(HoardAllocatorTest, AllocateGivesWritableDistinctMemory)
{
    NativeHoard allocator(small_config());
    std::set<void*> seen;
    std::vector<void*> blocks;
    for (int i = 0; i < 1000; ++i) {
        void* p = allocator.allocate(48);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(seen.insert(p).second);
        detail::pattern_fill(p, 48, static_cast<std::uint64_t>(i));
        blocks.push_back(p);
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_TRUE(detail::pattern_check(blocks[i], 48, i));
        allocator.deallocate(blocks[i]);
    }
    EXPECT_TRUE(allocator.check_invariants());
}

TEST_F(HoardAllocatorTest, UsableSizeCoversRequest)
{
    NativeHoard allocator(small_config());
    for (std::size_t size : {1u, 8u, 17u, 100u, 1000u, 3000u}) {
        void* p = allocator.allocate(size);
        EXPECT_GE(allocator.usable_size(p), size);
        allocator.deallocate(p);
    }
}

TEST_F(HoardAllocatorTest, NullAndZeroEdgeCases)
{
    NativeHoard allocator(small_config());
    allocator.deallocate(nullptr);  // must be a no-op
    void* p = allocator.allocate(0);
    EXPECT_NE(p, nullptr);
    allocator.deallocate(p);
}

TEST_F(HoardAllocatorTest, MemoryIsReusedAfterFree)
{
    NativeHoard allocator(small_config());
    void* a = allocator.allocate(64);
    allocator.deallocate(a);
    void* b = allocator.allocate(64);
    EXPECT_EQ(a, b);  // LIFO reuse within the same heap/superblock
    allocator.deallocate(b);
}

TEST_F(HoardAllocatorTest, HugeAllocationRoundTrip)
{
    NativeHoard allocator(small_config());
    const std::size_t big = 100 * 1024;
    void* p = allocator.allocate(big);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(allocator.usable_size(p), big);
    detail::pattern_fill(p, big, 7);
    EXPECT_TRUE(detail::pattern_check(p, big, 7));
    EXPECT_EQ(allocator.stats().huge_allocs.get(), 1u);
    allocator.deallocate(p);
    EXPECT_EQ(allocator.stats().committed_bytes.current(), 0u)
        << "huge region must be unmapped immediately";
}

TEST_F(HoardAllocatorTest, HugeBoundaryIsLargestClass)
{
    NativeHoard allocator(small_config());
    std::size_t largest = allocator.size_classes().largest();
    void* small = allocator.allocate(largest);
    void* huge = allocator.allocate(largest + 1);
    EXPECT_EQ(allocator.stats().huge_allocs.get(), 1u);
    allocator.deallocate(small);
    allocator.deallocate(huge);
}

TEST_F(HoardAllocatorTest, AlignedAllocation)
{
    NativeHoard allocator(small_config());
    for (std::size_t align : {32u, 64u, 256u, 1024u, 4096u}) {
        void* p = allocator.allocate_aligned(100, align);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(detail::is_aligned(p, align)) << align;
        EXPECT_GE(allocator.usable_size(p), 100u);
        detail::pattern_fill(p, 100, align);
        EXPECT_TRUE(detail::pattern_check(p, 100, align));
        allocator.deallocate(p);
    }
    EXPECT_TRUE(allocator.check_invariants());
}

TEST_F(HoardAllocatorTest, AlignedHugeAllocation)
{
    NativeHoard allocator(small_config());
    void* p = allocator.allocate_aligned(50000, 4096);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(detail::is_aligned(p, 4096));
    EXPECT_GE(allocator.usable_size(p), 50000u);
    allocator.deallocate(p);
}

TEST_F(HoardAllocatorTest, AlignedAllocationRejectsBadAlignment)
{
    NativeHoard allocator(small_config());
    EXPECT_DEATH(allocator.allocate_aligned(10, 48), "power of two");
    EXPECT_DEATH(allocator.allocate_aligned(10, 8192), "exceeds");
}

TEST_F(HoardAllocatorTest, ReallocateGrowsAndPreserves)
{
    NativeHoard allocator(small_config());
    auto* p = static_cast<char*>(allocator.allocate(40));
    detail::pattern_fill(p, 40, 3);
    auto* q = static_cast<char*>(allocator.reallocate(p, 4000));
    ASSERT_NE(q, nullptr);
    // Contents of the first 40 bytes moved verbatim.
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(q[i], static_cast<char>(detail::pattern_byte(p, i, 3)));
    allocator.deallocate(q);
}

TEST_F(HoardAllocatorTest, ReallocateSameClassReturnsSamePointer)
{
    NativeHoard allocator(small_config());
    void* p = allocator.allocate(100);
    std::size_t usable = allocator.usable_size(p);
    EXPECT_EQ(allocator.reallocate(p, usable), p);
    allocator.deallocate(p);
}

TEST_F(HoardAllocatorTest, ReallocateEdgeCases)
{
    NativeHoard allocator(small_config());
    void* fresh = allocator.reallocate(nullptr, 64);
    EXPECT_NE(fresh, nullptr);
    EXPECT_EQ(allocator.reallocate(fresh, 0), nullptr);  // acts as free
    EXPECT_EQ(allocator.stats().allocs.get(),
              allocator.stats().frees.get());
}

TEST_F(HoardAllocatorTest, StatsCountOperations)
{
    NativeHoard allocator(small_config());
    std::vector<void*> blocks;
    for (int i = 0; i < 100; ++i)
        blocks.push_back(allocator.allocate(32));
    EXPECT_EQ(allocator.stats().allocs.get(), 100u);
    EXPECT_EQ(allocator.stats().frees.get(), 0u);
    EXPECT_GE(allocator.stats().in_use_bytes.current(), 3200u);
    for (void* p : blocks)
        allocator.deallocate(p);
    EXPECT_EQ(allocator.stats().frees.get(), 100u);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_GT(allocator.stats().held_bytes.current(), 0u)
        << "empty superblocks are cached, not unmapped";
}

TEST_F(HoardAllocatorTest, ReleaseFreeMemoryUnmapsCachedEmpties)
{
    Config config = small_config();
    config.slack_superblocks = 0;  // every emptied superblock leaves
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);
    std::vector<void*> blocks;
    for (int i = 0; i < 5000; ++i)
        blocks.push_back(allocator.allocate(64));
    const std::size_t peak = allocator.stats().committed_bytes.current();
    for (void* p : blocks)
        allocator.deallocate(p);

    // The empties sit in the global heap's reuse cache, still mapped.
    EXPECT_GT(allocator.stats().cache_pushes.get(), 0u);
    EXPECT_EQ(allocator.heap_held(1), 0u);
    const std::size_t cached = allocator.heap_held(0);
    EXPECT_EQ(cached, allocator.stats().held_bytes.current());
    EXPECT_EQ(allocator.stats().committed_bytes.current(), peak);

    EXPECT_EQ(allocator.release_free_memory(), cached);
    EXPECT_EQ(allocator.heap_held(0), 0u);
    EXPECT_EQ(allocator.stats().held_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().committed_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST_F(HoardAllocatorTest, HeapAssignmentFollowsThreadIndex)
{
    Config config = small_config();
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);
    EXPECT_EQ(allocator.my_heap_index(), 1);
    NativePolicy::rebind_thread_index(3);
    EXPECT_EQ(allocator.my_heap_index(), 4);
    NativePolicy::rebind_thread_index(4);
    EXPECT_EQ(allocator.my_heap_index(), 1);  // wraps mod heap_count
}

TEST_F(HoardAllocatorTest, CrossHeapFreeViaRebinding)
{
    NativeHoard allocator(small_config());
    NativePolicy::rebind_thread_index(0);
    std::vector<void*> blocks;
    for (int i = 0; i < 2000; ++i)
        blocks.push_back(allocator.allocate(64));

    NativePolicy::rebind_thread_index(1);
    for (void* p : blocks)
        allocator.deallocate(p);

    EXPECT_TRUE(allocator.check_invariants());
    // The emptied superblocks must have migrated to the global heap
    // (or back through it), not stayed captive in heap 1.
    EXPECT_GT(allocator.stats().superblock_transfers.get(), 0u);
    std::size_t global_held = allocator.heap_held(0);
    EXPECT_GT(global_held, 0u);
}

TEST_F(HoardAllocatorTest, GlobalHeapRecyclesAcrossSizeClasses)
{
    Config config = small_config();
    // No slack: emptied superblocks must flow to the global heap
    // immediately (this test exercises the recycling machinery; the
    // default K would retain them in the per-processor heap instead).
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);
    // Create superblocks of class A, empty them to the global heap.
    std::vector<void*> blocks;
    for (int i = 0; i < 2000; ++i)
        blocks.push_back(allocator.allocate(32));
    for (void* p : blocks)
        allocator.deallocate(p);
    std::uint64_t mapped_before = allocator.stats().superblock_allocs.get();

    // Allocate a different class: recycled superblocks must be reused.
    blocks.clear();
    for (int i = 0; i < 500; ++i)
        blocks.push_back(allocator.allocate(128));
    std::uint64_t mapped_after = allocator.stats().superblock_allocs.get();
    // 500 x 128 B needs ~8 superblocks; recycling must cover most of
    // them (the per-heap K-slack retains a few class-32 stragglers).
    EXPECT_LT(mapped_after - mapped_before, 6u)
        << "class-128 demand should be served by recycled superblocks";
    for (void* p : blocks)
        allocator.deallocate(p);
}

TEST_F(HoardAllocatorTest, ManySizesChurnKeepsInvariants)
{
    NativeHoard allocator(small_config());
    detail::Rng rng(21);
    std::vector<std::pair<void*, std::size_t>> live;
    for (int op = 0; op < 20000; ++op) {
        if (live.size() < 200 || rng.chance(0.5)) {
            std::size_t size = rng.range(1, 2000);
            void* p = allocator.allocate(size);
            detail::pattern_fill(p, size, size);
            live.emplace_back(p, size);
        } else {
            auto idx = static_cast<std::size_t>(rng.below(live.size()));
            EXPECT_TRUE(detail::pattern_check(live[idx].first,
                                              live[idx].second,
                                              live[idx].second));
            allocator.deallocate(live[idx].first);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    EXPECT_TRUE(allocator.check_invariants());
    for (auto& [p, size] : live)
        allocator.deallocate(p);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST_F(HoardAllocatorTest, ConfigValidationRejectsBadValues)
{
    Config bad;
    bad.superblock_bytes = 5000;  // not a power of two
    EXPECT_DEATH(NativeHoard{bad}, "power of two");

    Config bad2;
    bad2.empty_fraction = 1.5;
    EXPECT_DEATH(NativeHoard{bad2}, "empty_fraction");

    Config bad3;
    bad3.heap_count = 0;
    EXPECT_DEATH(NativeHoard{bad3}, "heap_count");
}

TEST_F(HoardAllocatorTest, CustomSuperblockSizes)
{
    for (std::size_t s : {std::size_t{4096}, std::size_t{16384},
                          std::size_t{65536}}) {
        Config config;
        config.superblock_bytes = s;
        config.heap_count = 2;
        NativeHoard allocator(config);
        std::vector<void*> blocks;
        for (int i = 0; i < 500; ++i) {
            void* p = allocator.allocate(100);
            detail::pattern_fill(p, 100, s);
            blocks.push_back(p);
        }
        for (void* p : blocks) {
            EXPECT_TRUE(detail::pattern_check(p, 100, s));
            allocator.deallocate(p);
        }
        EXPECT_TRUE(allocator.check_invariants());
    }
}

}  // namespace
}  // namespace hoard
