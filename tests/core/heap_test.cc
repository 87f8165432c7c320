/** @file Unit tests for Heap's fullness-group bookkeeping. */

#include "core/heap.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/config.h"
#include "core/size_classes.h"
#include "os/page_provider.h"
#include "policy/native_policy.h"

namespace hoard {
namespace {

constexpr std::size_t kS = 8192;

class HeapTest : public ::testing::Test
{
  protected:
    HeapTest() : classes_(config_, Superblock::payload_bytes_for(kS)) {}

    Superblock*
    make_superblock(int cls)
    {
        void* mem = provider_.map(kS, kS);
        mapped_.push_back(mem);
        return Superblock::create(
            mem, kS, cls,
            static_cast<std::uint32_t>(classes_.block_size(cls)));
    }

    void
    TearDown() override
    {
        for (void* mem : mapped_)
            provider_.unmap(mem, kS);
    }

    Config config_;
    SizeClasses classes_;
    os::MmapPageProvider provider_;
    std::vector<void*> mapped_;
    Heap<NativePolicy> heap_{1, 0, 40};
};

TEST_F(HeapTest, LinkPlacesInCorrectGroup)
{
    Superblock* sb = make_superblock(0);
    heap_.link(sb);
    int probes = 0;
    // Empty superblock lives in band 0, which find_allocatable reaches
    // only after probing every fuller band.
    EXPECT_EQ(heap_.find_allocatable(0, &probes), sb);
    EXPECT_EQ(probes, Superblock::kFullnessBands);
}

TEST_F(HeapTest, FindAllocatablePrefersFullest)
{
    Superblock* nearly_full = make_superblock(0);
    Superblock* half = make_superblock(0);
    Superblock* empty = make_superblock(0);

    while (!nearly_full->full())
        nearly_full->allocate();
    nearly_full->deallocate(
        nearly_full->payload_begin());  // one free slot
    for (std::uint32_t i = 0; i < half->capacity() / 2; ++i)
        half->allocate();

    heap_.link(empty);
    heap_.link(half);
    heap_.link(nearly_full);

    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), nearly_full);
}

TEST_F(HeapTest, FullSuperblocksNotOffered)
{
    Superblock* sb = make_superblock(0);
    while (!sb->full())
        sb->allocate();
    heap_.link(sb);
    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), nullptr);
}

TEST_F(HeapTest, RelinkFollowsFullnessChanges)
{
    Superblock* sb = make_superblock(0);
    heap_.link(sb);
    // Fill it completely, relinking as the group changes.
    while (!sb->full()) {
        int old_group = sb->fullness_group();
        sb->allocate();
        heap_.relink(sb, old_group);
    }
    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), nullptr);
    // Free one block: it must be findable again.
    int old_group = sb->fullness_group();
    sb->deallocate(sb->payload_begin());
    heap_.relink(sb, old_group);
    EXPECT_EQ(heap_.find_allocatable(0, &probes), sb);
}

TEST_F(HeapTest, ClassesAreSegregated)
{
    Superblock* a = make_superblock(0);
    Superblock* b = make_superblock(3);
    heap_.link(a);
    heap_.link(b);
    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), a);
    EXPECT_EQ(heap_.find_allocatable(3, &probes), b);
    EXPECT_EQ(heap_.find_allocatable(7, &probes), nullptr);
}

TEST_F(HeapTest, TransferVictimMustBeFractionEmpty)
{
    Superblock* busy = make_superblock(0);
    // Fill until fewer than 26% of its blocks are free.
    while (busy->at_least_fraction_empty(0.26) && !busy->full())
        busy->allocate();
    heap_.link(busy);
    // busy is less than 26% empty, so no victim at f=0.5.
    EXPECT_EQ(heap_.find_transfer_victim(0.5), nullptr);

    Superblock* idle = make_superblock(2);
    idle->allocate();
    heap_.link(idle);
    EXPECT_EQ(heap_.find_transfer_victim(0.5), idle);
}

TEST_F(HeapTest, TransferVictimPrefersEmptiest)
{
    Superblock* half = make_superblock(0);
    for (std::uint32_t i = 0; i < half->capacity() / 2; ++i)
        half->allocate();
    Superblock* nearly_empty = make_superblock(0);
    nearly_empty->allocate();
    heap_.link(half);
    heap_.link(nearly_empty);
    EXPECT_EQ(heap_.find_transfer_victim(0.25), nearly_empty);
}

TEST_F(HeapTest, UnlinkRemovesFromGroup)
{
    Superblock* sb = make_superblock(0);
    heap_.link(sb);
    heap_.unlink(sb, sb->fullness_group());
    int probes = 0;
    EXPECT_EQ(heap_.find_allocatable(0, &probes), nullptr);
}

/**
 * A global-heap shard: heap 0 over the single class k.  Its one list
 * set is bins[0], reached through class k (not class 0), and every
 * link and unlink keeps the occupancy count exact; relink moves a
 * superblock between groups without changing it.
 */
TEST_F(HeapTest, OneClassShardReachesItsListsAndCountsOccupancy)
{
    constexpr int kClass = 5;
    Heap<NativePolicy> shard(0, kClass, 1);
    ASSERT_EQ(shard.bins.size(), 1u);
    EXPECT_EQ(shard.occupancy.load(), 0u);

    Superblock* partial = make_superblock(kClass);
    for (std::uint32_t i = 0; i < partial->capacity() / 2; ++i)
        partial->allocate();
    Superblock* nearly_full = make_superblock(kClass);
    while (!nearly_full->full())
        nearly_full->allocate();
    nearly_full->deallocate(nearly_full->payload_begin());

    shard.link(partial);
    EXPECT_EQ(shard.occupancy.load(), 1u);
    EXPECT_EQ(shard.bins[0].groups[partial->fullness_group()].front(),
              partial);
    shard.link(nearly_full);
    EXPECT_EQ(shard.occupancy.load(), 2u);

    // Fullest first, found through the shard's own class.
    int probes = 0;
    EXPECT_EQ(shard.find_allocatable(kClass, &probes), nearly_full);

    // Filling the nearly-full one moves it to the full group: relink
    // follows, the count does not move, and the partial is next.
    int old_group = nearly_full->fullness_group();
    nearly_full->allocate();
    shard.relink(nearly_full, old_group);
    EXPECT_EQ(shard.bins[0].groups[Superblock::kFullGroup].front(),
              nearly_full);
    EXPECT_EQ(shard.occupancy.load(), 2u);
    EXPECT_EQ(shard.find_allocatable(kClass, &probes), partial);

    shard.unlink(partial, partial->fullness_group());
    EXPECT_EQ(shard.occupancy.load(), 1u);
    EXPECT_EQ(shard.find_allocatable(kClass, &probes), nullptr);
    shard.unlink(nearly_full, nearly_full->fullness_group());
    EXPECT_EQ(shard.occupancy.load(), 0u);
    for (const SuperblockList& group : shard.bins[0].groups)
        EXPECT_TRUE(group.empty());
}

/** A per-processor heap keeps the same exact count across classes. */
TEST_F(HeapTest, OccupancyCountsEveryClass)
{
    Superblock* a = make_superblock(0);
    Superblock* b = make_superblock(3);
    heap_.link(a);
    heap_.link(b);
    EXPECT_EQ(heap_.occupancy.load(), 2u);
    heap_.unlink(a, a->fullness_group());
    EXPECT_EQ(heap_.occupancy.load(), 1u);
}

}  // namespace
}  // namespace hoard
