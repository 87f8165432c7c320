/** @file Unit tests for counters, gauges, and the stats block. */

#include "common/stats.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace hoard {
namespace detail {
namespace {

TEST(Counter, AddsAndResets)
{
    Counter c;
    EXPECT_EQ(c.get(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.get(), 42u);
    c.reset();
    EXPECT_EQ(c.get(), 0u);
}

TEST(Gauge, TracksLevelAndPeak)
{
    Gauge g;
    g.add(100);
    EXPECT_EQ(g.current(), 100u);
    EXPECT_EQ(g.peak(), 100u);
    g.sub(60);
    EXPECT_EQ(g.current(), 40u);
    EXPECT_EQ(g.peak(), 100u);
    g.add(30);
    EXPECT_EQ(g.current(), 70u);
    EXPECT_EQ(g.peak(), 100u);
    g.add(100);
    EXPECT_EQ(g.peak(), 170u);
}

TEST(Gauge, SubToExactlyZeroIsBalanced)
{
    Gauge g;
    g.add(64);
    g.sub(64);
    EXPECT_EQ(g.current(), 0u);
    EXPECT_EQ(g.peak(), 64u);
}

#ifndef NDEBUG
TEST(GaugeDeathTest, SubBelowZeroIsACallerBug)
{
    Gauge g;
    g.add(10);
    EXPECT_DEATH(g.sub(11), "invariant failed");
}

TEST(GaugeDeathTest, SubOnEmptyGaugeIsACallerBug)
{
    Gauge g;
    EXPECT_DEATH(g.sub(1), "invariant failed");
}
#endif

TEST(Gauge, ResetClearsLevelAndPeak)
{
    Gauge g;
    g.add(100);
    g.sub(40);
    g.reset();
    EXPECT_EQ(g.current(), 0u);
    EXPECT_EQ(g.peak(), 0u);
    g.add(5);
    EXPECT_EQ(g.peak(), 5u);
}

TEST(Gauge, PeakIsSupremumOfRacingLevels)
{
    // Each thread repeatedly holds a distinct level live; the CAS-max
    // loop must record at least the largest single contribution and at
    // most the sum of all concurrent ones.
    Gauge g;
    std::vector<std::thread> threads;
    for (int t = 1; t <= 4; ++t) {
        threads.emplace_back([&g, t] {
            for (int i = 0; i < 10000; ++i) {
                g.add(static_cast<std::uint64_t>(t));
                g.sub(static_cast<std::uint64_t>(t));
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(g.current(), 0u);
    EXPECT_GE(g.peak(), 4u);
    EXPECT_LE(g.peak(), 10u);  // 1+2+3+4
}

TEST(Gauge, PeakUnderConcurrency)
{
    Gauge g;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&g] {
            for (int i = 0; i < 10000; ++i) {
                g.add(3);
                g.sub(3);
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(g.current(), 0u);
    EXPECT_GE(g.peak(), 3u);
    EXPECT_LE(g.peak(), 12u);
}

TEST(Counter, RaiseToKeepsTheMaximum)
{
    Counter c;
    c.raise_to(10);
    EXPECT_EQ(c.get(), 10u);
    c.raise_to(7);  // a fold that finished late never lowers the count
    EXPECT_EQ(c.get(), 10u);
    c.raise_to(12);
    EXPECT_EQ(c.get(), 12u);
}

TEST(OpShard, CountsAndAsksForAFoldAfterGrowingOneStep)
{
    OpShard shard;
    EXPECT_FALSE(shard.count_alloc(10, 16, 100));
    EXPECT_FALSE(shard.count_alloc(50, 64, 100));
    EXPECT_TRUE(shard.count_alloc(20, 32, 100));  // 112 >= 0 + 100
    EXPECT_EQ(shard.peak_mark, 112);
    shard.count_free(64);
    shard.count_free(32);  // the mark follows the level down
    EXPECT_EQ(shard.peak_mark, 16);
    EXPECT_FALSE(shard.count_alloc(1, 96, 100));  // 112 - 16 < 100
    EXPECT_TRUE(shard.count_alloc(1, 16, 100));   // 128 - 16 >= 100
    EXPECT_EQ(shard.allocs.load(), 5u);
    EXPECT_EQ(shard.frees.load(), 2u);
    EXPECT_EQ(shard.requested_bytes.load(), 82u);
    EXPECT_EQ(shard.in_use_bytes.load(), 128);
}

TEST(OpShard, FoldPublishesSignedSumsIntoTheStatsBlock)
{
    OpShard a, b;
    a.count_alloc(100, 128, 1 << 20);
    a.count_alloc(100, 128, 1 << 20);
    b.count_free(128);  // a block of a's, freed into b: b goes negative
    EXPECT_EQ(b.in_use_bytes.load(), -128);
    OpTotals totals;
    totals.add(a);
    totals.add(b);
    AllocatorStats stats;
    stats.publish_ops(totals);
    EXPECT_EQ(stats.allocs.get(), 2u);
    EXPECT_EQ(stats.frees.get(), 1u);
    EXPECT_EQ(stats.requested_bytes.current(), 200u);
    EXPECT_EQ(stats.in_use_bytes.current(), 128u);
    EXPECT_EQ(stats.in_use_bytes.peak(), 128u);
    // A negative sum can only come from a racy fold; it reads as 0.
    OpTotals racy;
    racy.add(b);
    stats.publish_ops(racy);
    EXPECT_EQ(stats.in_use_bytes.current(), 0u);
    EXPECT_EQ(stats.allocs.get(), 2u);
}

TEST(AllocatorStats, FragmentationDefinition)
{
    AllocatorStats stats;
    EXPECT_DOUBLE_EQ(stats.fragmentation(), 1.0);  // no data yet
    stats.in_use_bytes.add(100);
    stats.held_bytes.add(150);
    EXPECT_DOUBLE_EQ(stats.fragmentation(), 1.5);
    // Fragmentation uses peaks, not current levels.
    stats.in_use_bytes.sub(100);
    stats.held_bytes.sub(150);
    EXPECT_DOUBLE_EQ(stats.fragmentation(), 1.5);
}

}  // namespace
}  // namespace detail
}  // namespace hoard
