/**
 * @file
 * Purge-pass unit tests: decommit accounting (committed + purged ==
 * held), revival on the fetch path, RSS targeting, the deallocate-tail
 * cadence, provider-refusal rollback, and byte-identical replay under
 * the simulated policy.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/memutil.h"
#include "core/facade.h"
#include "core/hoard_allocator.h"
#include "os/fault_injection.h"
#include "os/page_provider.h"
#include "os/reserved_arena.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;
using SimHoard = HoardAllocator<SimPolicy>;

constexpr std::size_t kSuperblock = std::size_t{64} << 10;
constexpr std::size_t kBlock = 512;
constexpr int kSpikeBlocks = 4000;  // ~34 superblocks at 512 B

/** 64 KiB superblocks so a purged span gives back 15/16 of its pages
    (at the 8 KiB default the header page would be half the span). */
Config
purge_config()
{
    Config config;
    config.heap_count = 1;
    config.superblock_bytes = kSuperblock;
    config.slack_superblocks = 1;
    return config;
}

/** The configuration the shim ships (thread magazines on) over the
    same 64 KiB superblocks. */
Config
shipped_purge_config()
{
    Config config = shipped_config();
    config.superblock_bytes = kSuperblock;
    config.slack_superblocks = 1;
    return config;
}

/** Test-local arenas: 4 MiB reservations instead of 1 GiB. */
os::ReservedArenaProvider::Options
small_arena()
{
    os::ReservedArenaProvider::Options o;
    o.arena_bytes = std::size_t{8} << 20;
    o.max_span_bytes = std::size_t{1} << 20;
    return o;
}

/** Spike: allocate, touch, and free @p count blocks, then flush. */
template <typename Allocator>
void
spike_and_free(Allocator& allocator, int count)
{
    std::vector<void*> blocks;
    blocks.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        void* p = allocator.allocate(kBlock);
        ASSERT_NE(p, nullptr);
        detail::pattern_fill(p, kBlock, static_cast<std::uint64_t>(i));
        blocks.push_back(p);
    }
    for (void* p : blocks)
        allocator.deallocate(p);
    allocator.flush_thread_caches();
}

TEST(PurgePass, ForcePurgeDecommitsAndReconciles)
{
    NativePolicy::rebind_thread_index(0);
    os::ReservedArenaProvider provider(small_arena());
    NativeHoard allocator(purge_config(), provider);
    spike_and_free(allocator, kSpikeBlocks);

    obs::AllocatorSnapshot before = allocator.take_snapshot();
    ASSERT_TRUE(before.reconciles());
    EXPECT_EQ(before.stats.purged_bytes, 0u);
    EXPECT_GT(before.stats.committed_bytes, 10 * kSuperblock);

    const std::size_t released = allocator.purge(/*force=*/true);
    EXPECT_GT(released, 0u);

    obs::AllocatorSnapshot after = allocator.take_snapshot();
    EXPECT_TRUE(after.reconciles());
    // The byte-exact ledger: what purge reported moved, gauge for
    // gauge, from committed to purged; held never changed.
    EXPECT_EQ(after.stats.purged_bytes, released);
    EXPECT_EQ(after.stats.committed_bytes + released,
              before.stats.committed_bytes);
    EXPECT_EQ(after.stats.held_bytes, before.stats.held_bytes);
    // The allocator's committed gauge mirrors the provider's.
    EXPECT_EQ(after.stats.committed_bytes, provider.mapped_bytes());
    EXPECT_GE(allocator.stats().purge_passes.get(), 1u);
    EXPECT_GT(allocator.stats().purged_superblocks.get(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, PurgedSuperblocksReviveIntoService)
{
    NativePolicy::rebind_thread_index(0);
    os::ReservedArenaProvider provider(small_arena());
    NativeHoard allocator(purge_config(), provider);
    spike_and_free(allocator, kSpikeBlocks);
    ASSERT_GT(allocator.purge(/*force=*/true), 0u);
    ASSERT_GT(allocator.stats().purged_bytes.current(), 0u);

    // A second spike must adopt the purged superblocks: memory comes
    // back zero-refaulted and fully usable, the purged gauge drains,
    // and the ledger still reconciles.
    std::vector<void*> blocks;
    for (int i = 0; i < kSpikeBlocks; ++i) {
        void* p = allocator.allocate(kBlock);
        ASSERT_NE(p, nullptr);
        detail::pattern_fill(p, kBlock, static_cast<std::uint64_t>(i));
        blocks.push_back(p);
    }
    EXPECT_GT(allocator.stats().revived_superblocks.get(), 0u);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        EXPECT_TRUE(detail::pattern_check(blocks[i], kBlock, i));

    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    for (void* p : blocks)
        allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, RssTargetStopsAtTheLine)
{
    NativePolicy::rebind_thread_index(0);
    os::ReservedArenaProvider provider(small_arena());
    Config config = purge_config();
    config.rss_target_bytes = 16 * kSuperblock;  // 1 MiB
    // The target also arms the deallocate-tail cadence; on a slow run
    // (sanitizers) the spike's free loop outlasts the interval and a
    // cadence pass purges toward the target before the assertions
    // below.  Park it — this test is about the explicit purge().
    config.purge_interval_ticks = std::uint64_t{1} << 62;
    NativeHoard allocator(config, provider);
    spike_and_free(allocator, kSpikeBlocks);
    ASSERT_GT(allocator.stats().committed_bytes.current(),
              config.rss_target_bytes);

    allocator.purge();
    // Eligibility re-reads the committed gauge per superblock, so the
    // pass decommits just enough to cross the target and then stops —
    // within one superblock of the line, not all the way to zero.
    const std::size_t committed =
        allocator.stats().committed_bytes.current();
    EXPECT_LE(committed, config.rss_target_bytes);
    EXPECT_GT(committed + 2 * kSuperblock, config.rss_target_bytes);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, AgeEligibilityPurgesRetiredEmpties)
{
    NativePolicy::rebind_thread_index(0);
    os::ReservedArenaProvider provider(small_arena());
    Config config = purge_config();
    config.purge_age_ticks = 1;  // everything retired is instantly old
    NativeHoard allocator(config, provider);
    spike_and_free(allocator, kSpikeBlocks);

    EXPECT_GT(allocator.purge(), 0u);
    EXPECT_GT(allocator.stats().purged_bytes.current(), 0u);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
}

TEST(PurgePass, DeallocateTailCadenceRunsPasses)
{
    for (Config config : {purge_config(), shipped_purge_config()}) {
        SCOPED_TRACE(config.thread_cache_blocks);
        NativePolicy::rebind_thread_index(0);
        os::ReservedArenaProvider provider(small_arena());
        config.rss_target_bytes = 1;  // armed, always over target
        config.purge_interval_ticks = 1;
        NativeHoard allocator(config, provider);
        std::vector<void*> blocks;
        for (int i = 0; i < kSpikeBlocks; ++i) {
            blocks.push_back(allocator.allocate(kBlock));
            ASSERT_NE(blocks.back(), nullptr);
        }
        const std::uint64_t passes = allocator.stats().purge_passes.get();
        const std::size_t before =
            allocator.stats().committed_bytes.current();

        // No explicit purge() call: the op cadence (a due check at
        // least every OpTick::kCheckPeriod ops per thread, frees
        // included) must elect passes by itself as the spike drains.
        for (void* p : blocks)
            allocator.deallocate(p);
        for (int i = 0; i < 8192; ++i) {
            void* p = allocator.allocate(64);
            ASSERT_NE(p, nullptr);
            allocator.deallocate(p);
        }
        EXPECT_GT(allocator.stats().purge_passes.get(), passes);
        EXPECT_LT(allocator.stats().committed_bytes.current(), before);
        EXPECT_TRUE(allocator.check_invariants());
    }
}

TEST(PurgePass, ProviderRefusalRollsBackCleanly)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider inner;
    os::FaultInjectingPageProvider provider(inner);
    NativeHoard allocator(purge_config(), provider);
    spike_and_free(allocator, kSpikeBlocks);
    const std::size_t committed =
        allocator.stats().committed_bytes.current();

    // madvise refuses: the pass must report zero bytes, leave every
    // gauge untouched, and keep the superblocks purgeable later.
    provider.set_fail_purges(true);
    EXPECT_EQ(allocator.purge(/*force=*/true), 0u);
    EXPECT_GT(provider.injected_purge_failures(), 0u);
    EXPECT_EQ(allocator.stats().purged_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().committed_bytes.current(), committed);
    EXPECT_EQ(allocator.stats().purged_superblocks.get(), 0u);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());

    // The allocator still serves traffic after the failed pass...
    void* p = allocator.allocate(kBlock);
    ASSERT_NE(p, nullptr);
    allocator.deallocate(p);

    // ...and the same superblocks purge once the provider recovers.
    provider.set_fail_purges(false);
    EXPECT_GT(allocator.purge(/*force=*/true), 0u);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, SimReplayIsByteIdentical)
{
    // The purge pass exists in both policies: identical simulated runs
    // must produce identical makespans (CostKind::os_purge is charged
    // per decommit) and identical footprint ledgers.
    auto run_once = [] {
        os::MmapPageProvider provider;
        Config config;
        config.heap_count = 2;
        config.superblock_bytes = kSuperblock;
        SimHoard allocator(config, provider);
        sim::Machine machine(2);
        std::size_t released = 0;
        machine.spawn(0, 0, [&allocator, &released] {
            std::vector<void*> blocks;
            for (int i = 0; i < 2000; ++i) {
                void* p = allocator.allocate(256);
                ASSERT_NE(p, nullptr);
                blocks.push_back(p);
            }
            for (void* p : blocks)
                allocator.deallocate(p);
            released = allocator.purge(/*force=*/true);
        });
        const std::uint64_t makespan = machine.run();
        return std::make_tuple(
            makespan, released,
            allocator.stats().committed_bytes.current(),
            allocator.stats().purged_bytes.current(),
            allocator.stats().purged_superblocks.get());
    };

    const auto first = run_once();
    const auto second = run_once();
    EXPECT_GT(std::get<1>(first), 0u);
    EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hoard
