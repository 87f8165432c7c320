/**
 * @file
 * Tests for the sharded global-heap slow path: per-size-class bins
 * with batched fetch/transfer, the class-keyed lock-free reuse cache,
 * and the drain/scavenge protocols that keep snapshots byte-exact.
 * The claims under test:
 *
 *  - a cold heap's fetch pulls up to kGlobalFetchBatch superblocks
 *    from its class's bin in one visit;
 *  - the reuse cache is the one home of an empty superblock: one that
 *    empties inside a bin leaves it for the cache, a same-class
 *    refetch takes it back without an OS mapping, and
 *    release_free_memory unmaps it;
 *  - empty superblocks recycle through the cache within and across
 *    size classes without fresh OS mappings;
 *  - under multi-threaded churn that populates the bins, quiescent
 *    snapshots reconcile byte-exactly, every remote free is drained,
 *    and the emptiness invariant verdict stays green — in both the
 *    native and deterministic-sim worlds.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/facade.h"
#include "core/hoard_allocator.h"
#include "obs/snapshot.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"
#include "workloads/runners.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;
using SimHoard = HoardAllocator<SimPolicy>;

/** Paper-literal victim mode so partial superblocks reach the bins. */
Config
bin_config(int heaps)
{
    Config config;
    config.heap_count = heaps;
    config.empty_fraction = 0.25;
    config.release_threshold = 0.25;
    config.slack_superblocks = 0;
    return config;
}

/** Fills the calling thread's heap with @p superblocks half-full
    superblocks of 64-byte blocks and lets the invariant sweep them
    into the global bin.  Returns the still-live blocks. */
template <typename Hoard>
std::vector<void*>
populate_bin(Hoard& allocator, int superblocks)
{
    const std::size_t per_sb =
        Superblock::payload_bytes_for(
            allocator.config().superblock_bytes) /
        64;
    std::vector<void*> blocks;
    for (std::size_t i = 0;
         i < per_sb * static_cast<std::size_t>(superblocks); ++i)
        blocks.push_back(allocator.allocate(64));
    // Free every other block: each superblock turns half-empty, the
    // heap's occupancy ratio falls to 1/2 < (1 - f), and with K = 0
    // every free sweeps victims into the class bin.
    std::vector<void*> live;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (i % 2 == 0)
            allocator.deallocate(blocks[i]);
        else
            live.push_back(blocks[i]);
    }
    return live;
}

/** Superblocks linked in @p hs's lists (for heap 0: the bins only,
    not the reuse cache). */
std::size_t
listed_superblocks(const obs::HeapSnapshot& hs)
{
    std::size_t n = 0;
    for (const obs::ClassSnapshot& cs : hs.classes)
        n += cs.superblocks;
    return n;
}

/**
 * Superblocks that empty inside a global bin leave it for the reuse
 * cache: each raises cache_pushes once, the bins hold nothing at
 * quiescence, a same-class refetch maps nothing new, and
 * release_free_memory() returns every held byte.  Lock-taking, so a
 * SimHoard runs it inside a simulated thread.
 */
template <typename Hoard>
void
check_one_home_for_empties(Hoard& allocator)
{
    std::vector<void*> live = populate_bin(allocator, 6);
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    const std::size_t in_bins = listed_superblocks(snap.heaps[0]);
    const std::size_t in_heap = listed_superblocks(
        snap.heaps[static_cast<std::size_t>(allocator.my_heap_index())]);
    ASSERT_GT(in_bins, 0u)
        << "partial superblocks should have transferred to the bin";
    const std::uint64_t pushes0 = allocator.stats().cache_pushes.get();

    // Free the rest.  Every superblock, in a bin or still in the heap,
    // empties and is pushed onto the reuse cache exactly once.
    for (void* q : live)
        allocator.deallocate(q);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().cache_pushes.get() - pushes0,
              in_bins + in_heap);
    EXPECT_TRUE(allocator.check_invariants());

    snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    const obs::HeapSnapshot& global = snap.heaps[0];
    EXPECT_EQ(listed_superblocks(global), 0u) << "a bin kept an empty";
    EXPECT_EQ(global.in_use, 0u);
    EXPECT_EQ(global.empty_cached, in_bins + in_heap);
    EXPECT_EQ(global.held,
              global.empty_cached * allocator.config().superblock_bytes)
        << "the bins' own held must be 0";

    // A same-class refetch pops a cached superblock still formatted
    // for the class: no fresh mapping.
    const std::uint64_t maps0 =
        allocator.stats().superblock_allocs.get();
    const std::uint64_t pops0 = allocator.stats().cache_pops.get();
    void* p = allocator.allocate(64);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(allocator.stats().superblock_allocs.get(), maps0);
    EXPECT_EQ(allocator.stats().cache_pops.get(), pops0 + 1);
    allocator.deallocate(p);

    // Memory pressure unmaps the whole cache.
    EXPECT_GT(allocator.release_free_memory(), 0u);
    EXPECT_EQ(allocator.stats().held_bytes.current(), 0u);
    EXPECT_EQ(allocator.heap_held(0), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(GlobalBins, BatchedFetchPullsMultipleSuperblocks)
{
    NativeHoard allocator(bin_config(2));
    NativePolicy::rebind_thread_index(0);
    std::vector<void*> live = populate_bin(allocator, 6);
    ASSERT_GT(allocator.heap_held(0), 0u)
        << "partial superblocks should have transferred to the bin";
    const std::uint64_t fetches0 =
        allocator.stats().global_fetches.get();
    const std::uint64_t hits0 =
        allocator.stats().global_bin_hits.get();

    // A different heap going cold on the same class: one allocation
    // must batch-pull several superblocks under one bin visit.
    NativePolicy::rebind_thread_index(1);
    ASSERT_EQ(allocator.my_heap_index(), 2);
    void* p = allocator.allocate(64);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(allocator.stats().global_bin_hits.get(), hits0 + 1);
    const std::uint64_t pulled =
        allocator.stats().global_fetches.get() - fetches0;
    EXPECT_GE(pulled, 2u) << "fetch did not batch";
    EXPECT_LE(pulled, NativeHoard::kGlobalFetchBatch);
    EXPECT_TRUE(allocator.check_invariants());

    allocator.deallocate(p);
    for (void* q : live)
        allocator.deallocate(q);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(GlobalBins, BinEmptiesRetireToReuseCache)
{
    NativeHoard allocator(bin_config(2));
    NativePolicy::rebind_thread_index(0);
    check_one_home_for_empties(allocator);
}

TEST(GlobalBins, SimBinEmptiesRetireToReuseCache)
{
    SimHoard allocator(bin_config(2));
    sim::Machine machine(1);
    machine.spawn(0, 0, [&allocator] {
        check_one_home_for_empties(allocator);
    });
    machine.run();
}

TEST(ReuseCache, SameClassRoundTripSkipsTheOs)
{
    Config config;
    config.heap_count = 2;
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);

    std::vector<void*> blocks;
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(allocator.allocate(64));
    for (void* p : blocks)
        allocator.deallocate(p);
    blocks.clear();
    ASSERT_GT(allocator.stats().cache_pushes.get(), 0u);

    // Same class again: every superblock comes back out of the keyed
    // cache, already formatted — no OS traffic.
    const std::uint64_t maps0 =
        allocator.stats().superblock_allocs.get();
    const std::uint64_t pops0 = allocator.stats().cache_pops.get();
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(allocator.allocate(64));
    EXPECT_EQ(allocator.stats().superblock_allocs.get(), maps0);
    EXPECT_GT(allocator.stats().cache_pops.get(), pops0);

    for (void* p : blocks)
        allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ReuseCache, CrossClassStealRecyclesFormattedSpans)
{
    Config config;
    config.heap_count = 2;
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);

    std::vector<void*> blocks;
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(allocator.allocate(64));
    for (void* p : blocks)
        allocator.deallocate(p);
    blocks.clear();

    // A different class finds its own stack empty and steals from the
    // 64-byte class's stack — still no OS traffic.
    const std::uint64_t maps0 =
        allocator.stats().superblock_allocs.get();
    const std::uint64_t pops0 = allocator.stats().cache_pops.get();
    for (int i = 0; i < 200; ++i)
        blocks.push_back(allocator.allocate(256));
    EXPECT_EQ(allocator.stats().superblock_allocs.get(), maps0);
    EXPECT_GT(allocator.stats().cache_pops.get(), pops0);

    for (void* p : blocks)
        allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

/**
 * Native churn that populates the global bins, then cross-thread frees
 * of every survivor; quiescent snapshots must reconcile byte-exactly
 * with every remote free drained.  Under @p config's magazines the
 * frees park in the freeing thread's cache and spill through
 * return_chain, so bin-owned superblocks take batched returns too.
 */
void
native_churn_reconciles_with_bins_populated(const Config& config)
{
    constexpr int kThreads = 4;
    constexpr int kBlocks = 600;
    NativeHoard allocator(config);

    // Phase 1: every thread allocates its own size mix, then frees
    // every other block — partial superblocks stream into the bins
    // while the survivors pin them partially full.
    std::vector<std::vector<void*>> live(kThreads);
    workloads::native_run(kThreads, [&](int tid) {
        NativePolicy::rebind_thread_index(tid);
        const std::size_t bytes = 64u << (tid % 3);
        std::vector<void*> mine;
        for (int i = 0; i < kBlocks; ++i)
            mine.push_back(allocator.allocate(bytes));
        for (std::size_t i = 0; i < mine.size(); ++i) {
            if (i % 2 == 0)
                allocator.deallocate(mine[i]);
            else
                live[static_cast<std::size_t>(tid)].push_back(mine[i]);
        }
    });

    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_GT(snap.heaps[0].held, 0u) << "bins are not populated";
    EXPECT_TRUE(snap.reconciles());
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());
    EXPECT_EQ(snap.stats.remote_frees, snap.stats.remote_drains);

    // Phase 2: threads free their *neighbor's* survivors, forcing
    // cross-thread frees into foreign heaps and the bins.
    workloads::native_run(kThreads, [&](int tid) {
        NativePolicy::rebind_thread_index(tid);
        auto& victim = live[static_cast<std::size_t>(
            (tid + 1) % kThreads)];
        for (void* p : victim)
            allocator.deallocate(p);
    });

    // remote_frees may legitimately be zero on a single-core host
    // (frees only queue when the owner lock is observed busy); the
    // invariant is that whatever queued was drained.
    allocator.flush_thread_caches();
    if (config.thread_cache_blocks > 0)
        EXPECT_GT(allocator.stats().batch_flushes.get(), 0u);
    snap = allocator.take_snapshot();
    EXPECT_EQ(snap.stats.in_use_bytes, 0u);
    EXPECT_EQ(snap.cached_bytes, 0u);
    EXPECT_TRUE(snap.reconciles());
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());
    EXPECT_EQ(snap.stats.remote_frees, snap.stats.remote_drains);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(GlobalHeapStress, NativeChurnReconcilesWithBinsPopulated)
{
    native_churn_reconciles_with_bins_populated(bin_config(4));
}

/** The same churn under the configuration libhoard.so ships
    (magazines on), in paper-literal victim mode. */
TEST(GlobalHeapStress, ShippedNativeChurnReconcilesWithBinsPopulated)
{
    Config config = shipped_config();
    config.heap_count = 4;
    config.empty_fraction = 0.25;
    config.release_threshold = 0.25;
    config.slack_superblocks = 0;
    ASSERT_GT(config.thread_cache_blocks, 0u);
    native_churn_reconciles_with_bins_populated(config);
}

TEST(GlobalHeapStress, SimChurnReconcilesWithBinsPopulated)
{
    constexpr int kThreads = 4;
    SimHoard allocator(bin_config(kThreads));

    std::vector<std::vector<void*>> live(kThreads);
    std::uint64_t makespan = workloads::sim_run(
        kThreads, kThreads, [&](int tid) {
            const std::size_t bytes = 64u << (tid % 3);
            std::vector<void*> mine;
            for (int i = 0; i < 400; ++i)
                mine.push_back(allocator.allocate(bytes));
            for (std::size_t i = 0; i < mine.size(); ++i) {
                if (i % 2 == 0)
                    allocator.deallocate(mine[i]);
                else
                    live[static_cast<std::size_t>(tid)].push_back(
                        mine[i]);
            }
        });
    EXPECT_GT(makespan, 0u);

    // Lock-taking introspection runs on a simulated thread.
    obs::AllocatorSnapshot snap;
    sim::Machine checker(1);
    checker.spawn(0, 0, [&allocator, &snap] {
        snap = allocator.take_snapshot();
        EXPECT_TRUE(allocator.check_invariants());
    });
    checker.run();

    EXPECT_GT(snap.heaps[0].held, 0u) << "bins are not populated";
    EXPECT_TRUE(snap.reconciles());
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());
    EXPECT_EQ(snap.stats.remote_frees, snap.stats.remote_drains);

    // Cross-fiber frees, then byte-exact quiescence.
    workloads::sim_run(kThreads, kThreads, [&](int tid) {
        auto& victim = live[static_cast<std::size_t>(
            (tid + 1) % kThreads)];
        for (void* p : victim)
            allocator.deallocate(p);
    });
    sim::Machine final_checker(1);
    final_checker.spawn(0, 0, [&allocator, &snap] {
        snap = allocator.take_snapshot();
        EXPECT_TRUE(allocator.check_invariants());
    });
    final_checker.run();
    EXPECT_EQ(snap.stats.in_use_bytes, 0u);
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(snap.stats.remote_frees, snap.stats.remote_drains);
}

}  // namespace
}  // namespace hoard
