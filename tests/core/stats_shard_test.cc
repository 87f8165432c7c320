/**
 * @file
 * The sharded per-operation statistics (common/stats.h OpShard): the
 * folded allocs / frees / requested / in-use totals must equal a
 * shadow count exactly once the writers are quiescent, whatever mix of
 * locked, magazine, aligned, huge and cross-thread paths produced
 * them; rejected frees and failed allocations must count nothing; and
 * the folded in-use peak must stay within its documented bound of the
 * true one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/hoard_allocator.h"
#include "os/fault_injection.h"
#include "os/page_provider.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;
using SimHoard = HoardAllocator<SimPolicy>;

/** A live block and the in-use bytes the allocator charged for it. */
struct Live
{
    void* p;
    std::size_t charged;
};

/** What the allocator charges to in_use_bytes for a request of @p size
    at @p align (mirrors allocate / allocate_aligned). */
template <typename Alloc>
std::size_t
charged_bytes(const Alloc& allocator, std::size_t size, std::size_t align)
{
    const SizeClasses& classes = allocator.size_classes();
    const int cls = classes.class_for(align <= 16 ? size : size + align);
    return cls == SizeClasses::kHuge ? size : classes.block_size(cls);
}

/** One churn thread's shadow of the per-op books. */
struct Shadow
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t requested = 0;
    std::int64_t in_use = 0;
};

/** Mailbox handing blocks to the next thread (cross-thread frees). */
struct Mailbox
{
    std::mutex mutex;
    std::vector<Live> blocks;
};

class ExactFoldChurn : public ::testing::TestWithParam<std::uint32_t>
{};

/**
 * Native churn over every small-object path plus the huge path, with
 * one heap per two threads so owners are often busy and frees take
 * the remote-push path.  A reader folds stats() and takes snapshots
 * throughout; its allocs reading must never go down.
 */
TEST_P(ExactFoldChurn, TotalsMatchShadowAfterConcurrentChurn)
{
    constexpr int kThreads = 4;
    constexpr int kOps = 20000;
    Config config;
    config.heap_count = 2;
    config.thread_cache_blocks = GetParam();
    NativeHoard allocator(config);

    std::vector<Shadow> shadows(kThreads);
    std::vector<std::vector<Live>> leftovers(kThreads);
    std::vector<Mailbox> mailboxes(kThreads);
    std::atomic<int> running{kThreads};

    auto churn = [&](int tid) {
        NativePolicy::rebind_thread_index(tid);
        detail::Rng rng(0x5eed + static_cast<std::uint64_t>(tid));
        Shadow& shadow = shadows[static_cast<std::size_t>(tid)];
        std::vector<Live>& live = leftovers[static_cast<std::size_t>(tid)];
        Mailbox& next = mailboxes[static_cast<std::size_t>(
            (tid + 1) % kThreads)];
        Mailbox& mine = mailboxes[static_cast<std::size_t>(tid)];
        for (int i = 0; i < kOps; ++i) {
            const std::uint64_t roll = rng.below(100);
            if (roll < 50 || live.empty()) {
                std::size_t size = rng.range(1, 1500);
                std::size_t align = 16;
                if (rng.chance(0.02))
                    size = rng.range(5000, 40000);  // huge path
                void* p;
                if (rng.chance(0.2)) {
                    align = std::size_t{32} << rng.below(4);
                    p = allocator.allocate_aligned(size, align);
                } else {
                    p = allocator.allocate(size);
                }
                if (p == nullptr) {
                    ADD_FAILURE() << "allocation failed";
                    break;
                }
                const std::size_t charged =
                    charged_bytes(allocator, size, align);
                ++shadow.allocs;
                shadow.requested += size;
                shadow.in_use += static_cast<std::int64_t>(charged);
                live.push_back({p, charged});
            } else if (roll < 65) {
                const std::size_t at = rng.below(live.size());
                std::lock_guard<std::mutex> guard(next.mutex);
                next.blocks.push_back(live[at]);
                live[at] = live.back();
                live.pop_back();
            } else {
                {
                    std::lock_guard<std::mutex> guard(mine.mutex);
                    live.insert(live.end(), mine.blocks.begin(),
                                mine.blocks.end());
                    mine.blocks.clear();
                }
                const std::size_t at = rng.below(live.size());
                allocator.deallocate(live[at].p);
                ++shadow.frees;
                shadow.in_use -= static_cast<std::int64_t>(live[at].charged);
                live[at] = live.back();
                live.pop_back();
            }
        }
        running.fetch_sub(1);
    };

    std::thread reader([&] {
        std::uint64_t last_allocs = 0;
        while (running.load() > 0) {
            const std::uint64_t allocs = allocator.stats().allocs.get();
            EXPECT_GE(allocs, last_allocs);
            last_allocs = allocs;
            obs::AllocatorSnapshot snap = allocator.take_snapshot();
            EXPECT_GE(snap.stats.allocs, last_allocs);
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(churn, t);
    for (auto& th : threads)
        th.join();
    reader.join();

    Shadow total;
    std::vector<Live> survivors;
    for (int t = 0; t < kThreads; ++t) {
        const Shadow& s = shadows[static_cast<std::size_t>(t)];
        total.allocs += s.allocs;
        total.frees += s.frees;
        total.requested += s.requested;
        total.in_use += s.in_use;
        survivors.insert(survivors.end(), leftovers[t].begin(),
                         leftovers[t].end());
        survivors.insert(survivors.end(), mailboxes[t].blocks.begin(),
                         mailboxes[t].blocks.end());
    }
    ASSERT_GT(total.in_use, 0);

    const detail::AllocatorStats& stats = allocator.stats();
    EXPECT_EQ(stats.allocs.get(), total.allocs);
    EXPECT_EQ(stats.frees.get(), total.frees);
    EXPECT_EQ(stats.requested_bytes.current(), total.requested);
    EXPECT_EQ(stats.requested_bytes.peak(), total.requested);
    EXPECT_EQ(stats.in_use_bytes.current(),
              static_cast<std::uint64_t>(total.in_use));
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(snap.stats.allocs, total.allocs);
    EXPECT_EQ(snap.stats.frees, total.frees);
    EXPECT_EQ(snap.stats.in_use_bytes,
              static_cast<std::uint64_t>(total.in_use));

    for (const Live& b : survivors)
        allocator.deallocate(b.p);
    allocator.flush_thread_caches();
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().frees.get(), total.allocs);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Magazines, ExactFoldChurn,
                         ::testing::Values(0u, 64u),
                         [](const auto& info) {
                             return info.param == 0 ? std::string("off")
                                                    : std::string("on");
                         });

/** The four per-op counts, read through one fold. */
struct OpCounts
{
    std::uint64_t allocs, frees, requested, in_use;

    bool operator==(const OpCounts&) const = default;
};

template <typename Alloc>
OpCounts
op_counts(const Alloc& allocator)
{
    const detail::AllocatorStats& s = allocator.stats();
    return {s.allocs.get(), s.frees.get(), s.requested_bytes.current(),
            s.in_use_bytes.current()};
}

TEST(ExactFold, RejectedDoubleFreeCountsNothing)
{
    NativePolicy::rebind_thread_index(0);
    Config config;
    config.heap_count = 1;
    config.on_bad_free = Config::BadFreePolicy::warn;
    NativeHoard allocator(config);
    void* keep = allocator.allocate(64);
    void* p = allocator.allocate(64);
    ASSERT_NE(keep, nullptr);
    ASSERT_NE(p, nullptr);
    allocator.deallocate(p);
    const OpCounts before = op_counts(allocator);
    // p now heads its superblock's free list: the under-lock probe on
    // the locked free path rejects it.
    allocator.deallocate(p);
    EXPECT_EQ(allocator.stats().bad_free_double.get(), 1u);
    EXPECT_EQ(op_counts(allocator), before);
    allocator.deallocate(keep);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
}

TEST(ExactFold, FailedAllocationsCountNothing)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider inner;
    os::FaultInjectingPageProvider provider(inner);
    Config config;
    config.heap_count = 1;
    NativeHoard allocator(config, provider);
    void* keep = allocator.allocate(64);
    ASSERT_NE(keep, nullptr);
    const OpCounts before = op_counts(allocator);
    provider.fail_with_probability(1.0, 1);
    // Each needs fresh memory: a new class, an aligned block of yet
    // another class, and a huge span.
    EXPECT_EQ(allocator.allocate(1024), nullptr);
    EXPECT_EQ(allocator.allocate_aligned(100, 2048), nullptr);
    EXPECT_EQ(allocator.allocate(100000), nullptr);
    EXPECT_EQ(allocator.stats().oom_failures.get(), 3u);
    EXPECT_EQ(op_counts(allocator), before);
    provider.fail_with_probability(0.0, 1);
    allocator.deallocate(keep);
}

/**
 * The folded in-use peak against the exact one, under the
 * deterministic simulator (one fiber standing in for every heap's
 * thread, so the shadow is exact at every instant).  Each heap first
 * fills and empties superblocks of two classes in turn, then refills
 * both at once from the superblocks it already holds: that final climb
 * crosses no superblock boundary, so only the shards' own
 * grown-by-S folds can see the true peak.  The bound is
 * heap_count x S (magazines off; only heap shards grow).
 */
std::uint64_t
run_peak_case(std::uint64_t seed, std::uint64_t* exact_peak)
{
    constexpr int kHeaps = 4;
    Config config;
    config.heap_count = kHeaps;
    // Keep emptied superblocks in their heaps, so the refill reuses them.
    config.slack_superblocks = std::size_t{1} << 20;
    SimHoard allocator(config);
    std::uint64_t reported = 0;
    sim::Machine machine(1);
    machine.spawn(0, 0, [&] {
        detail::Rng rng(seed);
        std::vector<std::vector<void*>> live(kHeaps);
        std::uint64_t in_use = 0;
        std::uint64_t peak = 0;
        auto alloc = [&](int heap, std::size_t size) {
            SimPolicy::rebind_thread_index(heap);
            void* p = allocator.allocate(size);
            ASSERT_NE(p, nullptr);
            live[static_cast<std::size_t>(heap)].push_back(p);
            in_use += charged_bytes(allocator, size, 16);
            peak = std::max(peak, in_use);
        };
        auto free_all = [&] {
            // Random owner-heap and freeing-heap pairs: cross-heap frees.
            for (auto& blocks : live) {
                while (!blocks.empty()) {
                    SimPolicy::rebind_thread_index(
                        static_cast<int>(rng.below(kHeaps)));
                    const std::size_t at = rng.below(blocks.size());
                    void* p = blocks[at];
                    in_use -= allocator.usable_size(p);
                    allocator.deallocate(p);
                    blocks[at] = blocks.back();
                    blocks.pop_back();
                }
            }
        };
        const std::size_t kSmall = 64, kLarge = 256;
        const int n_small = 1500 + static_cast<int>(rng.below(500));
        const int n_large = 400 + static_cast<int>(rng.below(100));
        for (int h = 0; h < kHeaps; ++h)
            for (int i = 0; i < n_small; ++i)
                alloc(h, kSmall);
        free_all();
        for (int h = 0; h < kHeaps; ++h)
            for (int i = 0; i < n_large; ++i)
                alloc(h, kLarge);
        free_all();
        std::vector<int> small_left(kHeaps, n_small);
        std::vector<int> large_left(kHeaps, n_large);
        for (int left = kHeaps * (n_small + n_large); left > 0; --left) {
            int h = static_cast<int>(rng.below(kHeaps));
            while (small_left[static_cast<std::size_t>(h)] +
                       large_left[static_cast<std::size_t>(h)] ==
                   0)
                h = (h + 1) % kHeaps;
            auto& s = small_left[static_cast<std::size_t>(h)];
            auto& l = large_left[static_cast<std::size_t>(h)];
            if (l == 0 ||
                (s != 0 && rng.below(static_cast<std::uint64_t>(s + l)) <
                               static_cast<std::uint64_t>(s))) {
                --s;
                alloc(h, kSmall);
            } else {
                --l;
                alloc(h, kLarge);
            }
        }
        free_all();
        EXPECT_EQ(in_use, 0u);
        *exact_peak = peak;
        reported = allocator.stats().in_use_bytes.peak();
    });
    machine.run();
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    const std::uint64_t bound =
        static_cast<std::uint64_t>(kHeaps) * config.superblock_bytes;
    EXPECT_LE(reported, *exact_peak);
    EXPECT_LT(*exact_peak - reported, bound)
        << "folded peak " << reported << " vs exact " << *exact_peak;
    return reported;
}

TEST(FoldedPeak, WithinHeapCountSuperblocksOfExactPeak)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        std::uint64_t exact = 0;
        const std::uint64_t first = run_peak_case(seed, &exact);
        std::uint64_t exact_again = 0;
        EXPECT_EQ(run_peak_case(seed, &exact_again), first)
            << "replay of seed " << seed << " diverged";
        EXPECT_EQ(exact_again, exact);
    }
}

}  // namespace
}  // namespace hoard
