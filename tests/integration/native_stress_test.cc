/**
 * @file
 * Native multithreaded stress: the ownership-change race (paper §3.4),
 * producer/consumer pipelines over real threads, and sustained mixed
 * churn with invariant checks — the tests that gate the allocator's
 * claim to be a real thread-safe malloc.  Each case starts from
 * shipped_config(), the configuration libhoard.so runs (magazines on),
 * and varies only the heap count and the knob it stresses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/memutil.h"
#include "common/rng.h"
#include "core/facade.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;

TEST(NativeStress, OwnershipChangeRace)
{
    // Thread A mass-frees into heap X, constantly triggering transfers
    // to the global heap, while thread B frees blocks from the same
    // superblocks — the deadlock/lost-update surface of the free path.
    Config config = shipped_config();
    config.heap_count = 4;
    config.slack_superblocks = 0;  // maximize transfer frequency
    NativeHoard allocator(config);

    for (int round = 0; round < 20; ++round) {
        std::vector<void*> a_blocks, b_blocks;
        NativePolicy::rebind_thread_index(0);
        for (int i = 0; i < 3000; ++i) {
            void* p = allocator.allocate(48);
            (i % 2 == 0 ? a_blocks : b_blocks).push_back(p);
        }
        std::thread t1([&] {
            NativePolicy::rebind_thread_index(1);
            for (void* p : a_blocks)
                allocator.deallocate(p);
        });
        std::thread t2([&] {
            NativePolicy::rebind_thread_index(2);
            for (void* p : b_blocks)
                allocator.deallocate(p);
        });
        t1.join();
        t2.join();
    }
    EXPECT_TRUE(allocator.check_invariants());
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_GT(allocator.stats().superblock_transfers.get(), 0u);
}

TEST(NativeStress, RealProducerConsumerQueue)
{
    // A genuine two-thread pipeline (not the rebinding trick): the
    // producer allocates, the consumer frees, through a mutex queue.
    Config config = shipped_config();
    config.heap_count = 4;
    NativeHoard allocator(config);

    std::mutex queue_mutex;
    std::deque<void*> queue;
    std::atomic<bool> done{false};
    const int kItems = 60000;
    const std::size_t kQueueCap = 2048;  // bounds live memory

    std::thread producer([&] {
        NativePolicy::rebind_thread_index(0);
        for (int i = 0; i < kItems; ++i) {
            void* p = allocator.allocate(64);
            detail::pattern_fill(p, 64, 11);
            for (;;) {
                {
                    std::lock_guard<std::mutex> guard(queue_mutex);
                    if (queue.size() < kQueueCap) {
                        queue.push_back(p);
                        break;
                    }
                }
                std::this_thread::yield();
            }
        }
        done = true;
    });
    std::thread consumer([&] {
        NativePolicy::rebind_thread_index(1);
        int freed = 0;
        while (freed < kItems) {
            void* p = nullptr;
            {
                std::lock_guard<std::mutex> guard(queue_mutex);
                if (!queue.empty()) {
                    p = queue.front();
                    queue.pop_front();
                }
            }
            if (p != nullptr) {
                EXPECT_TRUE(detail::pattern_check(p, 64, 11));
                allocator.deallocate(p);
                ++freed;
            } else if (done) {
                std::this_thread::yield();
            }
        }
    });
    producer.join();
    consumer.join();

    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
    // Bounded footprint despite a full producer->consumer flow: the
    // emptiness invariant must have recycled superblocks throughout.
    EXPECT_LT(allocator.stats().held_bytes.peak(),
              static_cast<std::size_t>(kItems) * 64 / 4)
        << "footprint approached total allocation volume: no reuse";
}

TEST(NativeStress, ManyThreadsMixedSizes)
{
    Config config = shipped_config();
    config.heap_count = 8;
    NativeHoard allocator(config);
    const int kThreads = 8;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&allocator, t] {
            NativePolicy::rebind_thread_index(t);
            detail::Rng rng(static_cast<std::uint64_t>(t) * 7 + 1);
            std::vector<std::pair<void*, std::size_t>> live;
            for (int op = 0; op < 15000; ++op) {
                if (live.size() < 128 || rng.chance(0.5)) {
                    // Mix in occasional huge allocations.
                    std::size_t size = rng.chance(0.01)
                                           ? rng.range(5000, 100000)
                                           : rng.range(1, 1500);
                    void* p = allocator.allocate(size);
                    ASSERT_NE(p, nullptr);
                    detail::pattern_fill(
                        p, std::min<std::size_t>(size, 256), size);
                    live.emplace_back(p, size);
                } else {
                    auto idx = static_cast<std::size_t>(
                        rng.below(live.size()));
                    ASSERT_TRUE(detail::pattern_check(
                        live[idx].first,
                        std::min<std::size_t>(live[idx].second, 256),
                        live[idx].second));
                    allocator.deallocate(live[idx].first);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
            for (auto& [p, size] : live)
                allocator.deallocate(p);
        });
    }
    for (auto& t : threads)
        t.join();

    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(NativeStress, ThreadChurnManyGenerations)
{
    // Threads are born, allocate, die leaving live blocks; successors
    // free their predecessors' blocks — long-running-server shape.
    Config config = shipped_config();
    config.heap_count = 4;
    NativeHoard allocator(config);

    std::vector<void*> inherited;
    for (int generation = 0; generation < 30; ++generation) {
        std::vector<void*> next;
        std::thread worker([&] {
            NativePolicy::rebind_thread_index(generation + 10);
            for (void* p : inherited)
                allocator.deallocate(p);
            for (int i = 0; i < 2000; ++i)
                next.push_back(allocator.allocate(80));
        });
        worker.join();
        inherited = std::move(next);
    }
    NativePolicy::rebind_thread_index(0);
    for (void* p : inherited)
        allocator.deallocate(p);

    EXPECT_TRUE(allocator.check_invariants());
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    // 30 generations of 2000x80B: footprint must stay near one
    // generation's worth, not thirty.
    EXPECT_LT(allocator.stats().held_bytes.peak(),
              30u * 2000u * 80u / 4u);
}

}  // namespace
}  // namespace hoard
