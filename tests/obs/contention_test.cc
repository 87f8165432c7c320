/** @file Unit tests for the lock-contention profiler. */

#include "obs/contention.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "policy/native_policy.h"

namespace hoard {
namespace obs {
namespace {

TEST(ProfiledMutex, UnprofiledStaysSilent)
{
    ProfiledMutex<NativePolicy> m;
    for (int i = 0; i < 10; ++i) {
        m.lock();
        m.unlock();
    }
    m.lock();
    EXPECT_EQ(m.stats_locked().acquires, 0u);
    EXPECT_EQ(m.stats_locked().contended, 0u);
    m.unlock();
    EXPECT_FALSE(m.profiled());
}

TEST(ProfiledMutex, CountsUncontendedAcquires)
{
    ProfiledMutex<NativePolicy> m;
    m.set_profiled(true);
    for (int i = 0; i < 25; ++i) {
        m.lock();
        m.unlock();
    }
    m.lock();
    EXPECT_EQ(m.stats_locked().acquires, 26u);
    EXPECT_EQ(m.stats_locked().contended, 0u);
    EXPECT_EQ(m.stats_locked().wait.count(), 0u);
    m.unlock();
}

TEST(ProfiledMutex, CountsSuccessfulTryLocks)
{
    ProfiledMutex<NativePolicy> m;
    m.set_profiled(true);
    ASSERT_TRUE(m.try_lock());
    EXPECT_EQ(m.stats_locked().acquires, 1u);
    EXPECT_FALSE(m.try_lock());  // held; failure must not count
    EXPECT_EQ(m.stats_locked().acquires, 1u);
    m.unlock();
}

TEST(ProfiledMutex, WorksWithLockGuard)
{
    ProfiledMutex<NativePolicy> m;
    m.set_profiled(true);
    {
        std::lock_guard<ProfiledMutex<NativePolicy>> guard(m);
    }
    m.lock();
    EXPECT_EQ(m.stats_locked().acquires, 2u);
    m.unlock();
}

TEST(ProfiledMutex, DetectsContentionAcrossThreads)
{
    ProfiledMutex<NativePolicy> m;
    m.set_profiled(true);
    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    std::atomic<int> spin{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&m, &spin] {
            for (int i = 0; i < kIters; ++i) {
                m.lock();
                // A little work under the lock so others pile up.
                spin.fetch_add(1, std::memory_order_relaxed);
                m.unlock();
            }
        });
    }
    for (auto& t : threads)
        t.join();

    m.lock();  // counts as one more acquire
    const LockStats& stats = m.stats_locked();
    EXPECT_EQ(stats.acquires,
              static_cast<std::uint64_t>(kThreads * kIters) + 1);
    EXPECT_LE(stats.contended, stats.acquires);
    // Every contended acquisition recorded its wait.
    EXPECT_EQ(stats.wait.count(), stats.contended);
    if (stats.contended > 0) {
        EXPECT_GT(stats.wait.max(), 0u);
    }
    m.unlock();
    EXPECT_EQ(spin.load(), kThreads * kIters);
}

TEST(LockStats, DefaultsToZero)
{
    LockStats stats;
    EXPECT_EQ(stats.acquires, 0u);
    EXPECT_EQ(stats.contended, 0u);
    EXPECT_EQ(stats.wait.count(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace hoard
