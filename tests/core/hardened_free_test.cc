/**
 * @file
 * The hardened free path (Config::hardened_free): the full bad-free
 * matrix — double free, interior pointer, stack (wild) pointer,
 * foreign-arena pointer — under both Config::on_bad_free policies.
 * The warn policy must count, leak, and leave the allocator fully
 * usable; the fatal policy must abort with a diagnostic.  Legitimate
 * frees, including pointers interior to a block (which aligned
 * allocation hands out), must keep passing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/facade.h"
#include "core/superblock.h"

namespace hoard {
namespace {

Config
warn_config()
{
    Config config;
    config.heap_count = 2;
    config.on_bad_free = Config::BadFreePolicy::warn;
    return config;
}

std::uint64_t
bad_free_total(const detail::AllocatorStats& stats)
{
    return stats.bad_free_wild.get() + stats.bad_free_foreign.get() +
           stats.bad_free_interior.get() + stats.bad_free_double.get();
}

TEST(HardenedFree, DoubleFreeIsCountedAndLeaked)
{
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate(64);
    ASSERT_NE(p, nullptr);
    allocator.deallocate(p);

    const std::uint64_t frees = allocator.stats().frees.get();
    const std::uint64_t in_use = allocator.stats().in_use_bytes.current();
    allocator.deallocate(p);  // the bug under test
    EXPECT_EQ(allocator.stats().bad_free_double.get(), 1u);
    // Rejected: neither the free counter nor the gauge moved.
    EXPECT_EQ(allocator.stats().frees.get(), frees);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), in_use);

    // The allocator survives and keeps serving.
    void* q = allocator.allocate(64);
    ASSERT_NE(q, nullptr);
    allocator.deallocate(q);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(HardenedFree, HeaderInteriorPointerIsRejected)
{
    Config config = warn_config();
    HoardAllocator<NativePolicy> allocator(config);
    void* p = allocator.allocate(64);
    ASSERT_NE(p, nullptr);

    // Inside the superblock's span but before the carved payload: no
    // allocation path ever hands this address out.
    auto* sb = Superblock::from_pointer(p, config.superblock_bytes);
    allocator.deallocate(reinterpret_cast<char*>(sb) + 8);
    EXPECT_EQ(allocator.stats().bad_free_interior.get(), 1u);

    allocator.deallocate(p);  // the real block still frees
    EXPECT_EQ(allocator.stats().bad_free_double.get(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(HardenedFree, HugeInteriorPointerIsRejected)
{
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate(32768);  // above the largest class
    ASSERT_NE(p, nullptr);

    allocator.deallocate(static_cast<char*>(p) + 64);
    EXPECT_EQ(allocator.stats().bad_free_interior.get(), 1u);

    allocator.deallocate(p);
    EXPECT_EQ(bad_free_total(allocator.stats()), 1u);
}

TEST(HardenedFree, StackPointerIsWild)
{
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate(64);  // establish a mapped hull
    ASSERT_NE(p, nullptr);

    int on_stack = 0;
    allocator.deallocate(&on_stack);
    EXPECT_EQ(allocator.stats().bad_free_wild.get(), 1u);

    allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(HardenedFree, ForeignArenaPointerIsRejected)
{
    HoardAllocator<NativePolicy> owner(warn_config());
    HoardAllocator<NativePolicy> stranger(warn_config());
    void* theirs = stranger.allocate(64);
    void* p = owner.allocate(64);
    ASSERT_NE(p, nullptr);

    // Whether the foreign block falls inside the stranger's mapped
    // hull is placement luck: inside, the arena-id check fires
    // (foreign); outside, the range check does (wild).  Either way it
    // is rejected exactly once and the owner can still free it.
    stranger.deallocate(p);
    EXPECT_EQ(stranger.stats().bad_free_foreign.get() +
                  stranger.stats().bad_free_wild.get(),
              1u);
    EXPECT_EQ(stranger.stats().frees.get(), 0u);

    owner.deallocate(p);
    stranger.deallocate(theirs);
    EXPECT_EQ(bad_free_total(owner.stats()), 0u);
    EXPECT_TRUE(owner.check_invariants());
    EXPECT_TRUE(stranger.check_invariants());
}

TEST(HardenedFree, BlockInteriorPointerStillFrees)
{
    // Aligned allocation can return an address interior to a block, so
    // the hardened path must accept those — only addresses no
    // allocation can have produced are bad.
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate_aligned(100, 256);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 256, 0u);
    allocator.deallocate(p);
    EXPECT_EQ(bad_free_total(allocator.stats()), 0u);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(HardenedFree, CountersReachTheSnapshot)
{
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate(64);
    allocator.deallocate(p);
    allocator.deallocate(p);
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_EQ(snap.stats.bad_free_double, 1u);
    EXPECT_EQ(snap.stats.bad_free_wild, 0u);
}

TEST(HardenedFree, TrustingPathWhenDisabled)
{
    Config config = warn_config();
    config.hardened_free = false;
    HoardAllocator<NativePolicy> allocator(config);
    std::vector<void*> blocks;
    for (int i = 0; i < 100; ++i)
        blocks.push_back(allocator.allocate(static_cast<std::size_t>(
            i % 200 + 1)));
    for (void* block : blocks)
        allocator.deallocate(block);
    EXPECT_EQ(bad_free_total(allocator.stats()), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

using HardenedFreeDeathTest = ::testing::Test;

TEST(HardenedFreeDeathTest, FatalPolicyAbortsOnDoubleFree)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Config config;
    config.heap_count = 2;
    ASSERT_EQ(config.on_bad_free, Config::BadFreePolicy::fatal)
        << "fatal must be the default";
    EXPECT_DEATH(
        {
            HoardAllocator<NativePolicy> allocator(config);
            void* p = allocator.allocate(64);
            allocator.deallocate(p);
            allocator.deallocate(p);
        },
        "bad free \\(double\\)");
}

TEST(HardenedFreeDeathTest, FatalPolicyAbortsOnWildFree)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Config config;
    config.heap_count = 2;
    EXPECT_DEATH(
        {
            HoardAllocator<NativePolicy> allocator(config);
            void* warm = allocator.allocate(64);
            (void)warm;
            int on_stack = 0;
            allocator.deallocate(&on_stack);
        },
        "bad free \\(wild\\)");
}

/**
 * The configurations the back-to-back double-free probe must hold
 * under: "paper" (Config defaults; the free reaches free_block's
 * under-lock probe) and "shipped" (shipped_config(); the free parks in
 * the thread's magazine, and magazine_push probes the magazine head).
 */
class HardenedFreeConfigs : public ::testing::TestWithParam<const char*>
{
  protected:
    static Config
    config()
    {
        Config config = std::string(GetParam()) == "shipped"
                            ? shipped_config()
                            : Config();
        config.heap_count = 2;
        return config;
    }
};

using HardenedFreeConfigsDeathTest = HardenedFreeConfigs;

TEST_P(HardenedFreeConfigs, BackToBackDoubleFreeIsCountedAndLeaked)
{
    Config config = this->config();
    config.on_bad_free = Config::BadFreePolicy::warn;
    HoardAllocator<NativePolicy> allocator(config);
    void* p = allocator.allocate(48);
    ASSERT_NE(p, nullptr);
    allocator.deallocate(p);

    const std::uint64_t frees = allocator.stats().frees.get();
    allocator.deallocate(p);  // the bug under test
    EXPECT_EQ(allocator.stats().bad_free_double.get(), 1u);
    EXPECT_EQ(allocator.stats().frees.get(), frees);

    // Leaked, not freed twice: the block comes back at most once.
    void* a = allocator.allocate(48);
    void* b = allocator.allocate(48);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    allocator.deallocate(a);
    allocator.deallocate(b);
    EXPECT_EQ(allocator.stats().bad_free_double.get(), 1u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST_P(HardenedFreeConfigsDeathTest, FatalPolicyAbortsOnBackToBackDoubleFree)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Config config = this->config();
    ASSERT_EQ(config.on_bad_free, Config::BadFreePolicy::fatal);
    EXPECT_DEATH(
        {
            HoardAllocator<NativePolicy> allocator(config);
            void* p = allocator.allocate(48);
            allocator.deallocate(p);
            allocator.deallocate(p);
        },
        "bad free \\(double\\)");
}

std::string
config_name(const ::testing::TestParamInfo<const char*>& param)
{
    return param.param;
}

INSTANTIATE_TEST_SUITE_P(Configs, HardenedFreeConfigs,
                         ::testing::Values("paper", "shipped"),
                         config_name);
INSTANTIATE_TEST_SUITE_P(Configs, HardenedFreeConfigsDeathTest,
                         ::testing::Values("paper", "shipped"),
                         config_name);

}  // namespace
}  // namespace hoard
