/** @file Unit tests for the malloc-style facade. */

#include "core/facade.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "os/page_provider.h"
#include "os/reserved_arena.h"

namespace hoard {
namespace {

TEST(Facade, MallocFreeBasics)
{
    void* p = hoard_malloc(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xaa, 100);
    EXPECT_GE(hoard_usable_size(p), 100u);
    hoard_free(p);
    hoard_free(nullptr);  // no-op
}

TEST(Facade, MallocZeroGivesUniquePointers)
{
    void* a = hoard_malloc(0);
    void* b = hoard_malloc(0);
    EXPECT_NE(a, nullptr);
    EXPECT_NE(b, nullptr);
    EXPECT_NE(a, b);
    hoard_free(a);
    hoard_free(b);
}

TEST(Facade, CallocZeroes)
{
    auto* p = static_cast<unsigned char*>(hoard_calloc(100, 7));
    ASSERT_NE(p, nullptr);
    for (int i = 0; i < 700; ++i)
        EXPECT_EQ(p[i], 0u);
    // Dirty it, free, re-calloc: must be zero again despite reuse.
    std::memset(p, 0xff, 700);
    hoard_free(p);
    auto* q = static_cast<unsigned char*>(hoard_calloc(100, 7));
    for (int i = 0; i < 700; ++i)
        EXPECT_EQ(q[i], 0u);
    hoard_free(q);
}

TEST(Facade, CallocOverflowReturnsNull)
{
    std::size_t half = std::numeric_limits<std::size_t>::max() / 2 + 2;
    errno = 0;
    EXPECT_EQ(hoard_calloc(half, 2), nullptr);
    EXPECT_EQ(errno, ENOMEM);
}

TEST(Facade, CallocRecycledSmallBlockIsZeroed)
{
    // Regression for the huge-path memset skip: small blocks recycle
    // through free lists, so calloc must keep clearing them even
    // though huge spans are handed out untouched.
    const std::size_t bytes = 3000;
    auto* p = static_cast<unsigned char*>(hoard_malloc(bytes));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xee, bytes);
    hoard_free(p);
    auto* q = static_cast<unsigned char*>(hoard_calloc(1, bytes));
    ASSERT_NE(q, nullptr);
    for (std::size_t i = 0; i < bytes; ++i)
        ASSERT_EQ(q[i], 0u) << "byte " << i;
    hoard_free(q);
}

TEST(Facade, CallocHugeIsZeroed)
{
    // Served memset-free from freshly mapped (zero) pages.
    const std::size_t bytes = 256 * 1024;
    auto* p = static_cast<unsigned char*>(hoard_calloc(1, bytes));
    ASSERT_NE(p, nullptr);
    for (std::size_t i = 0; i < bytes; i += 256)
        ASSERT_EQ(p[i], 0u) << "byte " << i;
    EXPECT_EQ(p[bytes - 1], 0u);
    hoard_free(p);
}

TEST(Facade, ErrnoSetOnMallocExhaustion)
{
    errno = 0;
    EXPECT_EQ(hoard_malloc(std::numeric_limits<std::size_t>::max() / 4),
              nullptr);
    EXPECT_EQ(errno, ENOMEM);
}

TEST(Facade, ErrnoSetOnReallocExhaustionAndBlockSurvives)
{
    auto* p = static_cast<char*>(hoard_malloc(64));
    ASSERT_NE(p, nullptr);
    std::memcpy(p, "payload", 8);
    errno = 0;
    EXPECT_EQ(
        hoard_realloc(p, std::numeric_limits<std::size_t>::max() / 4),
        nullptr);
    EXPECT_EQ(errno, ENOMEM);
    EXPECT_STREQ(p, "payload");  // failure must not disturb the block
    hoard_free(p);
}

TEST(Facade, ReallocBehavesLikeLibc)
{
    auto* p = static_cast<char*>(hoard_realloc(nullptr, 10));
    ASSERT_NE(p, nullptr);
    std::memcpy(p, "123456789", 10);
    p = static_cast<char*>(hoard_realloc(p, 10000));
    EXPECT_STREQ(p, "123456789");
    EXPECT_EQ(hoard_realloc(p, 0), nullptr);
}

TEST(Facade, AlignedAlloc)
{
    void* p = hoard_aligned_alloc(512, 100);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 512, 0u);
    hoard_free(p);
}

TEST(Facade, AlignedAllocZeroSizeGivesFreeablePointer)
{
    // Size 0 clamps to 1 (like hoard_malloc) instead of tripping the
    // allocator's size validation.
    void* p = hoard_aligned_alloc(256, 0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 256, 0u);
    hoard_free(p);
}

TEST(Facade, PosixMemalign)
{
    void* p = nullptr;
    EXPECT_EQ(hoard_posix_memalign(&p, 256, 100), 0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 256, 0u);
    hoard_free(p);

    EXPECT_EQ(hoard_posix_memalign(&p, 3, 100), EINVAL);
    EXPECT_EQ(hoard_posix_memalign(&p, 4, 100), EINVAL)
        << "alignment must be a multiple of sizeof(void*)";
    EXPECT_EQ(hoard_posix_memalign(&p, 1 << 20, 100), EINVAL)
        << "alignment beyond S/2 is rejected, not fatal";
    EXPECT_EQ(hoard_posix_memalign(nullptr, 256, 100), EINVAL);

    EXPECT_EQ(hoard_posix_memalign(&p, 256, 0), 0);
    hoard_free(p);
}

TEST(Facade, StatsAreLive)
{
    std::uint64_t before = hoard_stats().allocs.get();
    void* p = hoard_malloc(32);
    EXPECT_EQ(hoard_stats().allocs.get(), before + 1);
    hoard_free(p);
}

TEST(Facade, GlobalAllocatorIsStable)
{
    EXPECT_EQ(&global_allocator(), &global_allocator());
}

TEST(Facade, MixedSizesStressRoundTrip)
{
    std::vector<void*> blocks;
    for (int i = 1; i <= 300; ++i) {
        void* p = hoard_malloc(static_cast<std::size_t>(i * 13 % 5000) + 1);
        ASSERT_NE(p, nullptr);
        blocks.push_back(p);
    }
    for (void* p : blocks)
        hoard_free(p);
    global_allocator().check_invariants();
}

/** The process's default provider, which every HOARD_ARENA_* and
    HOARD_HUGEPAGE knob configures. */
const os::ReservedArenaProvider::Options&
arena_options()
{
    const auto* arena = dynamic_cast<const os::ReservedArenaProvider*>(
        &os::default_page_provider());
    if (arena == nullptr)
        std::exit(2);
    return arena->options();
}

bool
superblock_is_default()
{
    return global_allocator().config().superblock_bytes ==
           Config().superblock_bytes;
}

bool
arena_span_is_default()
{
    return arena_options().max_span_bytes ==
           os::ReservedArenaProvider::Options().max_span_bytes;
}

bool
hardened_free_is_off()
{
    return !global_allocator().config().hardened_free;
}

// An env typo must not abort or hang every shimmed process: a value
// outside the common/env.h grammar (a suffix, an overflow, an unknown
// flag word) or outside its knob's range is ignored, and the knob keeps
// its default; flags read 1/true/on and 0/false/off alike.  The
// threadsafe style re-executes the test binary, so each case builds a
// fresh global instance and default provider (both process statics)
// from the environment its child inherits.
TEST(FacadeEnvDeathTest, OutOfRangeKnobsAreIgnored)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const struct
    {
        const char* name;
        const char* value;
        bool (*holds)();  ///< the knob's expected state in the child
    } cases[] = {
        // 2^32: wraps to 0 in the knob's 32-bit field.
        {"HOARD_LATENCY_PERIOD", "4294967296",
         [] {
             return global_allocator().config().latency_sample_period ==
                    Config().latency_sample_period;
         }},
        // 2^27: above the 16 MiB cap.
        {"HOARD_SUPERBLOCK_BYTES", "134217728", superblock_is_default},
        // Unit suffixes are not numbers: not 65536, not 64, not 1.
        {"HOARD_SUPERBLOCK_BYTES", "65536x", superblock_is_default},
        {"HOARD_RSS_TARGET", "64M",
         [] {
             return global_allocator().config().rss_target_bytes ==
                    Config().rss_target_bytes;
         }},
        {"HOARD_ARENA_BYTES", "1G",
         [] {
             return arena_options().arena_bytes ==
                    os::ReservedArenaProvider::Options().arena_bytes;
         }},
        // Spans past 2^31: an arena order the free stacks do not have,
        // and a value whose power-of-two round-up never terminates.
        {"HOARD_ARENA_SPAN", "4294967296", arena_span_is_default},
        {"HOARD_ARENA_SPAN", "10000000000000000000", arena_span_is_default},
        // Past 2^64: overflow, not a wrap.
        {"HOARD_PURGE_AGE", "18446744073709551616",
         [] {
             return global_allocator().config().purge_age_ticks ==
                    Config().purge_age_ticks;
         }},
        // One flag grammar for every boolean knob.
        {"HOARD_HARDENED_FREE", "off", hardened_free_is_off},
        {"HOARD_HARDENED_FREE", "false", hardened_free_is_off},
        {"HOARD_HARDENED_FREE", "maybe",
         [] { return !hardened_free_is_off(); }},
        {"HOARD_HUGEPAGE", "on", [] { return arena_options().huge_pages; }},
        {"HOARD_HUGEPAGE", "2", [] { return !arena_options().huge_pages; }},
        {"HOARD_LATENCY", "true", [] { return hoard_latency() != nullptr; }},
        {"HOARD_OBS", "yes",
         [] { return hoard_event_recorder() == nullptr; }},
    };
    for (const auto& c : cases) {
        ASSERT_EQ(setenv(c.name, c.value, 1), 0);
        EXPECT_EXIT(
            {
                alarm(30);  // a hang fails the case instead of the run
                void* p = hoard_malloc(64);
                hoard_free(p);
                std::exit(p != nullptr && c.holds() ? 0 : 1);
            },
            ::testing::ExitedWithCode(0), "")
            << c.name << "=" << c.value;
        unsetenv(c.name);
    }
}

// HOARD_OBS and HOARD_LATENCY are knobs of the process-wide instance,
// read next to every other HOARD_* knob: an allocator constructed
// directly (a simulator run, a bench's disarmed variant) keeps exactly
// the Config it was given.
TEST(FacadeEnvDeathTest, ObsAndLatencyEnvArmOnlyTheGlobalInstance)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_EQ(setenv("HOARD_OBS", "1", 1), 0);
    ASSERT_EQ(setenv("HOARD_LATENCY", "1", 1), 0);
    EXPECT_EXIT(
        {
            alarm(30);
            const bool global_armed = hoard_event_recorder() != nullptr &&
                                      hoard_latency() != nullptr;
            HoardAllocator<NativePolicy> direct{Config{}};
            const bool direct_disarmed = direct.recorder() == nullptr &&
                                         direct.latency() == nullptr;
            std::exit(global_armed && direct_disarmed ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
    unsetenv("HOARD_OBS");
    unsetenv("HOARD_LATENCY");
}

}  // namespace
}  // namespace hoard
