/** @file Tests for the heap introspection report. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/hoard_allocator.h"
#include "policy/native_policy.h"

namespace hoard {
namespace {

TEST(Dump, ReportsConfigAndHeaps)
{
    Config config;
    config.heap_count = 3;
    HoardAllocator<NativePolicy> allocator(config);
    NativePolicy::rebind_thread_index(0);
    std::vector<void*> blocks;
    for (int i = 0; i < 300; ++i)
        blocks.push_back(allocator.allocate(64));

    std::ostringstream os;
    allocator.dump(os);
    std::string out = os.str();

    EXPECT_NE(out.find("S=8192"), std::string::npos);
    EXPECT_NE(out.find("P=3"), std::string::npos);
    EXPECT_NE(out.find("heap 0 (global)"), std::string::npos);
    EXPECT_NE(out.find("superblock(s)"), std::string::npos);
    EXPECT_NE(out.find("64 B"), std::string::npos);

    for (void* p : blocks)
        allocator.deallocate(p);
}

/**
 * Paper-literal victim mode (t = f = 0.25, K = 0) moves half-empty
 * superblocks into the global heap's per-class shards; heap 0's
 * section then lists that class in the same row format the
 * per-processor heaps use.
 */
TEST(Dump, GlobalHeapPrintsItsClassRows)
{
    Config config;
    config.heap_count = 2;
    config.empty_fraction = 0.25;
    config.release_threshold = 0.25;
    config.slack_superblocks = 0;
    HoardAllocator<NativePolicy> allocator(config);
    NativePolicy::rebind_thread_index(0);
    std::vector<void*> blocks;
    for (int i = 0; i < 600; ++i)
        blocks.push_back(allocator.allocate(64));
    std::vector<void*> live;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (i % 2 == 0)
            allocator.deallocate(blocks[i]);
        else
            live.push_back(blocks[i]);
    }
    ASSERT_GT(allocator.heap_held(0), 0u);

    std::ostringstream os;
    allocator.dump(os);
    const std::string out = os.str();
    const std::size_t global = out.find("heap 0 (global)");
    const std::size_t heap1 = out.find("heap 1:");
    ASSERT_NE(global, std::string::npos);
    ASSERT_NE(heap1, std::string::npos);
    const std::string row =
        "    class " +
        std::to_string(allocator.size_classes().class_for(64)) +
        " (64 B): ";
    const std::size_t in_global = out.find(row, global);
    ASSERT_NE(in_global, std::string::npos) << out;
    EXPECT_LT(in_global, heap1) << out;

    for (void* p : live)
        allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(Dump, EmptyAllocatorStillPrints)
{
    HoardAllocator<NativePolicy> allocator{Config{}};
    std::ostringstream os;
    allocator.dump(os);
    EXPECT_NE(os.str().find("heap 0 (global)"), std::string::npos);
}

TEST(Dump, ShowsThreadCacheWhenEnabled)
{
    Config config;
    config.thread_cache_blocks = 16;
    config.thread_cache_batch = 1;  // refill singly: exactly one parks
    HoardAllocator<NativePolicy> allocator(config);
    void* p = allocator.allocate(32);
    allocator.deallocate(p);  // parks in the cache
    std::ostringstream os;
    allocator.dump(os);
    EXPECT_NE(os.str().find("thread caches: 1 block(s)"),
              std::string::npos);
    allocator.flush_thread_caches();
}

}  // namespace
}  // namespace hoard
