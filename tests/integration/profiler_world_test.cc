/**
 * @file
 * End-to-end heap-profiler test in both execution worlds.
 *
 * Arms the profiler in exact mode (rate 1: every allocation sampled,
 * Poisson weight 1) so its live attribution is a census, then checks
 * that at quiescence the profiler's live gauges reconcile *exactly*
 * with the allocator's in_use gauge — through magazine churn, the
 * global heap, and the huge path.  The sim-world variant additionally
 * proves determinism: two identical virtual-time runs produce
 * byte-identical pprof serializations, because SimPolicy's "backtrace"
 * is the fiber's site token rather than a real stack.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/hoard_allocator.h"
#include "obs/heap_profiler.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"
#include "workloads/larson.h"
#include "workloads/runners.h"

namespace hoard {
namespace {

Config
profiled_config(int heaps)
{
    Config config;
    config.heap_count = heaps;
    config.profile_sample_rate = 1;  // exact mode: census, not sample
    config.profile_site_slots = 4096;
    config.profile_live_slots = 8192;
    // Shallow backtraces: the frame chain is only trustworthy while
    // it stays inside this binary's fp-preserving code.  Past libc's
    // fp-less start_thread frame (6 hops from the allocation site
    // under sanitizer codegen) the walk reads stack garbage that
    // varies per call, and every sample would mint a brand-new
    // "site" until the table fills.  The zero-drop assertions below
    // need the stable prefix only.
    config.profile_max_frames = 6;
    return config;
}

TEST(ProfilerWorld, NativeLiveBytesReconcileWithGauges)
{
    constexpr int kThreads = 4;
    HoardAllocator<NativePolicy> allocator(profiled_config(kThreads));
    ASSERT_NE(allocator.profiler(), nullptr);
    EXPECT_EQ(allocator.profiler()->sample_rate(), 1u);

    // Multithreaded churn that frees everything it allocates: the
    // profiler must pair every one of those frees through magazines,
    // remote queues, and the global heap.
    workloads::LarsonParams params;
    params.nthreads = kThreads;
    params.slots_per_thread = 200;
    params.rounds_per_epoch = 500;
    params.epochs = 2;
    workloads::native_run(kThreads, [&allocator, &params](int tid) {
        workloads::larson_thread<NativePolicy>(allocator, params, tid);
    });

    // A known survivor set on top: small classes plus one huge block.
    std::vector<void*> keep;
    std::size_t keep_requested = 0;
    for (int i = 0; i < 300; ++i) {
        const std::size_t size = 16 + 24 * (i % 20);
        void* p = allocator.allocate(size);
        ASSERT_NE(p, nullptr);
        keep.push_back(p);
        keep_requested += size;
    }
    const std::size_t huge_bytes =
        allocator.config().superblock_bytes;  // forces the huge path
    void* huge = allocator.allocate(huge_bytes);
    ASSERT_NE(huge, nullptr);
    keep.push_back(huge);
    keep_requested += huge_bytes;

    const obs::ProfilerTotals t = allocator.profiler()->totals();
    ASSERT_EQ(t.site_drops, 0u) << "site table too small for the test";
    ASSERT_EQ(t.live_drops, 0u) << "live map too small for the test";

    // Exact mode + exact pairing: the profiler's live census must
    // equal the allocator's own gauge, byte for byte.
    const obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(t.live_bytes, snap.stats.in_use_bytes);
    EXPECT_EQ(t.live_objects, keep.size());
    EXPECT_EQ(t.live_requested, keep_requested);
    EXPECT_GT(t.sampled_objects, t.live_objects);
    EXPECT_GT(t.sites, 0u);
    EXPECT_EQ(t.sampled_objects,
              t.frees_paired + t.live_objects + t.live_drops);

    // Freeing the survivors drains the census to zero.
    for (void* p : keep)
        allocator.deallocate(p);
    const obs::ProfilerTotals after = allocator.profiler()->totals();
    EXPECT_EQ(after.live_objects, 0u);
    EXPECT_EQ(after.live_bytes, 0u);
    EXPECT_EQ(allocator.take_snapshot().stats.in_use_bytes, 0u);

    // The leak report agrees: nothing sampled is still live.
    std::ostringstream report;
    EXPECT_EQ(allocator.profiler()->write_leak_report(report), 0u);
    EXPECT_NE(report.str().find("no leaks detected"),
              std::string::npos);
}

/** One deterministic sim run; returns the pprof bytes. */
std::string
sim_profiled_run(std::uint64_t& live_bytes_out,
                 std::uint64_t& in_use_out)
{
    constexpr int kThreads = 2;
    HoardAllocator<SimPolicy> allocator(profiled_config(kThreads));
    if (allocator.profiler() == nullptr)
        return std::string();

    sim::Machine machine(kThreads);
    std::vector<std::vector<void*>> survivors(kThreads);
    for (int tid = 0; tid < kThreads; ++tid) {
        machine.spawn(tid, tid, [&allocator, &survivors, tid] {
            // The deterministic analogue of a stack: every allocation
            // in this fiber attributes to this token.
            sim::Machine::current()->set_profile_site(
                0xA000u + static_cast<unsigned>(tid));
            for (int i = 0; i < 400; ++i) {
                void* p = allocator.allocate(
                    32 + 16 * static_cast<std::size_t>(i % 8));
                if (p == nullptr)
                    continue;
                if (i % 3 == 0)
                    survivors[tid].push_back(p);  // stays live
                else
                    allocator.deallocate(p);
            }
        });
    }
    machine.run();

    // Snapshots take virtual mutexes: run quiescent checks on a fresh
    // one-processor checker machine (sim test idiom).
    obs::AllocatorSnapshot snap;
    sim::Machine checker(1);
    checker.spawn(0, 0,
                  [&allocator, &snap] { snap = allocator.take_snapshot(); });
    checker.run();
    in_use_out = snap.stats.in_use_bytes;
    live_bytes_out = allocator.profiler()->totals().live_bytes;

    std::ostringstream os;
    allocator.profiler()->write_pprof_profile(os);

    // Release the survivors inside a machine so SimPolicy has a clock.
    sim::Machine cleanup(1);
    cleanup.spawn(0, 0, [&allocator, &survivors] {
        for (auto& fiber_ptrs : survivors)
            for (void* p : fiber_ptrs)
                allocator.deallocate(p);
    });
    cleanup.run();
    return os.str();
}

TEST(ProfilerWorld, SimLiveBytesReconcileAndProfilesReplay)
{
    std::uint64_t live_a = 0, in_use_a = 0;
    const std::string profile_a = sim_profiled_run(live_a, in_use_a);
    ASSERT_FALSE(profile_a.empty());
    EXPECT_EQ(live_a, in_use_a);
    EXPECT_GT(live_a, 0u);

    // Determinism: an identical virtual-time run serializes the exact
    // same profile — the property that makes sim profiler regressions
    // diffable.
    std::uint64_t live_b = 0, in_use_b = 0;
    const std::string profile_b = sim_profiled_run(live_b, in_use_b);
    EXPECT_EQ(live_a, live_b);
    EXPECT_EQ(in_use_a, in_use_b);
    EXPECT_EQ(profile_a, profile_b);

    // The sim "stacks" really are the fiber tokens: both appear as
    // distinct sites (plus the thread tag frame).
    EXPECT_EQ(static_cast<unsigned char>(profile_a[0]), 0x0Au);
}

}  // namespace
}  // namespace hoard
