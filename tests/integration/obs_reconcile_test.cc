/**
 * @file
 * End-to-end observability test: run a Larson-style multithreaded
 * workload with tracing and lock profiling on, then check that
 *
 *  - the per-heap snapshot totals reconcile exactly with the global
 *    gauges (quiesced),
 *  - every per-processor heap satisfies the emptiness invariant,
 *  - the event recorder captured the run and exports valid Chrome
 *    trace JSON,
 *
 * under both execution worlds (native threads and the virtual-time
 * simulator).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/hoard_allocator.h"
#include "obs/trace_export.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"
#include "tests/common/json_check.h"
#include "workloads/larson.h"
#include "workloads/runners.h"

namespace hoard {
namespace {

workloads::LarsonParams
small_larson(int nthreads)
{
    workloads::LarsonParams params;
    params.nthreads = nthreads;
    params.slots_per_thread = 300;
    params.rounds_per_epoch = 800;
    params.epochs = 3;
    return params;
}

TEST(ObsReconcile, NativeLarsonRun)
{
    constexpr int kThreads = 4;
    Config config;
    config.heap_count = kThreads;
    config.thread_cache_blocks = 8;  // exercise cache hit/miss events
    config.observability = true;
    HoardAllocator<NativePolicy> allocator(config);
    ASSERT_TRUE(allocator.observability_enabled());

    workloads::LarsonParams params = small_larson(kThreads);
    workloads::native_run(kThreads, [&allocator, &params](int tid) {
        workloads::larson_thread<NativePolicy>(allocator, params, tid);
    });

    obs::AllocatorSnapshot snap = allocator.take_snapshot();

    // Quiesced: per-heap sums must match the global gauges exactly.
    EXPECT_TRUE(snap.reconciles())
        << "sum(u)=" << snap.sum_in_use()
        << " sum(a)=" << snap.sum_held()
        << " in_use=" << snap.stats.in_use_bytes
        << " held=" << snap.stats.held_bytes
        << " cached=" << snap.cached_bytes;
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());
    EXPECT_TRUE(allocator.check_invariants());

    // The workload's cross-thread churn must have produced events
    // (at minimum class refills for the 10..100-byte classes).  The
    // recorder is an overwrite ring, and the refills cluster at the
    // start of the run: once the window wraps, a schedule where every
    // thread refills early can evict all of them, so the kind check
    // only holds for an unwrapped window.
    const obs::EventRecorder* recorder = allocator.recorder();
    ASSERT_NE(recorder, nullptr);
    EXPECT_GT(recorder->total_recorded(), 0u);
    const bool window_wrapped = recorder->dropped() > 0;
    std::vector<std::uint64_t> counts = recorder->kind_counts();
    if (!window_wrapped)
        EXPECT_GT(counts[static_cast<std::size_t>(
                      obs::EventKind::class_refill)],
                  0u);

    // Heap locks were profiled: the run acquired them many times.
    std::uint64_t acquires = 0;
    for (const obs::HeapSnapshot& h : snap.heaps)
        acquires += h.lock.acquires;
    EXPECT_GT(acquires, 0u);

    // The retained window exports as valid Chrome trace JSON with the
    // per-event metadata intact.
    std::ostringstream os;
    obs::write_chrome_trace(os, *recorder);
    std::string trace = os.str();
    EXPECT_TRUE(testutil::json_valid(trace));
    if (!window_wrapped)
        EXPECT_NE(trace.find("\"name\":\"class_refill\""),
                  std::string::npos);

    // Exporters accept the live snapshot.
    std::ostringstream prom;
    obs::write_prometheus(prom, snap);
    EXPECT_NE(prom.str().find("hoard_in_use_bytes"), std::string::npos);
    std::ostringstream human;
    obs::write_human(human, snap);
    EXPECT_NE(human.str().find("reconciles: yes"), std::string::npos);
    EXPECT_NE(human.str().find("invariant: ok"), std::string::npos);
}

TEST(ObsReconcile, SimLarsonRun)
{
    constexpr int kThreads = 4;
    Config config;
    config.heap_count = kThreads;
    config.observability = true;
    HoardAllocator<SimPolicy> allocator(config);
    ASSERT_TRUE(allocator.observability_enabled());

    workloads::LarsonParams params = small_larson(kThreads);
    params.rounds_per_epoch = 400;  // virtual time is serial; keep short
    std::uint64_t makespan = workloads::sim_run(
        kThreads, kThreads, [&allocator, &params](int tid) {
            workloads::larson_thread<SimPolicy>(allocator, params, tid);
        });
    EXPECT_GT(makespan, 0u);

    // Lock-taking introspection must itself run on a simulated thread.
    obs::AllocatorSnapshot snap;
    sim::Machine checker(1);
    checker.spawn(0, 0, [&allocator, &snap] {
        snap = allocator.take_snapshot();
    });
    checker.run();

    EXPECT_TRUE(snap.reconciles());
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());

    const obs::EventRecorder* recorder = allocator.recorder();
    ASSERT_NE(recorder, nullptr);
    EXPECT_GT(recorder->total_recorded(), 0u);

    // Event timestamps are virtual cycles: all within the makespan of
    // the run (collect() may see a torn event under concurrent
    // writers, but this read is quiesced).
    for (const obs::TraceEvent& ev : recorder->collect())
        EXPECT_LE(ev.timestamp, makespan);

    // Identity scaling keeps virtual cycles in the exported trace.
    std::ostringstream os;
    obs::write_chrome_trace(os, *recorder, /*ts_per_us=*/1.0);
    EXPECT_TRUE(testutil::json_valid(os.str()));
}

}  // namespace
}  // namespace hoard
