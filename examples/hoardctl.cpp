/**
 * @file
 * hoardctl: drive the observability layer from the command line.
 *
 * Runs a Larson-style multithreaded churn on a dedicated Hoard
 * instance with event tracing and lock profiling enabled, then exports
 * everything src/obs/ offers:
 *
 *   ./build/examples/hoardctl                         # human snapshot
 *   ./build/examples/hoardctl --trace /tmp/h.json     # chrome://tracing
 *   ./build/examples/hoardctl --prom /tmp/h.prom      # Prometheus text
 *   ./build/examples/hoardctl --timeline /tmp/h.jsonl # gauge timeline
 *   ./build/examples/hoardctl --profile /tmp/h.pb     # pprof heap profile
 *   ./build/examples/hoardctl --threads 8 --rounds 20000
 *
 * Flags are parsed by the shared strict parser (common/cli.h): unknown
 * flags exit 2, --help exits 0, and the usage text is generated from
 * the same registry that parses, so it cannot drift.
 *
 * The exit status doubles as a health check: 0 only when the per-heap
 * snapshot reconciles exactly with the global gauges and every heap
 * satisfies the emptiness invariant — the same two checks the
 * integration tests assert.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/cli.h"
#include "core/hoard_allocator.h"
#include "obs/heap_profiler.h"
#include "obs/trace_export.h"
#include "policy/native_policy.h"
#include "workloads/larson.h"
#include "workloads/runners.h"

namespace {

struct Options
{
    int threads = 4;
    int slots = 800;
    int rounds = 5000;
    int epochs = 4;
    int ring_events = 4096;
    std::uint64_t interval = 200000;  // ns between timeline samples
    std::uint64_t profile_rate = 0;   // 0: pick a default when dumping
    std::string trace_path;
    std::string prom_path;
    std::string timeline_path;
    std::string profile_path;
    std::string snapshot_path;  // empty: human dump to stdout
    std::uint64_t outlier_cycles = 0;  // --latency outlier threshold
    std::uint64_t rss_target = 0;      // --rss committed-bytes target
    bool latency = false;
    bool do_purge = false;
    bool quiet = false;
};

}  // namespace

int
main(int argc, char** argv)
{
    using namespace hoard;

    Options opt;
    cli::Parser parser(
        "exercise a traced Hoard instance and export its telemetry");
    parser.add_int("--threads", "N",
                   "worker threads / heaps (default 4)", &opt.threads);
    parser.add_int("--slots", "N",
                   "live objects per thread (default 800)", &opt.slots);
    parser.add_int("--rounds", "N",
                   "replacements per epoch (default 5000)",
                   &opt.rounds);
    parser.add_int("--epochs", "N", "thread generations (default 4)",
                   &opt.epochs);
    parser.add_int("--ring", "N",
                   "trace events retained per shard, power\n"
                   "of two (default 4096)",
                   &opt.ring_events);
    parser.add_string("--trace", "FILE",
                      "write Chrome trace JSON (chrome://tracing)",
                      &opt.trace_path);
    parser.add_string("--prom", "FILE",
                      "write Prometheus text exposition",
                      &opt.prom_path);
    parser.add_string("--timeline", "FILE",
                      "write the gauge timeline as JSONL\n"
                      "(schema hoard-timeline-v6)",
                      &opt.timeline_path);
    parser.add_uint64("--interval", "N",
                      "nanoseconds between timeline samples\n"
                      "(default 200000)",
                      &opt.interval, 1);
    parser.add_string("--profile", "FILE",
                      "write a pprof heap profile\n"
                      "(profile.proto; `pprof -http=: FILE`)",
                      &opt.profile_path);
    parser.add_uint64("--profile-rate", "N",
                      "mean bytes between profile samples;\n"
                      "1 samples every allocation (default\n"
                      "65536 when --profile is given)",
                      &opt.profile_rate, 1);
    parser.add_string("--snapshot", "FILE",
                      "write the human-readable snapshot\n"
                      "(default: stdout)",
                      &opt.snapshot_path);
    parser.add_flag("--latency",
                    "arm the per-path latency histograms\n"
                    "(exact mode: every op timed) and print\n"
                    "the per-path percentile table",
                    &opt.latency);
    parser.add_uint64("--outlier", "N",
                      "with --latency: trace ops slower than\n"
                      "N cycles into the event ring (default\n"
                      "0 = off)",
                      &opt.outlier_cycles, 1);
    parser.add_flag("--purge",
                    "after the churn, force one purge pass\n"
                    "(madvise decommit of idle empties) and\n"
                    "print the bytes decommitted",
                    &opt.do_purge);
    parser.add_uint64("--rss", "BYTES",
                      "arm RSS targeting: automatic purge\n"
                      "passes while committed bytes exceed\n"
                      "BYTES (default 0 = off)",
                      &opt.rss_target, 1);
    parser.add_flag("--quiet", "verdicts only", &opt.quiet);
    parser.parse(argc, argv);

    const bool want_profile =
        !opt.profile_path.empty() || opt.profile_rate != 0;
    if ((opt.ring_events & (opt.ring_events - 1)) != 0 ||
        opt.ring_events < 2) {
        std::fprintf(stderr,
                     "hoardctl: --ring must be a power of two >= 2\n");
        return 2;
    }

    Config config;
    config.heap_count = opt.threads;
    config.thread_cache_blocks = 8;
    config.observability = true;
    config.obs_ring_events = static_cast<std::size_t>(opt.ring_events);
    if (!opt.timeline_path.empty())
        config.obs_sample_interval = opt.interval;
    if (want_profile) {
        // A short churn at the production default (512 KiB) yields a
        // handful of samples; 64 KiB gives a usable profile without
        // distorting the run.
        config.profile_sample_rate = static_cast<std::size_t>(
            opt.profile_rate != 0 ? opt.profile_rate : 65536);
    }
    if (opt.latency) {
        config.latency_histograms = true;
        // Exact mode: a diagnosis run wants every op in the histogram,
        // not one in 64 — the few-percent overhead is irrelevant here.
        config.latency_sample_period = 1;
        config.latency_outlier_cycles = opt.outlier_cycles;
    }
    if (opt.rss_target != 0) {
        config.rss_target_bytes =
            static_cast<std::size_t>(opt.rss_target);
        // React within the run, not once per default interval.
        config.purge_interval_ticks = 1;
    }
    HoardAllocator<NativePolicy> allocator(config);

    workloads::LarsonParams params;
    params.nthreads = opt.threads;
    params.slots_per_thread = opt.slots;
    params.rounds_per_epoch = opt.rounds;
    params.epochs = opt.epochs;
    workloads::native_run(opt.threads, [&allocator, &params](int tid) {
        workloads::larson_thread<NativePolicy>(allocator, params, tid);
    });

    if (opt.do_purge) {
        std::size_t purged = allocator.purge(/*force=*/true);
        if (!opt.quiet) {
            std::printf("purge: %llu bytes decommitted (committed "
                        "%llu, purged gauge %llu)\n",
                        static_cast<unsigned long long>(purged),
                        static_cast<unsigned long long>(
                            allocator.stats()
                                .committed_bytes.current()),
                        static_cast<unsigned long long>(
                            allocator.stats().purged_bytes.current()));
        }
    }

    allocator.sample_now();  // flush the timeline with a final sample
    obs::AllocatorSnapshot snap = allocator.take_snapshot();

    if (!opt.quiet) {
        if (opt.snapshot_path.empty()) {
            obs::write_human(std::cout, snap);
        } else {
            std::ofstream os(opt.snapshot_path);
            obs::write_human(os, snap);
            std::printf("snapshot: %s\n", opt.snapshot_path.c_str());
        }
    }
    if (!opt.prom_path.empty()) {
        std::ofstream os(opt.prom_path);
        obs::write_prometheus(os, snap);
        if (allocator.profiler() != nullptr)
            allocator.profiler()->write_prometheus(os);
        if (!opt.quiet)
            std::printf("prometheus: %s\n", opt.prom_path.c_str());
    }
    if (!opt.timeline_path.empty() && allocator.sampler() != nullptr) {
        std::ofstream os(opt.timeline_path);
        obs::write_timeseries_jsonl(os, *allocator.sampler());
        if (!opt.quiet) {
            std::printf("timeline: %s (%llu samples, %llu "
                        "overwritten)\n",
                        opt.timeline_path.c_str(),
                        static_cast<unsigned long long>(
                            allocator.sampler()->total_samples()),
                        static_cast<unsigned long long>(
                            allocator.sampler()->dropped()));
        }
    }
    if (!opt.trace_path.empty()) {
        std::ofstream os(opt.trace_path);
        obs::write_chrome_trace(os, *allocator.recorder(),
                                /*ts_per_us=*/1000.0,
                                allocator.sampler());
        if (!opt.quiet) {
            std::printf("chrome trace: %s (%llu events recorded, "
                        "%llu dropped)\n",
                        opt.trace_path.c_str(),
                        static_cast<unsigned long long>(
                            allocator.recorder()->total_recorded()),
                        static_cast<unsigned long long>(
                            allocator.recorder()->dropped()));
        }
    }
    if (!opt.profile_path.empty() && allocator.profiler() != nullptr) {
        std::ofstream os(opt.profile_path, std::ios::binary);
        allocator.profiler()->write_pprof_profile(os);
        if (!opt.quiet) {
            const obs::ProfilerTotals totals =
                allocator.profiler()->totals();
            std::printf("pprof profile: %s (%llu sites, %llu sampled "
                        "objects, %llu live)\n",
                        opt.profile_path.c_str(),
                        static_cast<unsigned long long>(totals.sites),
                        static_cast<unsigned long long>(
                            totals.sampled_objects),
                        static_cast<unsigned long long>(
                            totals.live_objects));
        }
    }

    if (opt.latency && snap.latency_armed && !opt.quiet) {
        std::printf("latency (cycles, %llu ops, %llu outliers):\n",
                    static_cast<unsigned long long>(
                        snap.latency.total_count()),
                    static_cast<unsigned long long>(
                        snap.latency.outliers));
        std::printf("  %-18s %12s %10s %10s %10s %12s\n", "path", "n",
                    "p50", "p99", "p99.9", "max");
        for (int p = 0; p < obs::kLatencyPathCount; ++p) {
            const auto path = static_cast<obs::LatencyPath>(p);
            const obs::LatencyHistogram& h = snap.latency.path(path);
            if (h.count() == 0)
                continue;
            std::printf("  %-18s %12llu %10.0f %10.0f %10.0f %12llu\n",
                        obs::to_string(path),
                        static_cast<unsigned long long>(h.count()),
                        h.percentile(50.0), h.percentile(99.0),
                        h.percentile(99.9),
                        static_cast<unsigned long long>(h.max()));
        }
    }

    bool reconciles = snap.reconciles();
    bool invariant = snap.all_heaps_satisfy_invariant();
    std::printf("reconcile: %s\n", reconciles ? "PASS" : "FAIL");
    std::printf("emptiness invariant: %s\n",
                invariant ? "PASS" : "FAIL");
    return reconciles && invariant ? 0 : 1;
}
