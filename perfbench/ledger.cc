/**
 * @file
 * Layer ledger: each layer's public entry point timed in isolation,
 * next to the C library's malloc (perfbench/README.md).
 *
 *   ledger.glibc.pair_ns         malloc + free of a small block
 *   ledger.core.heap.pair_ns     HoardAllocator<NativePolicy>, default
 *                                Config (the facade's: magazines off)
 *   ledger.core.magazine.pair_ns the same with thread_cache_blocks > 0
 *   ledger.core.huge.pair_ns     64 KiB allocate + deallocate
 *   ledger.os.span_ns            ReservedArenaProvider map + unmap of
 *                                one superblock
 *
 * Each is measured on one thread and again on 4 threads at once against
 * one shared instance (the ".t4" variant, one thread per core of a
 * 4-core machine), which exposes the cost of shared-line counter
 * traffic.  A value is the median over
 * repetitions of the slowest thread's wall time per operation.  Prints
 * one JSON object.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/hoard_allocator.h"
#include "os/reserved_arena.h"
#include "policy/native_policy.h"

namespace {

constexpr int kThreads = 4;  ///< the ".t4" variant

/** Keeps @p p observable so a malloc/free pair is not folded away. */
void
sink(void* p)
{
    asm volatile("" : : "r"(p) : "memory");
}

/** Small request sizes cycled by the pair loops, from the run seed. */
struct Sizes
{
    std::size_t v[16];

    explicit Sizes(std::uint64_t seed)
    {
        for (std::size_t& s : v) {
            seed = seed * 6364136223846793005ull + 1442695040888963407ull;
            s = 16 + (seed >> 33) % 497;  // 16 .. 512 B
        }
    }
};

using Loop = std::function<void(std::uint64_t ops)>;

/** A loop of @p ops allocate/release pairs over the cycled sizes. */
template <class Alloc, class Release>
Loop
pairs(const Sizes& sizes, Alloc alloc, Release release)
{
    return [&sizes, alloc, release](std::uint64_t ops) {
        for (std::uint64_t i = 0; i < ops; ++i) {
            void* p = alloc(sizes.v[i % 16]);
            sink(p);
            release(p);
        }
    };
}

/**
 * ns per operation of @p loop on @p threads threads running together:
 * the median over @p reps of the slowest thread's wall time / ops.
 */
double
time_loop(int threads, std::uint64_t ops, int reps, const Loop& loop)
{
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        std::atomic<int> ready{0};
        std::atomic<bool> go{false};
        std::vector<double> per(static_cast<std::size_t>(threads));
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                loop(ops / 16);  // warm caches and lazy set-up
                ready.fetch_add(1);
                while (!go.load(std::memory_order_acquire)) {
                }
                auto t0 = std::chrono::steady_clock::now();
                loop(ops);
                auto t1 = std::chrono::steady_clock::now();
                per[static_cast<std::size_t>(t)] =
                    std::chrono::duration<double, std::nano>(t1 - t0)
                        .count() /
                    static_cast<double>(ops);
            });
        }
        while (ready.load() < threads) {
        }
        go.store(true, std::memory_order_release);
        for (std::thread& th : pool)
            th.join();
        ns.push_back(*std::max_element(per.begin(), per.end()));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

hoard::Config
facade_config()
{
    hoard::Config config;  // what the facade builds with no env knobs
    unsigned hw = std::thread::hardware_concurrency();
    config.heap_count = hw == 0 ? 1 : static_cast<int>(hw);
    return config;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::uint64_t seed = 1;
    std::uint64_t scale = 1;  // --quick divides the op counts by 16
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            scale = 16;
        } else {
            std::fprintf(stderr,
                         "usage: perfbench_ledger [--seed N] [--quick]\n");
            return 2;
        }
    }
    const Sizes sizes(seed);
    const int reps = 5;
    const std::uint64_t small_ops = 200000 / scale;
    const std::uint64_t huge_ops = 8000 / scale;

    using Hoard = hoard::HoardAllocator<hoard::NativePolicy>;
    hoard::Config mag_config = facade_config();
    mag_config.thread_cache_blocks = 64;
    Hoard heap_alloc(facade_config());
    Hoard mag_alloc(mag_config);
    Hoard huge_alloc(facade_config());
    hoard::os::ReservedArenaProvider arena;
    const std::size_t span = facade_config().superblock_bytes;

    struct Row
    {
        const char* name;
        std::uint64_t ops;
        Loop loop;
    };
    const Row rows[] = {
        {"ledger.glibc.pair_ns", small_ops,
         pairs(sizes, [](std::size_t n) { return std::malloc(n); },
               [](void* p) { std::free(p); })},
        {"ledger.core.heap.pair_ns", small_ops,
         pairs(sizes, [&](std::size_t n) { return heap_alloc.allocate(n); },
               [&](void* p) { heap_alloc.deallocate(p); })},
        {"ledger.core.magazine.pair_ns", small_ops,
         pairs(sizes, [&](std::size_t n) { return mag_alloc.allocate(n); },
               [&](void* p) { mag_alloc.deallocate(p); })},
        {"ledger.core.huge.pair_ns", huge_ops,
         pairs(sizes,
               [&](std::size_t) { return huge_alloc.allocate(64 << 10); },
               [&](void* p) { huge_alloc.deallocate(p); })},
        {"ledger.os.span_ns", huge_ops,
         pairs(sizes, [&](std::size_t) { return arena.map(span, span); },
               [&](void* p) { arena.unmap(p, span); })},
    };

    std::string out = "{";
    char buf[160];
    for (const Row& row : rows) {
        double one = time_loop(1, row.ops, reps, row.loop);
        double many = time_loop(kThreads, row.ops, reps, row.loop);
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.4f, \"%s.t%d\": %.4f",
                      out.size() > 1 ? ", " : "", row.name, one, row.name,
                      kThreads, many);
        out += buf;
    }
    std::printf("%s}\n", out.c_str());
    return 0;
}
