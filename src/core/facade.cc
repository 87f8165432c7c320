#include "core/facade.h"

#include <pthread.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <ostream>
#include <thread>

#include "common/env.h"
#include "common/mathutil.h"
#include "obs/trace_export.h"

namespace hoard {

namespace {

/// Largest superblock HOARD_SUPERBLOCK_BYTES may select (16 MiB).
constexpr std::uint64_t kMaxEnvSuperblock = std::uint64_t{1} << 24;

}  // namespace

Config
shipped_config()
{
    Config config;
    unsigned hw = std::thread::hardware_concurrency();
    config.heap_count = hw == 0 ? 1 : static_cast<int>(hw);
    config.thread_cache_blocks = 64;
    return config;
}

HoardAllocator<NativePolicy>&
global_allocator()
{
    // Leaked singleton: outlives all static destructors that might free.
    static auto* instance = [] {
        Config config = shipped_config();
        // Every knob reads through the common/env.h grammar: an env
        // typo leaves the default in place rather than aborting every
        // process on the machine.
        // HOARD_HARDENED_FREE=0 restores the trusting free path;
        // HOARD_BAD_FREE=warn counts-and-leaks instead of aborting —
        // both tunable without a rebuild, like HOARD_OBS.
        if (auto on = detail::env_flag("HOARD_HARDENED_FREE"))
            config.hardened_free = *on;
        if (const char* v = std::getenv("HOARD_BAD_FREE")) {
            if (std::strcmp(v, "warn") == 0)
                config.on_bad_free = Config::BadFreePolicy::warn;
            else if (std::strcmp(v, "fatal") == 0)
                config.on_bad_free = Config::BadFreePolicy::fatal;
        }
        // HOARD_PROFILE_RATE=<mean bytes between samples> arms the
        // sampling heap profiler (docs/PROFILING.md); "1" samples
        // every allocation, unset/0 keeps it off.
        if (auto rate = detail::env_number("HOARD_PROFILE_RATE"))
            config.profile_sample_rate = static_cast<std::size_t>(*rate);
        // HOARD_OBS=1 arms event tracing and lock profiling
        // (docs/OBSERVABILITY.md).
        config.observability =
            detail::env_flag("HOARD_OBS").value_or(false);
        // HOARD_LATENCY=1 arms the per-path latency histograms;
        // HOARD_LATENCY_PERIOD tunes the fast-path timing sample
        // period (1 = time every op), and HOARD_LATENCY_OUTLIER sets
        // the outlier-trace threshold in cycles
        // (docs/OBSERVABILITY.md).
        config.latency_histograms =
            detail::env_flag("HOARD_LATENCY").value_or(false);
        if (auto period = detail::env_number("HOARD_LATENCY_PERIOD");
            period && *period >= 1 &&
            *period <= std::numeric_limits<std::uint32_t>::max())
            config.latency_sample_period =
                static_cast<std::uint32_t>(*period);
        if (auto cycles = detail::env_number("HOARD_LATENCY_OUTLIER"))
            config.latency_outlier_cycles = *cycles;
        // HOARD_SUPERBLOCK_BYTES=<pow2 in [1 KiB, 16 MiB]> overrides S
        // without a rebuild (macro_rss runs the shim at 64 KiB so a
        // purged superblock gives back everything but its header
        // page).  The cap keeps the size-class lookup table (two
        // bytes per 8 B of class range, built while the shim still
        // serves from its bootstrap arena) well inside that arena.
        if (auto bytes = detail::env_number("HOARD_SUPERBLOCK_BYTES");
            bytes && *bytes >= 1024 && *bytes <= kMaxEnvSuperblock &&
            detail::is_pow2(*bytes) &&
            config.min_block_bytes < *bytes / 4)
            config.superblock_bytes = static_cast<std::size_t>(*bytes);
        // HOARD_RSS_TARGET=<bytes> and HOARD_PURGE_AGE=<ns> arm the
        // purge pass (docs/SHIM.md): automatic madvise decommit of
        // idle empty superblocks, by committed-bytes target and/or
        // idle age.  HOARD_PURGE_INTERVAL=<ns> tunes the minimum gap
        // between automatic passes.
        if (auto bytes = detail::env_number("HOARD_RSS_TARGET"))
            config.rss_target_bytes = static_cast<std::size_t>(*bytes);
        if (auto ticks = detail::env_number("HOARD_PURGE_AGE"))
            config.purge_age_ticks = *ticks;
        if (auto ticks = detail::env_number("HOARD_PURGE_INTERVAL");
            ticks && *ticks >= 1)
            config.purge_interval_ticks = *ticks;
        // HOARD_TIMELINE=<path> arms the gauge time-series sampler so
        // the LD_PRELOAD shim can dump the v6 timeline there at exit
        // (docs/SHIM.md); the 1 ms default interval keeps a long run's
        // ring meaningful without measurable sampling cost.
        if (const char* v = std::getenv("HOARD_TIMELINE")) {
            if (v[0] != '\0') {
                config.observability = true;
                if (config.obs_sample_interval == 0)
                    config.obs_sample_interval = 1000000;
            }
        }
        return new HoardAllocator<NativePolicy>(config);
    }();
    return *instance;
}

void*
hoard_malloc(std::size_t size)
{
    void* p = global_allocator().allocate(size == 0 ? 1 : size);
    if (p == nullptr)
        errno = ENOMEM;  // POSIX requires it; callers test errno
    return p;
}

void
hoard_free(void* p)
{
    global_allocator().deallocate(p);
}

void*
hoard_calloc(std::size_t count, std::size_t size)
{
    if (size != 0 &&
        count > std::numeric_limits<std::size_t>::max() / size) {
        errno = ENOMEM;  // multiplication would overflow
        return nullptr;
    }
    std::size_t bytes = count * size;
    void* p = hoard_malloc(bytes);
    if (p == nullptr)
        return nullptr;  // errno set by hoard_malloc
    // Huge allocations come straight from freshly mapped pages, which
    // the provider guarantees zeroed, and huge spans are never
    // recycled — skipping the memset makes calloc of large buffers
    // O(1).  Small blocks recycle through free lists and magazines,
    // so they must be cleared.
    if (global_allocator().size_classes().class_for(
            bytes == 0 ? 1 : bytes) != SizeClasses::kHuge)
        std::memset(p, 0, bytes);
    return p;
}

void*
hoard_realloc(void* p, std::size_t size)
{
    void* fresh = global_allocator().reallocate(p, size);
    if (fresh == nullptr && size != 0)
        errno = ENOMEM;  // realloc(p, 0) returns nullptr by design
    return fresh;
}

void*
hoard_aligned_alloc(std::size_t align, std::size_t size)
{
    return global_allocator().allocate_aligned(size == 0 ? 1 : size,
                                               align);
}

int
hoard_posix_memalign(void** out, std::size_t align, std::size_t size)
{
    if (out == nullptr)
        return EINVAL;
    if (!detail::is_pow2(align) || align % sizeof(void*) != 0 ||
        align > global_allocator().config().superblock_bytes / 2) {
        return EINVAL;
    }
    void* p = global_allocator().allocate_aligned(size == 0 ? 1 : size,
                                                  align);
    if (p == nullptr)
        return ENOMEM;
    *out = p;
    return 0;
}

std::size_t
hoard_usable_size(const void* p)
{
    return global_allocator().usable_size(p);
}

std::size_t
hoard_release_free_memory()
{
    return global_allocator().release_free_memory();
}

std::size_t
hoard_purge(bool force)
{
    return global_allocator().purge(force);
}

std::size_t
hoard_committed_bytes()
{
    return global_allocator().stats().committed_bytes.current();
}

std::size_t
hoard_reserved_bytes()
{
    return global_allocator().provider().reserved_bytes();
}

std::size_t
hoard_purged_bytes()
{
    return global_allocator().stats().purged_bytes.current();
}

namespace {

/**
 * Fork lock order (outermost first): the magazine liveness registry —
 * exit flushes hold it around pinning and can precede heap locks —
 * then every lock of the global instance (HoardAllocator::
 * prepare_fork documents its internal order).  Parent unlocks in
 * reverse; the child also repairs torn state (child_after_fork).
 */
void
fork_prepare()
{
    detail::magazine_registry_prepare_fork();
    global_allocator().prepare_fork();
}

void
fork_parent()
{
    global_allocator().parent_after_fork();
    detail::magazine_registry_parent_after_fork();
}

void
fork_child()
{
    global_allocator().child_after_fork();
    detail::magazine_registry_child_after_fork();
}

}  // namespace

void
hoard_install_atfork()
{
    static const int installed = [] {
        global_allocator();  // construct before any fork can happen
        return pthread_atfork(&fork_prepare, &fork_parent, &fork_child);
    }();
    (void)installed;
}

const detail::AllocatorStats&
hoard_stats()
{
    return global_allocator().stats();
}

obs::AllocatorSnapshot
hoard_snapshot()
{
    return global_allocator().take_snapshot();
}

const obs::EventRecorder*
hoard_event_recorder()
{
    return global_allocator().recorder();
}

std::size_t
hoard_write_chrome_trace(std::ostream& os)
{
    const obs::EventRecorder* recorder = hoard_event_recorder();
    if (recorder == nullptr) {
        static const obs::EventRecorder empty{2};
        obs::write_chrome_trace(os, empty);
        return 0;
    }
    obs::write_chrome_trace(os, *recorder);
    return recorder->collect().size();
}

void
hoard_write_prometheus(std::ostream& os)
{
    obs::write_prometheus(os, hoard_snapshot());
    if (const obs::HeapProfiler* prof = hoard_profiler())
        prof->write_prometheus(os);
}

const obs::HeapProfiler*
hoard_profiler()
{
    return global_allocator().profiler();
}

const obs::LatencyCollector*
hoard_latency()
{
    return global_allocator().latency();
}

bool
hoard_write_heap_profile(std::ostream& os)
{
    const obs::HeapProfiler* prof = hoard_profiler();
    if (prof == nullptr)
        return false;
    prof->write_pprof_profile(os);
    return true;
}

bool
hoard_write_timeline(std::ostream& os)
{
    HoardAllocator<NativePolicy>& allocator = global_allocator();
    if (allocator.sampler() == nullptr)
        return false;
    allocator.sample_now();
    obs::write_timeseries_jsonl(os, *allocator.sampler());
    return true;
}

std::size_t
hoard_write_leak_report(std::ostream& os)
{
    const obs::HeapProfiler* prof = hoard_profiler();
    if (prof == nullptr) {
        os << "hoard leak report: profiler disabled "
              "(set HOARD_PROFILE_RATE)\n";
        return 0;
    }
    return prof->write_leak_report(os);
}

}  // namespace hoard
