/**
 * @file
 * Overhead gates for the allocator's switchable layers: the
 * observability layer (src/obs/: tracing, lock profiling, latency
 * histograms, the timeline sampler), hardened free, the sampling heap
 * profiler and the page layer's arena carve.
 *
 * Every allocator gate runs under shipped_config(), the configuration
 * libhoard.so runs (thread magazines on), over 64 B alloc/free pairs
 * with LIFO reuse:
 *
 *   gate            baseline               variant               budget
 *   idle sampler    tracing on             + idle sampler        2%
 *   hardened free   hardened_free = false  shipped (hardened)    2%
 *   armed profiler  shipped (rate 0)       rate 512 KiB          5%
 *   armed latency   shipped (disarmed)     latency_histograms    5%
 *   arena carve     mmap provider spans    reserved-arena spans  faster
 *   canary          shipped                + planted pair        flagged
 *
 * Every gate compares two runtime settings of the one
 * HoardAllocator<NativePolicy> instantiation that ships; no part of
 * the allocator has a build switch.  Every per-op hook is armed by a
 * bit of one hook word, so a disarmed op pays one load of that word.
 *
 * The idle sampler runs tracing on with a timeline interval so large
 * it never fires: the residue is the per-thread op tick and the due
 * check it triggers every 256 ops, which must not tax users who
 * enable tracing.
 *
 * Method.  Each measurement runs in its own forked process, so every
 * one re-rolls superblock placement and address-space layout instead
 * of freezing one lucky or unlucky layout into the verdict.  Each rep
 * times every gate in ABBA order (baseline, variant, variant,
 * baseline), which cancels linear drift within the rep.  A gate reads
 * the median over reps of the paired overhead
 * (v1 + v2 - b1 - b2) / (b1 + b2), printed with a 95% percentile
 * bootstrap interval of that median.  The bench pins itself to one
 * CPU, every measurement is the fastest of five slices inside its
 * process, and a quartet that straddled a change of host speed is
 * timed again (see Gate::run_rep).
 *
 * The canary shows the method resolves a difference of the size it
 * gates: its loop plants 1.5x the tolerance in force on the reference
 * pair (one uncounted pair every 33, +3.03%, at the 2% budget), and
 * --check fails unless the canary's median exceeds that tolerance.
 *
 *   ./build/bench/micro_obs_overhead            # report only
 *   ./build/bench/micro_obs_overhead --check    # exit 1 on a failed gate
 *
 * Environment knobs: HOARD_OBS_TOLERANCE_PCT (default 2: idle
 * sampler, hardened free and canary), HOARD_PROF_TOLERANCE_PCT
 * and HOARD_LAT_TOLERANCE_PCT (default 5), HOARD_OBS_OPS (64 B pairs
 * per measurement, default 500000), HOARD_OBS_REPS (ABBA reps, default
 * 61, minimum 15).  At 61 reps (about 20 s) the canary reads +2.5% to
 * +3.7% on a shared 4-vCPU guest; at 31 it read as low as +2.05%.
 */

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/facade.h"
#include "core/hoard_allocator.h"
#include "os/page_provider.h"
#include "os/reserved_arena.h"
#include "policy/native_policy.h"

namespace {

using namespace hoard;

/** Keeps the allocation from being optimized away. */
inline void
keep(void* p)
{
    asm volatile("" : : "r"(p) : "memory");
}

/** Slices per measurement; the fastest one is the reading. */
constexpr int kSlices = 5;

/** One LIFO alloc/free pair at 64 bytes. */
inline void
pair(HoardAllocator<NativePolicy>& allocator)
{
    void* p = allocator.allocate(64);
    keep(p);
    allocator.deallocate(p);
}

/** Shape of a timed pair loop: counted pairs, in blocks of block. */
struct PairLoop
{
    std::size_t pairs;
    std::size_t block;
};

/**
 * ns per pair over @p loop.  With @p plant set (the canary) one
 * uncounted pair follows each block: a cost of exactly 1/block of the
 * reference pair on any machine and in any host state, which no
 * calibrated spin matches.  Every variant runs the same block loop,
 * so the block branch costs them all alike.  The pairs run in
 * kSlices slices and the fastest slice is the reading, so a transient
 * stall inside the process (a timer tick, a host hiccup) does not
 * count.
 */
double
time_pairs(HoardAllocator<NativePolicy>& allocator, const PairLoop& loop,
           bool plant)
{
    // Warm the size class so the loop never maps fresh superblocks.
    void* warm = allocator.allocate(64);
    allocator.deallocate(warm);

    const std::size_t slice = loop.pairs / kSlices + 1;
    double best = std::numeric_limits<double>::max();
    for (int s = 0; s < kSlices; ++s) {
        std::size_t countdown = loop.block;
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < slice; ++i) {
            pair(allocator);
            if (--countdown == 0) {
                countdown = loop.block;
                if (plant)
                    pair(allocator);
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                      static_cast<double>(slice));
    }
    return best;
}

/** A measurement of @p loop's 64 B pairs under @p config. */
std::function<double()>
pairs_under(const Config& config, const PairLoop& loop, bool plant = false)
{
    return [config, loop, plant] {
        HoardAllocator<NativePolicy> allocator(config);
        return time_pairs(allocator, loop, plant);
    };
}

/**
 * ns per map/touch/unmap round trip of an S-aligned superblock span
 * straight against a page provider — the cost a fresh-superblock miss
 * pays below the allocator.  The touch forces the first page fault so
 * a provider that merely defers work to the first access cannot win
 * by cheating.  The reserved-arena provider recycles spans from its
 * free stacks (unmap = one madvise, map = lock-free pop with no
 * syscall); the mmap provider pays a full mmap/munmap VMA round trip
 * per pair.
 */
double
time_span_pairs(os::PageProvider& provider, std::size_t pairs)
{
    constexpr std::size_t kSpan = 64 * 1024;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pairs; ++i) {
        void* p = provider.map(kSpan, kSpan);
        keep(p);
        *static_cast<volatile char*>(p) = 1;
        provider.unmap(p, kSpan);
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(pairs);
}

/**
 * Pins this process, and with it every measurement child, to the CPU
 * it runs on now.  On a shared host one vCPU can run a pair at half
 * the speed of another (a busy hyperthread sibling), and that state
 * lasts for seconds; a baseline and variant that migrate apart would
 * measure the host, not the code.
 */
void
pin_to_current_cpu()
{
    const int cpu = ::sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

/**
 * Runs @p measure in a forked child and returns the ns/pair it reports
 * through a pipe.  Exits the bench if the child dies.
 */
double
in_child(const std::function<double()>& measure)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(2);
    }
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(2);
    }
    if (pid == 0) {
        ::close(fds[0]);
        const double ns = measure();
        const bool sent = ::write(fds[1], &ns, sizeof ns) ==
                          static_cast<ssize_t>(sizeof ns);
        ::_exit(sent ? 0 : 1);
    }
    ::close(fds[1]);
    double ns = 0.0;
    const bool got = ::read(fds[0], &ns, sizeof ns) ==
                     static_cast<ssize_t>(sizeof ns);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "measurement child failed\n");
        std::exit(2);
    }
    return ns;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** 95% percentile-bootstrap interval of the median of @p pct. */
std::pair<double, double>
bootstrap_median_ci(const std::vector<double>& pct)
{
    constexpr int kResamples = 4000;
    std::mt19937_64 rng(0x0b5e7a11ULL);
    std::uniform_int_distribution<std::size_t> pick(0, pct.size() - 1);
    std::vector<double> medians(kResamples);
    std::vector<double> sample(pct.size());
    for (double& m : medians) {
        for (double& s : sample)
            s = pct[pick(rng)];
        m = median(sample);
    }
    std::sort(medians.begin(), medians.end());
    return {medians[kResamples * 25 / 1000],
            medians[kResamples * 975 / 1000 - 1]};
}

double
env_double(const char* name, double fallback)
{
    const char* s = std::getenv(name);
    if (s == nullptr || *s == '\0')
        return fallback;
    char* end = nullptr;
    double v = std::strtod(s, &end);
    return end == s ? fallback : v;
}

/** What a gate's paired median must do to pass. */
enum class Rule {
    within,   ///< at most the budget
    faster,   ///< below zero
    flagged,  ///< above the budget (the canary)
};

/** One baseline/variant pair, timed ABBA in fresh processes per rep. */
struct Gate
{
    std::string name;
    std::string base_label;
    std::function<double()> base;
    std::string variant_label;
    std::function<double()> variant;
    double budget_pct;
    Rule rule;
    std::vector<double> base_ns = {};     // two per rep
    std::vector<double> variant_ns = {};  // two per rep
    int retimed = 0;  ///< quartets timed again, see run_rep

    /**
     * One ABBA quartet.  A quartet whose two readings of one side
     * differ by more than kMaxSideRatio straddled a change of host
     * state (a vCPU's speed can halve for seconds, which no drift
     * model cancels) and is timed again, up to kMaxTries times.
     */
    void
    run_rep()
    {
        constexpr double kMaxSideRatio = 1.25;
        constexpr int kMaxTries = 3;
        auto ratio = [](double a, double b) {
            return std::max(a, b) / std::min(a, b);
        };
        double b1 = 0, v1 = 0, v2 = 0, b2 = 0;
        for (int attempt = 1;; ++attempt) {
            b1 = in_child(base);
            v1 = in_child(variant);
            v2 = in_child(variant);
            b2 = in_child(base);
            if (attempt == kMaxTries || (ratio(b1, b2) <= kMaxSideRatio &&
                                         ratio(v1, v2) <= kMaxSideRatio))
                break;
            ++retimed;
        }
        base_ns.insert(base_ns.end(), {b1, b2});
        variant_ns.insert(variant_ns.end(), {v1, v2});
    }

    /** Per-rep paired overhead percentages. */
    std::vector<double>
    paired_pct() const
    {
        std::vector<double> pct;
        for (std::size_t r = 0; r + 1 < base_ns.size(); r += 2) {
            const double b = base_ns[r] + base_ns[r + 1];
            const double v = variant_ns[r] + variant_ns[r + 1];
            pct.push_back((v - b) / b * 100.0);
        }
        return pct;
    }
};

}  // namespace

int
main(int argc, char** argv)
{
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
    }

    const auto pairs = static_cast<std::size_t>(
        env_double("HOARD_OBS_OPS", 5e5));
    const int reps = std::max(
        15, static_cast<int>(env_double("HOARD_OBS_REPS", 61)));
    const double tolerance_pct =
        env_double("HOARD_OBS_TOLERANCE_PCT", 2.0);
    const double prof_tolerance_pct =
        env_double("HOARD_PROF_TOLERANCE_PCT", 5.0);
    const double lat_tolerance_pct =
        env_double("HOARD_LAT_TOLERANCE_PCT", 5.0);
    // Each span pair is a map/unmap round trip; scale the count so the
    // span loop costs about as much wall clock as the hot path.
    const std::size_t span_pairs = pairs / 256 + 1;
    pin_to_current_cpu();

    const Config shipped = shipped_config();
    Config unhardened = shipped;
    unhardened.hardened_free = false;
    Config traced = shipped;
    traced.observability = true;
    Config idle_sampler = traced;
    // An interval no steady_clock timestamp reaches: the op tick and
    // the due check run, the sample never fires.
    idle_sampler.obs_sample_interval =
        std::numeric_limits<std::uint64_t>::max() / 2;
    Config armed_prof = shipped;
    // The production default documented in docs/PROFILING.md.
    armed_prof.profile_sample_rate = std::size_t{512} * 1024;
    Config armed_lat = shipped;
    // Armed at the default fast-path sample period (Config doc).
    armed_lat.latency_histograms = true;

    auto mmap_spans = [span_pairs] {
        os::MmapPageProvider provider;
        return time_span_pairs(provider, span_pairs);
    };
    auto arena_spans = [span_pairs] {
        os::ReservedArenaProvider provider;
        return time_span_pairs(provider, span_pairs);
    };

    // Canary: one planted pair per block is 1.5x the tolerance in
    // force (33 pairs, +3.03%, at the 2% budget).
    const auto canary_block = static_cast<std::size_t>(
        std::max(1L, std::lround(100.0 / (1.5 * tolerance_pct))));
    const PairLoop loop{pairs, canary_block};
    std::printf("canary: one uncounted pair planted every %zu pairs "
                "(+%.2f%%)\n",
                loop.block, 100.0 / static_cast<double>(loop.block));

    std::vector<Gate> gates = {
        {"idle sampler", "tracing on", pairs_under(traced, loop),
         "+ idle sampler", pairs_under(idle_sampler, loop),
         tolerance_pct, Rule::within},
        {"hardened free", "trusting free", pairs_under(unhardened, loop),
         "hardened (shipped)", pairs_under(shipped, loop),
         tolerance_pct, Rule::within},
        {"armed profiler", "rate 0 (shipped)", pairs_under(shipped, loop),
         "512 KiB mean rate", pairs_under(armed_prof, loop),
         prof_tolerance_pct, Rule::within},
        {"armed latency", "disarmed (shipped)",
         pairs_under(shipped, loop), "armed, default period",
         pairs_under(armed_lat, loop), lat_tolerance_pct, Rule::within},
        {"arena carve", "mmap provider", mmap_spans,
         "reserved-arena provider", arena_spans, 0.0, Rule::faster},
        {"canary", "shipped", pairs_under(shipped, loop), "planted pair",
         pairs_under(shipped, loop, true), tolerance_pct,
         Rule::flagged},
    };

    for (int r = 0; r < reps; ++r) {
        for (Gate& gate : gates)
            gate.run_rep();
    }

    std::printf("%d ABBA reps, one process per measurement; %zu 64 B "
                "pairs (%zu 64 KiB spans) each; best-of ns/pair, paired "
                "median overhead [95%% bootstrap interval]:\n",
                reps, pairs, span_pairs);
    bool failed = false;
    std::vector<std::string> verdicts;
    for (const Gate& gate : gates) {
        const std::vector<double> pct = gate.paired_pct();
        const double med = median(pct);
        const auto [lo, hi] = bootstrap_median_ci(pct);
        std::printf("  %-15s %-20s %8.2f  %-24s %8.2f  %+6.2f%% "
                    "[%+.2f, %+.2f]  retimed %d\n",
                    gate.name.c_str(), gate.base_label.c_str(),
                    *std::min_element(gate.base_ns.begin(),
                                      gate.base_ns.end()),
                    gate.variant_label.c_str(),
                    *std::min_element(gate.variant_ns.begin(),
                                      gate.variant_ns.end()),
                    med, lo, hi, gate.retimed);
        bool pass = false;
        char line[160];
        switch (gate.rule) {
          case Rule::within:
            pass = med <= gate.budget_pct;
            std::snprintf(line, sizeof line,
                          "%s overhead %+.2f%% %s %.2f%%",
                          gate.name.c_str(), med,
                          pass ? "within" : "exceeds", gate.budget_pct);
            break;
          case Rule::faster:
            pass = med < 0.0;
            std::snprintf(line, sizeof line,
                          "%s %+.2f%% vs mmap path (must be faster)",
                          gate.name.c_str(), med);
            break;
          case Rule::flagged:
            pass = med > gate.budget_pct;
            std::snprintf(line, sizeof line,
                          "%s %+.2f%% %s at the %.2f%% budget",
                          gate.name.c_str(), med,
                          pass ? "flagged" : "NOT flagged",
                          gate.budget_pct);
            break;
        }
        failed = failed || !pass;
        verdicts.push_back(std::string(pass ? "PASS: " : "FAIL: ") +
                           line);
    }
    if (!check)
        return 0;
    for (const std::string& verdict : verdicts)
        std::printf("%s\n", verdict.c_str());
    return failed ? 1 : 0;
}
