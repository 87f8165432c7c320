/**
 * @file
 * macro-preload: threaded KV-store churn under the LD_PRELOAD shim.
 *
 * The other bench binaries call the allocator through its C++ API; this
 * one exercises the production deployment path instead.  The workload
 * is a multi-threaded key/value store doing mixed-size string churn
 * (inserts, overwrites, erases) plus a cross-thread mailbox so some
 * frees land on a foreign thread — a compressed version of the
 * server-style traffic the Hoard paper targets.
 *
 * Both sides run as fresh child processes of this binary, re-executed
 * with the same workload:
 *
 *  - without LD_PRELOAD, under the malloc this binary linked — glibc —
 *    giving the baseline;
 *  - with LD_PRELOAD=libhoard.so, so every malloc/free in the child
 *    (the workload's, libstdc++'s, glibc's own) goes through the shim,
 *    bootstrap arena and hardened free path included.
 *
 * A child is signalled by the HOARD_MACRO_RESULT environment variable —
 * not a CLI flag, since the strict bench CLI rejects unknown flags —
 * and reports its throughput through that file.  The pair runs
 * kRounds times, the order swapping every round, so both sides start
 * equally cold and drift in the host's speed hits both alike.  The
 * reported figures are medians: per-side ops/s, and the per-round
 * hoard/glibc ratio.
 *
 * The preload throughput and the ratio are gated; the glibc number is
 * context.  The ratio normalizes away the runner's speed, which the
 * absolute throughput cannot.  If the shim is not built (libhoard.so
 * missing next to the build tree), the preload half is skipped and
 * only the baseline is reported, so the bench degrades instead of
 * failing in partial builds.  A child that crashes or writes garbage
 * fails the bench: completing under preload IS the acceptance
 * criterion.
 *
 *   ./build/bench/macro_preload [--quick] [--json FILE]
 *
 * HOARD_SHIM_PATH overrides the libhoard.so location.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "bench/fig_common.h"
#include "metrics/bench_report.h"

namespace {

struct ChurnParams
{
    int threads = 4;
    std::size_t ops_per_thread = 600000;
};

/**
 * Mixed-size string churn over per-thread maps, with a shared mailbox
 * donating ~1/64 of the strings to a sibling thread so the remote-free
 * path sees traffic.  Returns operations per second.
 */
double
run_churn(const ChurnParams& params)
{
    std::mutex mailbox_mutex;
    std::vector<std::string> mailbox;

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(params.threads));
    for (int t = 0; t < params.threads; ++t) {
        workers.emplace_back([&, t] {
            std::unordered_map<std::uint64_t, std::string> store;
            std::uint64_t rng =
                0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(t);
            for (std::size_t i = 0; i < params.ops_per_thread; ++i) {
                rng = rng * 6364136223846793005ull +
                      1442695040888963407ull;
                const std::uint64_t key = (rng >> 17) % 4096;
                // 16..527 bytes: spans several size classes.
                const std::size_t len = 16 + ((rng >> 33) % 512);
                store[key].assign(len, static_cast<char>('a' + t));
                if ((rng & 7) == 0)
                    store.erase((rng >> 23) % 4096);
                if ((rng & 63) == 0) {
                    // Donate a string / adopt (and free) a sibling's.
                    std::string incoming;
                    {
                        std::lock_guard<std::mutex> lock(mailbox_mutex);
                        if (!mailbox.empty()) {
                            incoming = std::move(mailbox.back());
                            mailbox.pop_back();
                        }
                        mailbox.emplace_back(len, 'm');
                    }
                }
            }
        });
    }
    for (std::thread& w : workers)
        w.join();
    auto t1 = std::chrono::steady_clock::now();

    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();
    const double ops = static_cast<double>(params.threads) *
                       static_cast<double>(params.ops_per_thread);
    return ops / seconds;
}

ChurnParams
params_for(bool quick)
{
    ChurnParams params;
    if (quick)
        params.ops_per_thread = 60000;
    return params;
}

/** libhoard.so next to this binary's build tree, or the env override. */
std::string
shim_path(const char* argv0)
{
    if (const char* env = std::getenv("HOARD_SHIM_PATH"))
        return env;
    std::string dir = argv0 != nullptr ? argv0 : ".";
    std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    return dir + "/../src/shim/libhoard.so";
}

/** Child half: run the churn, write ops/sec to @p result_path. */
int
child_main(const char* result_path)
{
    const char* quick = std::getenv("HOARD_MACRO_QUICK");
    const double ops =
        run_churn(params_for(quick != nullptr && quick[0] == '1'));
    std::ofstream os(result_path);
    os << ops << "\n";
    os.flush();
    return os.good() ? 0 : 1;
}

/** Alternating glibc/hoard pairs behind every reported figure. */
constexpr int kRounds = 7;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * Re-executes this binary as a churn child, under LD_PRELOAD=@p shim
 * when it is non-empty, and returns the ops/sec it reports through
 * @p result_path — or 0 when the child failed.
 */
double
run_child(const char* argv0, const std::string& result_path, bool quick,
          const std::string& shim)
{
    std::string cmd = "HOARD_MACRO_RESULT='" + result_path + "'";
    if (quick)
        cmd += " HOARD_MACRO_QUICK=1";
    if (!shim.empty())
        cmd += " LD_PRELOAD='" + shim + "'";
    cmd += " '" + std::string(argv0) + "'";
    const int rc = std::system(cmd.c_str());
    double ops = 0.0;
    if (rc == 0) {
        std::ifstream is(result_path);
        if (!(is >> ops) || ops <= 0)
            ops = 0.0;
    }
    std::remove(result_path.c_str());
    if (ops == 0.0) {
        std::fprintf(stderr, "macro_preload: %s child failed (rc=%d)\n",
                     shim.empty() ? "glibc" : "preload", rc);
    }
    return ops;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (const char* result = std::getenv("HOARD_MACRO_RESULT"))
        return child_main(result);

    hoard::bench::FigCli cli = hoard::bench::parse_cli(argc, argv);
    const ChurnParams params = params_for(cli.quick);

    hoard::metrics::BenchReport report(cli.bench_name, cli.quick);
    report.set_title(
        "macro-preload: threaded KV churn under LD_PRELOAD=libhoard.so");

    std::printf("# macro-preload: %d threads x %zu KV ops, glibc vs "
                "LD_PRELOAD=libhoard.so, %d alternating rounds of "
                "child processes\n",
                params.threads, params.ops_per_thread, kRounds);

    const std::string shim = shim_path(argc > 0 ? argv[0] : nullptr);
    const bool have_shim = ::access(shim.c_str(), R_OK) == 0;
    if (!have_shim) {
        std::printf("  libhoard.so not found at %s — preload half "
                    "skipped\n",
                    shim.c_str());
    }
    const std::string result_path =
        (cli.json_path.empty() ? std::string("macro_preload")
                               : cli.json_path) +
        ".child.tmp";

    std::vector<double> glibc_ops;
    std::vector<double> hoard_ops;
    std::vector<double> ratios;
    for (int round = 0; round < kRounds; ++round) {
        double glibc = 0.0;
        double hoard = 0.0;
        // Swap the order every round so neither side always runs first.
        for (int leg = 0; leg < 2; ++leg) {
            if ((leg == 0) == (round % 2 == 0)) {
                glibc = run_child(argv[0], result_path, cli.quick, "");
                if (glibc == 0.0)
                    return 1;
            } else if (have_shim) {
                hoard = run_child(argv[0], result_path, cli.quick, shim);
                if (hoard == 0.0)
                    return 1;
            }
        }
        glibc_ops.push_back(glibc);
        if (have_shim) {
            hoard_ops.push_back(hoard);
            ratios.push_back(hoard / glibc);
        }
    }

    const double glibc = median(glibc_ops);
    std::printf("  glibc:                  %12.0f ops/sec (median)\n",
                glibc);
    report.add_metric("glibc_ops_per_sec", glibc, "1/s",
                      hoard::metrics::Better::info);
    if (have_shim) {
        const double hoard = median(hoard_ops);
        const double ratio = median(ratios);
        std::printf("  hoard (LD_PRELOAD):     %12.0f ops/sec (median)\n",
                    hoard);
        std::printf("  ratio (hoard/glibc):    %12.2fx (median of "
                    "per-round ratios)\n",
                    ratio);
        report.add_metric("hoard_preload_ops_per_sec", hoard, "1/s",
                          hoard::metrics::Better::higher);
        report.add_metric("preload_ratio", ratio, "x",
                          hoard::metrics::Better::higher);
    }

    if (!cli.json_path.empty() && !report.write_file(cli.json_path))
        return 1;
    return 0;
}
