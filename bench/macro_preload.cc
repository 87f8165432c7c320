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
 * It runs twice:
 *
 *  - in-process, i.e. under whatever malloc this binary linked —
 *    glibc — giving the baseline;
 *  - re-executing itself under LD_PRELOAD=libhoard.so, so every
 *    malloc/free in the child (the workload's, libstdc++'s, glibc's
 *    own) goes through the shim, bootstrap arena and hardened free
 *    path included.  The child is signalled by the HOARD_MACRO_RESULT
 *    environment variable — not a CLI flag, since the strict bench CLI
 *    rejects unknown flags — and reports its throughput through that
 *    file.
 *
 * The preload throughput and the hoard/glibc ratio are gated; the
 * glibc number is context.  The ratio normalizes away the runner's
 * speed, which the absolute throughput cannot.  If the shim is not built (libhoard.so missing
 * next to the build tree), the preload half is skipped and only the
 * baseline is reported, so the bench degrades instead of failing in
 * partial builds.  A child that crashes or writes garbage fails the
 * bench: completing under preload IS the acceptance criterion.
 *
 *   ./build/bench/macro_preload [--quick] [--json FILE]
 *
 * HOARD_SHIM_PATH overrides the libhoard.so location.
 */

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

    std::printf("# macro-preload: %d threads x %zu KV ops, "
                "glibc in-process vs LD_PRELOAD=libhoard.so\n",
                params.threads, params.ops_per_thread);

    const double glibc_ops = run_churn(params);
    std::printf("  glibc (in-process):     %12.0f ops/sec\n",
                glibc_ops);
    report.add_metric("glibc_ops_per_sec", glibc_ops, "1/s",
                      hoard::metrics::Better::info);

    const std::string shim = shim_path(argc > 0 ? argv[0] : nullptr);
    if (::access(shim.c_str(), R_OK) != 0) {
        std::printf("  libhoard.so not found at %s — preload half "
                    "skipped\n",
                    shim.c_str());
        if (!cli.json_path.empty() &&
            !report.write_file(cli.json_path))
            return 1;
        return 0;
    }

    const std::string result_path =
        (cli.json_path.empty() ? std::string("macro_preload")
                               : cli.json_path) +
        ".child.tmp";
    std::string cmd = "HOARD_MACRO_RESULT='" + result_path + "'";
    if (cli.quick)
        cmd += " HOARD_MACRO_QUICK=1";
    cmd += " LD_PRELOAD='" + shim + "' '" + argv[0] + "'";

    const int rc = std::system(cmd.c_str());
    double hoard_ops = 0.0;
    bool child_ok = false;
    if (rc == 0) {
        std::ifstream is(result_path);
        child_ok = static_cast<bool>(is >> hoard_ops) && hoard_ops > 0;
    }
    std::remove(result_path.c_str());
    if (!child_ok) {
        std::fprintf(stderr,
                     "macro_preload: preload child failed (rc=%d)\n",
                     rc);
        return 1;
    }

    std::printf("  hoard (LD_PRELOAD):     %12.0f ops/sec\n",
                hoard_ops);
    std::printf("  ratio (hoard/glibc):    %12.2fx\n",
                hoard_ops / glibc_ops);
    report.add_metric("hoard_preload_ops_per_sec", hoard_ops, "1/s",
                      hoard::metrics::Better::higher);
    report.add_metric("preload_ratio", hoard_ops / glibc_ops, "x",
                      hoard::metrics::Better::higher);

    if (!cli.json_path.empty() && !report.write_file(cli.json_path))
        return 1;
    return 0;
}
