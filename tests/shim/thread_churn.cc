/**
 * @file
 * Thread churn under the LD_PRELOAD shim: creates and joins 300 000
 * threads one after another, each doing one malloc(64)/free pair, and
 * exits 0.  Run with LD_PRELOAD=libhoard.so (tests/CMakeLists.txt).
 *
 * Every thread registers magazine metadata inside a shim wrapper, and
 * the shim serves allocations made inside a wrapper from a fixed 8 MiB
 * bootstrap arena that is never reused.  Any per-thread residue there
 * (metadata, a TLS-destructor registration) adds up: 300 000 threads
 * exhaust the arena at anything above ~28 B per thread, and the
 * process dies in malloc or in thread setup.
 */

#include <pthread.h>

#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kThreads = 300000;

void*
churn_once(void* /* arg */)
{
    // volatile: the compiler may not elide the pair.
    void* volatile p = std::malloc(64);
    if (p == nullptr)
        return reinterpret_cast<void*>(1);
    static_cast<char*>(p)[0] = 1;
    std::free(p);
    return nullptr;
}

}  // namespace

int
main()
{
    for (long i = 0; i < kThreads; ++i) {
        pthread_t thread;
        if (pthread_create(&thread, nullptr, &churn_once, nullptr) != 0) {
            std::fprintf(stderr, "pthread_create failed at thread %ld\n",
                         i);
            return 1;
        }
        void* result = nullptr;
        if (pthread_join(thread, &result) != 0 || result != nullptr) {
            std::fprintf(stderr, "thread %ld failed\n", i);
            return 1;
        }
    }
    return 0;
}
