/**
 * @file
 * Native execution policy: real threads, real mutexes, no cost modeling.
 *
 * The allocator and workload templates are instantiated against a Policy
 * that supplies the mutex type, the thread-to-index mapping, and the cost
 * hooks.  Under NativePolicy the hooks vanish, so the native build is a
 * genuine thread-safe allocator with zero simulation overhead.
 */

#ifndef HOARD_POLICY_NATIVE_POLICY_H_
#define HOARD_POLICY_NATIVE_POLICY_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/op_tick.h"
#include "policy/cost_kind.h"

namespace hoard {

/**
 * Registry mapping OS threads to small dense indices.  Indices are
 * assigned on first use and may be rebound (thread churn in workloads).
 */
class ThreadRegistry
{
  public:
    /**
     * Index of the calling thread, assigning one if needed.  The hot
     * path — one TLS load and a predicted branch — is inline because
     * the heap profiler's armed sampling countdown runs it on every
     * allocation; only first-use assignment leaves the header.
     */
    static int
    index()
    {
        const int idx = t_index;
        if (idx >= 0) [[likely]]
            return idx;
        return assign_index();
    }

    /** Rebinds the calling thread's index (models a fresh thread). */
    static void rebind(int index);

    /** Highest index assigned so far plus one. */
    static int count();

  private:
    static int assign_index();

    static inline thread_local int t_index = -1;
};

/** One-shot broadcast event for real threads. */
class NativeEvent
{
  public:
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return set_; });
    }

    void
    signal()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            set_ = true;
        }
        cv_.notify_all();
    }

    bool
    is_set() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return set_;
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool set_ = false;
};

namespace detail {

/** The per-thread words an allocation touches, in one TLS object so
    the op tick and the magazine slot share a cache line. */
struct ThreadSlots
{
    void* cache_slot = nullptr;
    OpTick op_tick;
};

}  // namespace detail

/** Execution policy for real threads. */
struct NativePolicy
{
    using Mutex = std::mutex;
    using Event = NativeEvent;

    /**
     * Captures the calling thread's backtrace into @p frames (at most
     * @p max entries) by walking the frame-pointer chain; returns the
     * number captured.  No allocation, no libunwind — the tree builds
     * with -fno-omit-frame-pointer precisely so this stays a dozen
     * loads.  noinline so the walk's own frame is a stable first entry
     * to skip.  Defined out of line (native_policy.cc).
     */
    static int profile_backtrace(std::uintptr_t* frames, int max);

    /** Timestamp for trace events and wait timing: steady-clock ns. */
    static std::uint64_t
    timestamp()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /**
     * Cheap cycle counter for latency histograms (obs/latency.h): the
     * raw TSC on x86-64, the virtual counter on aarch64 — a few cycles
     * either way, versus the vDSO call behind timestamp().  Unserialized
     * by design: a stray out-of-order read costs a bucket of noise,
     * serializing would cost more than some paths being measured.
     * Monotonic per thread on every machine this tree targets
     * (constant_tsc is assumed, as every modern x86 provides).
     */
    static std::uint64_t
    cycle_timestamp()
    {
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
        std::uint64_t cnt;
        asm volatile("mrs %0, cntvct_el0" : "=r"(cnt));
        return cnt;
#else
        return timestamp();
#endif
    }

    /** Computation charge: free under native execution. */
    static void work(std::uint64_t /* cycles */) {}

    /** Symbolic allocator-event charge: free under native execution. */
    static void work(CostKind /* kind */) {}

    /** Memory-access charge: free under native execution. */
    static void touch(const void* /* p */, std::size_t /* bytes */,
                      bool /* write */)
    {}

    static int thread_index() { return ThreadRegistry::index(); }
    static void rebind_thread_index(int idx) { ThreadRegistry::rebind(idx); }

    /**
     * The calling logical thread's opaque cache slot (the head of its
     * thread-magazine chain, core/magazine.h).  One slot per OS thread
     * here; under SimPolicy one per fiber — which is why the allocator
     * goes through the policy instead of declaring a thread_local.
     */
    static void*& thread_cache_slot() { return t_slots.cache_slot; }

    /** The calling logical thread's op cadence tick (common/op_tick.h);
        one per OS thread here, one per fiber under SimPolicy. */
    static detail::OpTick& op_tick() { return t_slots.op_tick; }

    /**
     * Installs the process-wide hook invoked with a thread's non-null
     * cache slot when that logical thread exits.  Idempotent; last
     * writer wins.  Returns false when no exit notification can be
     * arranged (out of pthread keys); the caller must then leave the
     * slot unused, since nothing would flush it.
     */
    static bool set_thread_exit_hook(void (*hook)(void*));

    /**
     * Arms the exit hook for the calling thread; called whenever a
     * node joins the thread's chain.  The hook runs from a pthread key
     * destructor: a key below PTHREAD_KEY_2NDLEVEL_SIZE (32) lives in
     * the thread descriptor, so arming allocates nothing, unlike a
     * thread_local with a destructor, whose registration callocs —
     * inside the LD_PRELOAD shim's wrappers, from the never-reused
     * bootstrap arena, once per thread.
     */
    static void arm_thread_exit_hook();

  private:
    /// Initial-exec: a plain %fs-relative load, and no lazy TLS
    /// allocation (the dynamic model may malloc on first touch).
    static inline __thread detail::ThreadSlots t_slots
        __attribute__((tls_model("initial-exec")));
};

}  // namespace hoard

#endif  // HOARD_POLICY_NATIVE_POLICY_H_
