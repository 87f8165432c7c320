/**
 * @file
 * Lock-contention profiling for the per-heap and global-heap locks.
 *
 * ProfiledMutex wraps the execution policy's mutex with an
 * std::mutex-compatible API, so std::lock_guard and the allocator's
 * manual lock()/unlock() sites work unchanged.  When profiling is off
 * (the default) the wrapper forwards with zero added work; when on, it
 * counts acquisitions, detects contention with a try_lock fast path,
 * and accumulates the wait time of contended acquisitions into an
 * obs::LatencyHistogram — virtual cycles under SimPolicy, steady_clock
 * nanoseconds under NativePolicy (Policy::timestamp supplies both).
 * The log-linear histogram keeps full tail resolution, so per-heap
 * lock-wait P99 goes out through Prometheus, not just counts/totals.
 *
 * The statistics are mutated only while the wrapped mutex is held, so
 * they need no atomics; readers must hold the lock too (the snapshot
 * walk already does).
 *
 * Observer effect: under SimPolicy a profiled contended acquisition
 * charges the cost model for one extra try_lock probe.  Profiling is
 * for diagnosis runs; figures meant for the paper's tables should keep
 * it off.
 */

#ifndef HOARD_OBS_CONTENTION_H_
#define HOARD_OBS_CONTENTION_H_

#include <atomic>
#include <cstdint>

#include "obs/latency.h"

namespace hoard {
namespace obs {

/** Contention profile of one lock. */
struct LockStats
{
    std::uint64_t acquires = 0;   ///< successful lock() / try_lock()
    std::uint64_t contended = 0;  ///< acquisitions that had to wait
    obs::LatencyHistogram wait;   ///< wait time of contended ones
};

/**
 * Policy mutex wrapped with optional contention profiling.  Profiling
 * is enabled per instance via set_profiled(), which must be called
 * while no other thread can touch the mutex (allocator construction).
 */
template <typename Policy>
class ProfiledMutex
{
  public:
    void
    lock()
    {
        if (profiled_) {
            lock_profiled();
            held_.store(true, std::memory_order_relaxed);
            return;
        }
        inner_.lock();
        held_.store(true, std::memory_order_relaxed);
    }

    bool
    try_lock()
    {
        bool ok = inner_.try_lock();
        if (ok && profiled_)
            ++stats_.acquires;
        if (ok)
            held_.store(true, std::memory_order_relaxed);
        return ok;
    }

    void
    unlock()
    {
        held_.store(false, std::memory_order_relaxed);
        inner_.unlock();
    }

    /**
     * Heuristic busy probe: true when some thread holds the lock.  A
     * relaxed load, so the answer can be stale in either direction —
     * callers must treat it as advice (the remote-free path uses it to
     * choose between a lock-free handoff and a blocking acquire; both
     * choices are correct).  Much cheaper than a failed try_lock on
     * the uncontended path.
     */
    bool
    is_locked_hint() const
    {
        return held_.load(std::memory_order_relaxed);
    }

    /** Turns profiling on/off.  Call only while quiesced. */
    void set_profiled(bool on) { profiled_ = on; }
    bool profiled() const { return profiled_; }

    /** Profile so far.  Caller must hold the lock. */
    const LockStats& stats_locked() const { return stats_; }

  private:
    void
    lock_profiled()
    {
        if (inner_.try_lock()) {
            ++stats_.acquires;
            return;
        }
        std::uint64_t t0 = Policy::timestamp();
        inner_.lock();
        std::uint64_t waited = Policy::timestamp() - t0;
        ++stats_.acquires;
        ++stats_.contended;
        stats_.wait.record(waited);
    }

    typename Policy::Mutex inner_;
    std::atomic<bool> held_{false};
    bool profiled_ = false;
    LockStats stats_;
};

}  // namespace obs
}  // namespace hoard

#endif  // HOARD_OBS_CONTENTION_H_
