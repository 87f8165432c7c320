/**
 * @file
 * Virtual-time multiprocessor.
 *
 * A Machine owns P simulated processors, each running at most one
 * simulated thread (a fiber).  Threads accumulate cycle charges via
 * charge()/touch(); the scheduler always resumes the runnable thread
 * with the smallest virtual clock, so lock queueing and cache-line
 * transfers serialize in virtual time exactly as they would in real
 * time on a real multiprocessor.  The makespan (max final clock) of a
 * run is the figure of merit; speedup(P) = makespan(1) / makespan(P).
 *
 * Determinism: ties in virtual time break by spawn order; the only
 * sources of nondeterminism in a run are the workload RNG seeds, which
 * are fixed.  Threads yield to the scheduler whenever their un-committed
 * charge exceeds a quantum, at every blocking point, and at explicit
 * yield() calls, bounding how far any thread can run ahead of virtual
 * time (DESIGN.md §7 discusses the approximation).
 */

#ifndef HOARD_SIM_MACHINE_H_
#define HOARD_SIM_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/op_tick.h"
#include "sim/cache_model.h"
#include "sim/cost_model.h"
#include "sim/fiber.h"

namespace hoard {
namespace sim {

class Machine;

/** One simulated thread: a fiber plus its virtual clock and identity. */
class SimThread
{
  public:
    enum class State { ready, running, blocked, finished };

    std::uint64_t clock() const { return clock_; }
    int proc() const { return proc_; }
    int logical_tid() const { return logical_tid_; }
    State state() const { return state_; }

  private:
    friend class Machine;
    friend class VirtualMutex;

    std::unique_ptr<Fiber> fiber_;
    void* cache_slot_ = nullptr;  ///< per-fiber allocator cache root
    detail::OpTick op_tick_;      ///< per-fiber op cadence tick
    std::uint64_t profile_site_ = 0;  ///< deterministic backtrace token
    std::uint64_t clock_ = 0;
    std::uint64_t pending_ = 0;   ///< charged but not yet committed
    std::uint64_t seq_ = 0;       ///< tie-break key, set on each enqueue
    int proc_ = 0;
    int logical_tid_ = 0;
    int index_ = 0;
    State state_ = State::ready;
};

/** The simulated multiprocessor. */
class Machine
{
  public:
    /**
     * @param nprocs   number of simulated processors (1..32)
     * @param costs    cycle-cost table
     * @param quantum  max cycles a thread may accumulate before yielding
     */
    explicit Machine(int nprocs, const CostModel& costs = CostModel(),
                     std::uint64_t quantum = 200);
    ~Machine();

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    /**
     * Adds a simulated thread pinned to processor @p proc with the given
     * logical thread id (used for heap mapping).  Must be called before
     * run().
     */
    void spawn(int proc, int logical_tid, std::function<void()> body);

    /** Runs all spawned threads to completion; returns the makespan. */
    std::uint64_t run();

    /// @name Calls valid only from inside a simulated thread.
    /// @{

    /** The machine driving the calling fiber (null outside a run). */
    static Machine* current();

    /** Charges @p cycles of computation; may yield at quantum edges. */
    void charge(std::uint64_t cycles);

    /** Charges a memory access through the cache model; may yield. */
    void touch(const void* p, std::size_t bytes, bool write);

    /** Commits pending charges and reschedules if someone is earlier. */
    void yield();

    int current_proc() const;
    int current_tid() const;

    /**
     * The calling simulated thread's virtual clock, with pending
     * charges committed — the timestamp source for latency measurement
     * inside simulated workloads.
     */
    std::uint64_t current_clock();

    /**
     * Rebinds the calling simulated thread's logical id — models thread
     * churn (the Larson benchmark passes work to "new" threads).
     */
    void rebind_tid(int logical_tid);

    /**
     * The calling simulated thread's opaque cache slot (thread-magazine
     * root) — the per-fiber analogue of a thread_local, because many
     * fibers share one OS thread.
     */
    void*& thread_cache_slot();

    /** The calling simulated thread's op cadence tick
        (common/op_tick.h), per fiber for the same reason. */
    detail::OpTick& op_tick();

    /**
     * The calling fiber's profile-site token: frame 0 of the
     * deterministic "backtrace" SimPolicy::profile_backtrace reports.
     * Simulated workloads set it before an allocation phase the way a
     * real program's call site is implied by its stack.
     */
    std::uint64_t profile_site() const;
    void set_profile_site(std::uint64_t token);

    /// @}

    /**
     * Installs the hook invoked with a thread's non-null cache slot
     * when its fiber body returns.  The hook runs *inside* the fiber,
     * so it may take virtual mutexes and charge costs like any other
     * simulated code.  Process-wide; last writer wins.
     */
    static void set_thread_exit_hook(void (*hook)(void*));

    int nprocs() const { return nprocs_; }
    const CostModel& costs() const { return costs_; }
    CacheModel& cache() { return cache_; }

    /** Total contended lock acquisitions observed (all mutexes). */
    std::uint64_t lock_contentions() const { return lock_contentions_; }

  private:
    friend class VirtualMutex;
    friend class VirtualEvent;

    SimThread* running() const { return running_; }

    /** Commits pending_ into clock_. */
    void commit(SimThread* t);

    /** Puts @p t on the ready queue. */
    void make_ready(SimThread* t);

    /** Suspends the running thread as blocked; returns when woken. */
    void block_running();

    /** Readies @p t with clock at least @p at. */
    void wake(SimThread* t, std::uint64_t at);

    /** Switches from the running fiber back to the scheduler. */
    void switch_to_scheduler();

    void note_contention() { ++lock_contentions_; }

    struct ReadyOrder
    {
        bool
        operator()(const SimThread* a, const SimThread* b) const
        {
            if (a->clock() != b->clock())
                return a->clock() < b->clock();
            return a->seq_ < b->seq_;
        }
    };

    const int nprocs_;
    const CostModel costs_;
    const std::uint64_t quantum_;
    CacheModel cache_;

    std::vector<std::unique_ptr<SimThread>> threads_;
    std::set<SimThread*, ReadyOrder> ready_;
    std::unique_ptr<Fiber> scheduler_fiber_;
    SimThread* running_ = nullptr;
    std::uint64_t next_seq_ = 0;
    std::uint64_t makespan_ = 0;
    std::uint64_t lock_contentions_ = 0;
    bool in_run_ = false;
};

}  // namespace sim
}  // namespace hoard

#endif  // HOARD_SIM_MACHINE_H_
