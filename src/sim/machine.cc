#include "sim/machine.h"

#include <atomic>

#include "common/failure.h"

namespace hoard {
namespace sim {

namespace {

/// The machine whose run() loop is active on this host thread.
Machine* g_current_machine = nullptr;

/// Thread-exit hook for simulated threads (allocator magazine flush).
std::atomic<void (*)(void*)> g_thread_exit_hook{nullptr};

}  // namespace

Machine::Machine(int nprocs, const CostModel& costs, std::uint64_t quantum)
    : nprocs_(nprocs), costs_(costs), quantum_(quantum), cache_(costs_)
{
    HOARD_CHECK(nprocs >= 1 && nprocs <= 32);
}

Machine::~Machine() = default;

void
Machine::spawn(int proc, int logical_tid, std::function<void()> body)
{
    HOARD_CHECK(!in_run_);
    HOARD_CHECK(proc >= 0 && proc < nprocs_);

    auto thread = std::make_unique<SimThread>();
    SimThread* t = thread.get();
    t->proc_ = proc;
    t->logical_tid_ = logical_tid;
    t->index_ = static_cast<int>(threads_.size());
    t->fiber_ = std::make_unique<Fiber>([this, t, fn = std::move(body)] {
        fn();
        // Thread exit: flush this fiber's allocator magazines while the
        // fiber can still take virtual locks and be charged for it.
        void (*hook)(void*) =
            g_thread_exit_hook.load(std::memory_order_acquire);
        if (t->cache_slot_ != nullptr && hook != nullptr) {
            hook(t->cache_slot_);
            t->cache_slot_ = nullptr;
        }
        commit(t);
        t->state_ = SimThread::State::finished;
        if (t->clock_ > makespan_)
            makespan_ = t->clock_;
        switch_to_scheduler();
    });
    threads_.push_back(std::move(thread));
}

std::uint64_t
Machine::run()
{
    HOARD_CHECK(!in_run_);
    HOARD_CHECK(g_current_machine == nullptr);
    in_run_ = true;
    g_current_machine = this;
    scheduler_fiber_ = Fiber::wrap_host();
    makespan_ = 0;

    for (auto& t : threads_) {
        if (t->state_ == SimThread::State::ready)
            make_ready(t.get());
    }

    std::size_t finished = 0;
    while (finished < threads_.size()) {
        if (ready_.empty()) {
            HOARD_PANIC("simulated deadlock: %zu thread(s) blocked forever",
                        threads_.size() - finished);
        }
        SimThread* t = *ready_.begin();
        ready_.erase(ready_.begin());
        t->state_ = SimThread::State::running;
        running_ = t;
        t->fiber_->resume_from(*scheduler_fiber_);
        running_ = nullptr;
        if (t->state_ == SimThread::State::finished)
            ++finished;
    }

    g_current_machine = nullptr;
    in_run_ = false;
    return makespan_;
}

Machine*
Machine::current()
{
    return g_current_machine;
}

void
Machine::commit(SimThread* t)
{
    t->clock_ += t->pending_;
    t->pending_ = 0;
}

void
Machine::make_ready(SimThread* t)
{
    t->seq_ = next_seq_++;
    t->state_ = SimThread::State::ready;
    ready_.insert(t);
}

void
Machine::charge(std::uint64_t cycles)
{
    SimThread* t = running_;
    HOARD_DCHECK(t != nullptr);
    t->pending_ += cycles;
    if (t->pending_ >= quantum_)
        yield();
}

void
Machine::touch(const void* p, std::size_t bytes, bool write)
{
    SimThread* t = running_;
    HOARD_DCHECK(t != nullptr);
    charge(cache_.access(t->proc_, p, bytes, write));
}

void
Machine::yield()
{
    SimThread* t = running_;
    HOARD_DCHECK(t != nullptr);
    commit(t);
    // Fast path: still the earliest runnable thread, keep going without
    // a fiber switch.
    if (ready_.empty() || (*ready_.begin())->clock() >= t->clock_)
        return;
    make_ready(t);
    switch_to_scheduler();
}

void
Machine::block_running()
{
    SimThread* t = running_;
    HOARD_DCHECK(t != nullptr);
    commit(t);
    t->state_ = SimThread::State::blocked;
    switch_to_scheduler();
}

void
Machine::wake(SimThread* t, std::uint64_t at)
{
    HOARD_CHECK(t->state_ == SimThread::State::blocked);
    if (t->clock_ < at)
        t->clock_ = at;
    make_ready(t);
}

void
Machine::switch_to_scheduler()
{
    SimThread* t = running_;
    // swapcontext back into Machine::run's loop.
    Fiber* self = t->fiber_.get();
    // resume_from(scheduler <- self): swap current (self) out, scheduler in.
    scheduler_fiber_->resume_from(*self);
}

int
Machine::current_proc() const
{
    HOARD_DCHECK(running_ != nullptr);
    return running_->proc_;
}

int
Machine::current_tid() const
{
    HOARD_DCHECK(running_ != nullptr);
    return running_->logical_tid_;
}

void
Machine::rebind_tid(int logical_tid)
{
    HOARD_DCHECK(running_ != nullptr);
    running_->logical_tid_ = logical_tid;
}

void*&
Machine::thread_cache_slot()
{
    HOARD_DCHECK(running_ != nullptr);
    return running_->cache_slot_;
}

detail::OpTick&
Machine::op_tick()
{
    HOARD_DCHECK(running_ != nullptr);
    return running_->op_tick_;
}

std::uint64_t
Machine::profile_site() const
{
    HOARD_DCHECK(running_ != nullptr);
    return running_->profile_site_;
}

void
Machine::set_profile_site(std::uint64_t token)
{
    HOARD_DCHECK(running_ != nullptr);
    running_->profile_site_ = token;
}

void
Machine::set_thread_exit_hook(void (*hook)(void*))
{
    g_thread_exit_hook.store(hook, std::memory_order_release);
}

std::uint64_t
Machine::current_clock()
{
    HOARD_DCHECK(running_ != nullptr);
    commit(running_);
    return running_->clock();
}

}  // namespace sim
}  // namespace hoard
