/**
 * @file
 * Allocation-trace recording and replay.
 *
 * The fragmentation studies the paper builds on (Wilson/Johnstone)
 * work from allocation traces; this module provides the same tooling
 * for this repository: wrap any allocator in a TraceRecorder while a
 * workload runs, serialize the (tid, alloc/free, size) stream, and
 * replay it later against any allocator — deterministically, since the
 * replayer reproduces the logical-thread interleaving via rebinding.
 *
 * Uses: regression corpora (a trace captured once pins an allocator
 * behavior forever), apples-to-apples fragmentation comparisons, and
 * importing external workload traces into the bench harness.
 */

#ifndef HOARD_WORKLOADS_TRACE_H_
#define HOARD_WORKLOADS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "common/failure.h"
#include "common/stats.h"
#include "core/allocator.h"

namespace hoard {
namespace workloads {

/** One recorded operation. */
struct TraceOp
{
    enum class Kind : std::uint8_t { alloc, free_op };

    Kind kind;
    std::int32_t tid;       ///< logical thread performing the op
    std::uint64_t object;   ///< object identity (stable across replay)
    std::uint64_t size;     ///< request size (alloc ops only)
};

/** A recorded allocation trace. */
class Trace
{
  public:
    void
    append(TraceOp op)
    {
        ops_.push_back(op);
    }

    const std::vector<TraceOp>& ops() const { return ops_; }
    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    /** Writes a line-oriented text form ("a tid id size" / "f tid id"). */
    void save(std::ostream& os) const;

    /** Parses the text form; aborts on malformed input. */
    static Trace load(std::istream& is);

    /** Max simultaneously-live bytes (the fragmentation denominator). */
    std::uint64_t max_live_bytes() const;

    bool
    operator==(const Trace& other) const
    {
        if (ops_.size() != other.ops_.size())
            return false;
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            const TraceOp& a = ops_[i];
            const TraceOp& b = other.ops_[i];
            if (a.kind != b.kind || a.tid != b.tid ||
                a.object != b.object || a.size != b.size)
                return false;
        }
        return true;
    }

  private:
    std::vector<TraceOp> ops_;
};

/**
 * Allocator wrapper that records every operation into a Trace.
 * Thread-safe; the recorded order is the serialization order of the
 * recorder's lock, which for single-threaded capture (the rebinding
 * drivers) is exact.
 */
class TraceRecorder final : public Allocator
{
  public:
    TraceRecorder(Allocator& inner, Trace& trace)
        : inner_(inner), trace_(trace)
    {}

    void* allocate(std::size_t size) override;
    void deallocate(void* p) override;

    std::size_t
    usable_size(const void* p) const override
    {
        return inner_.usable_size(p);
    }

    const detail::AllocatorStats&
    stats() const override
    {
        return inner_.stats();
    }

    const char* name() const override { return "trace-recorder"; }

  private:
    Allocator& inner_;
    Trace& trace_;
    std::mutex mutex_;
    std::unordered_map<const void*, std::uint64_t> object_ids_;
    std::uint64_t next_id_ = 0;
};

/** Statistics returned by replay(). */
struct ReplayResult
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t peak_held_bytes = 0;
    std::uint64_t peak_in_use_bytes = 0;
};

/**
 * Replays @p trace against @p allocator on the calling thread,
 * reproducing each op's logical thread via Policy rebinding (the same
 * device the producer-consumer workload uses; allocator-visible
 * behavior is identical to the original interleaving).  Policy is a
 * template parameter so traces replay both natively and under the
 * simulator.
 */
template <typename Policy>
ReplayResult
replay(Allocator& allocator, const Trace& trace)
{
    ReplayResult result;
    std::unordered_map<std::uint64_t, void*> live;
    live.reserve(1024);
    int bound_tid = -1;

    for (const TraceOp& op : trace.ops()) {
        if (op.tid != bound_tid) {
            Policy::rebind_thread_index(op.tid);
            bound_tid = op.tid;
        }
        if (op.kind == TraceOp::Kind::alloc) {
            void* p = allocator.allocate(
                static_cast<std::size_t>(op.size));
            HOARD_CHECK(p != nullptr);
            live[op.object] = p;
            ++result.allocs;
        } else {
            auto it = live.find(op.object);
            HOARD_CHECK(it != live.end());
            allocator.deallocate(it->second);
            live.erase(it);
            ++result.frees;
        }
        // One stats() call per op: it folds the allocator's shards.
        const detail::AllocatorStats& stats = allocator.stats();
        std::uint64_t held = stats.held_bytes.current();
        if (held > result.peak_held_bytes)
            result.peak_held_bytes = held;
        std::uint64_t in_use = stats.in_use_bytes.current();
        if (in_use > result.peak_in_use_bytes)
            result.peak_in_use_bytes = in_use;
    }
    // Traces need not be balanced; free whatever remains so the
    // allocator quiesces.
    for (auto& [id, p] : live)
        allocator.deallocate(p);
    return result;
}

}  // namespace workloads
}  // namespace hoard

#endif  // HOARD_WORKLOADS_TRACE_H_
