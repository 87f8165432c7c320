/**
 * @file
 * The per-thread op cadence tick.
 *
 * Every per-op hook that acts on a cadence rather than on every op —
 * the latency histograms' fast-path timing sample, the time-series
 * sampler's due check and the purge pass's due check — rides on one
 * countdown per logical thread.  An op whose allocator has one of those
 * hooks armed decrements it once; only when it reaches zero does
 * expire() decide whether this op is timed and reload the count.  The
 * execution policy hands out the storage (one per OS thread natively,
 * one per fiber under the simulator), so the tick is shared by every
 * allocator instance a thread touches: it sets a cadence, and no
 * result ever depends on which instance a given expiry lands in.
 */

#ifndef HOARD_COMMON_OP_TICK_H_
#define HOARD_COMMON_OP_TICK_H_

#include <algorithm>
#include <cstdint>

namespace hoard {
namespace detail {

struct OpTick
{
    /** Most ops between two due checks of the sampler and purge pass. */
    static constexpr std::uint32_t kCheckPeriod = 256;

    /** Ops until the next expiry, this one included.  Starts at 1 so a
        fresh thread's first op expires (and, armed, is timed). */
    std::uint32_t countdown = 1;

    /** Latency only: ops from the next expiry to the next timed op.
        Lets a sample period longer than kCheckPeriod span several
        expiries and still time exactly one op in the period. */
    std::uint32_t timed_after = 0;

    /**
     * Handles an expiry (countdown just reached zero) and reloads.
     * @p period is the latency sample period, 0 when latency is not
     * armed; @p checks says whether a due check needs the tick, which
     * then expires at least every kCheckPeriod ops.  Returns true when
     * latency times this op: one op in @p period, every op at 1.
     */
    bool
    expire(std::uint32_t period, bool checks)
    {
        std::uint32_t next = kCheckPeriod;
        bool timed = false;
        if (period != 0) {
            if (timed_after == 0) {
                timed = true;
                timed_after = period;
            }
            next = checks ? std::min(timed_after, kCheckPeriod)
                          : timed_after;
            timed_after -= next;
        }
        countdown = next;
        return timed;
    }
};

}  // namespace detail
}  // namespace hoard

#endif  // HOARD_COMMON_OP_TICK_H_
