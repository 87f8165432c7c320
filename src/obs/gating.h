/**
 * @file
 * Compile-time gate of the sampling heap profiler (docs/PROFILING.md).
 *
 * The HOARD_PROFILER CMake option (default ON) defines the
 * HOARD_PROFILER macro.  When 0, every profiler hook in the allocator
 * is removed by `if constexpr` on Policy::kProfilerEnabled.  The switch
 * stays because it earns its keep: on the shipped magazine pair the
 * unarmed hooks cost 3-5% against the compiled-out build, over the 2%
 * budget (bench/micro_obs_overhead.cc gates it as "profiler off").
 *
 * Everything else in src/obs/ (tracing, lock profiling, latency
 * histograms, the timeline sampler) is always compiled in and gated
 * only at run time, by Config fields the facade sets from the HOARD_*
 * environment knobs for the process-wide instance.
 *
 * The switch is surfaced as a Policy constant rather than used
 * directly so a single binary can instantiate both a profiled and an
 * unprofiled allocator, which the overhead gate measures one against
 * the other.
 */

#ifndef HOARD_OBS_GATING_H_
#define HOARD_OBS_GATING_H_

// Builds that bypass CMake get the profiled default.
#ifndef HOARD_PROFILER
#define HOARD_PROFILER 1
#endif

namespace hoard {
namespace obs {

/** True when the sampling heap profiler is compiled into this build. */
inline constexpr bool kProfilerCompiledIn = HOARD_PROFILER != 0;

}  // namespace obs
}  // namespace hoard

#endif  // HOARD_OBS_GATING_H_
