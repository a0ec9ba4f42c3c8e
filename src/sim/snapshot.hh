/**
 * @file
 * Phase-1 artifacts of the two-phase simulation flow. The expensive
 * half of GPUSimPow is the cycle-level timing run; the power and
 * thermal models only consume its activity counters. An
 * ActivitySnapshot captures everything those consumers need — the
 * whole-kernel counters, per-kernel timing, and the per-interval
 * activity deltas behind power traces — so any power-only variant of
 * a configuration (process node, supply scale, cooling solution) can
 * be evaluated by replay, without re-running timing.
 *
 * Snapshots are plain data. In memory they are shared, never
 * serialized; the store persists them as binary records
 * (store/entry.cc) whose doubles travel as their IEEE bits, so a
 * stored snapshot replays bit-identically to the run that captured
 * it.
 */

#ifndef GPUSIMPOW_SIM_SNAPSHOT_HH
#define GPUSIMPOW_SIM_SNAPSHOT_HH

#include <string>
#include <vector>

#include "perf/activity.hh"
#include "perf/gpu.hh"

namespace gpusimpow {

/** Raw activity of one trace sampling interval. */
struct ActivitySample
{
    /** Interval start, s. */
    double t0 = 0.0;
    /** Interval end, s. */
    double t1 = 0.0;
    /** Activity delta over the interval. */
    perf::ChipActivity delta;
};

/** Phase-1 (timing) record of one kernel execution. */
struct KernelSnapshot
{
    /** Kernel label (Fig. 6 bar name). */
    std::string label;
    /** workloads::KernelLaunch::repeatable of the captured kernel. */
    bool repeatable = true;
    /** True when per-interval samples were recorded. */
    bool with_trace = false;
    /** Timing result with the whole-kernel activity counters. */
    perf::RunResult perf;
    /** Per-interval activity (empty unless with_trace). */
    std::vector<ActivitySample> samples;
};

/** Phase-1 record of one scenario: a workload's kernel sequence. */
struct ActivitySnapshot
{
    /** Workload the snapshot was captured from. */
    std::string workload;
    /** Problem-size multiplier it ran at. */
    unsigned scale = 1;
    /** True when kernels carry per-interval samples. */
    bool with_trace = false;
    /** Sampling period the samples were recorded at, s. */
    double sample_interval_s = 0.0;
    /** Device-vs-host verification outcome of the captured run
     *  (verification reads device memory — a timing-phase output). */
    bool verified = true;
    /** Kernels in launch order. */
    std::vector<KernelSnapshot> kernels;
};

} // namespace gpusimpow

#endif // GPUSIMPOW_SIM_SNAPSHOT_HH
