/**
 * @file
 * The full simulated GPU: cores grouped into clusters (TPCs/GPCs),
 * the global work-distribution engine, the shared memory system, and
 * the kernel run loop. The block scheduler reproduces the placement
 * behaviour the paper measures in Fig. 4: blocks go first to
 * unoccupied clusters, then to unoccupied cores, then stack up per
 * core — which is exactly what makes cluster power show up as
 * staircase steps.
 *
 * The run loop is event-driven per core. Blocks are placed only on
 * the first cycle and after a core retired a block (the only events
 * that change where one fits). Each core has a due cycle: its
 * Core::wake(), the first cycle at which a step acts (at least the
 * next cycle), or none while idle. A loop iteration steps only the
 * due cores and jumps the clock to the next due cycle, capped at the
 * next sampling boundary. Quiet cores and busy clusters are
 * accounted lazily, as intervals, and settled at every sample
 * boundary — bit-identical to stepping every busy core every cycle.
 */

#ifndef GPUSIMPOW_PERF_GPU_HH
#define GPUSIMPOW_PERF_GPU_HH

#include <functional>
#include <memory>
#include <vector>

#include "config/gpu_config.hh"
#include "perf/activity.hh"
#include "perf/core.hh"
#include "perf/kernel.hh"
#include "perf/memory.hh"
#include "perf/memsys.hh"

namespace gpusimpow {
namespace perf {

/** Result of one kernel execution. */
struct RunResult
{
    /** Shader cycles from launch to completion of the last block. */
    uint64_t cycles = 0;
    /** Kernel duration in simulated seconds. */
    double time_s = 0.0;
    /** Cumulative activity over the whole kernel. */
    ChipActivity activity;
    /** Per-kernel instruction count (all cores). */
    uint64_t instructions = 0;
    /** Full Core::step calls (all cores), each of which acts; not
     *  serialized. */
    uint64_t core_steps = 0;
    /** Chip cycles at which at least one core was stepped; not
     *  serialized. At most core_steps. */
    uint64_t chip_steps = 0;
    /** Core-cycles accounted without a step (all cores); not
     *  serialized. core_steps + quiet_core_cycles is the sum of
     *  cycles_resident. */
    uint64_t quiet_core_cycles = 0;
};

/** A whole GPU card (chip + GDDR5 + host interface). */
class Gpu
{
  public:
    explicit Gpu(const GpuConfig &cfg);

    /** Functional global memory (device memory). */
    GlobalMemory &globalMem() { return _gmem; }
    /** Functional constant memory. */
    ConstantMemory &constMem() { return _cmem; }
    /** Bump allocator over global memory. */
    GlobalAllocator &allocator() { return _alloc; }

    /** Copy host data to device (counts PCIe traffic). */
    void memcpyToDevice(uint32_t dst, const void *src, size_t bytes);
    /** Copy device data to host (counts PCIe traffic). */
    void memcpyToHost(void *dst, uint32_t src, size_t bytes);

    /**
     * Callback invoked every sampling interval with the activity
     * delta of that interval and its [t0, t1) bounds in seconds.
     */
    using SampleFn =
        std::function<void(const ChipActivity &, double, double)>;

    /**
     * Run a kernel to completion.
     * @param prog kernel program
     * @param launch grid/block geometry
     * @param sampler optional per-interval activity callback
     * @param sample_interval_s sampling period (0 = no sampling)
     */
    RunResult run(const KernelProgram &prog, const LaunchConfig &launch,
                  const SampleFn &sampler = nullptr,
                  double sample_interval_s = 0.0);

    /** The configuration this GPU was built from. */
    const GpuConfig &config() const { return _cfg; }

    /**
     * Retarget the core clock domain (shader + uncore) to a new DVFS
     * frequency scale without losing device state — the hook the
     * thermal throttling governor clamps through. Only legal between
     * kernels.
     */
    void setFreqScale(double freq_scale);

  private:
    GpuConfig _cfg;
    GlobalMemory _gmem;
    ConstantMemory _cmem;
    GlobalAllocator _alloc;
    MemorySystem _memsys;
    std::vector<std::unique_ptr<Core>> _cores;

    // Persistent across kernels (for cumulative card statistics).
    uint64_t _pcie_bytes = 0;
    // Host copies before the current kernel are excluded from its
    // activity window (the paper measures kernel windows only).
    uint64_t _pcie_baseline = 0;

    // Run-local scheduler state.
    std::vector<uint64_t> _cluster_busy;
    std::vector<unsigned> _cluster_load;   // pickCoreForBlock scratch
    uint64_t _gpu_busy = 0;
    uint64_t _blocks_dispatched = 0;

    unsigned clusterOf(unsigned core_id) const
    {
        return core_id / _cfg.cores_per_cluster;
    }

    /** Pick the core the hardware scheduler would use, or -1. */
    int pickCoreForBlock();

    ChipActivity snapshot(uint64_t cycle) const;
};

} // namespace perf
} // namespace gpusimpow

#endif // GPUSIMPOW_PERF_GPU_HH
