/**
 * @file
 * Benchmark workload interface. Each workload mirrors one benchmark
 * of Table I of the paper (plus needle, which appears in Fig. 6):
 * it sets up device memory, returns the kernel launch sequence with
 * the paper's kernel naming (backprop1, backprop2, ...), and can
 * verify the device results against a host reference — so the
 * functional correctness of the simulator is checked by every
 * benchmark run.
 */

#ifndef GPUSIMPOW_WORKLOADS_WORKLOAD_HH
#define GPUSIMPOW_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "perf/gpu.hh"
#include "perf/kernel.hh"

namespace gpusimpow {
namespace workloads {

/** One kernel plus its launch geometry, tagged with the Fig. 6 name. */
struct KernelLaunch
{
    /** Bar label used by the paper ("mergeSort3", "bfs1", ...). */
    std::string label;
    perf::KernelProgram prog;
    perf::LaunchConfig launch;
    /**
     * False for kernels that cannot be called again for a measurement
     * (the paper's mergeSort3: too short to measure reliably and
     * "could not easily be changed to call it multiple times"). The
     * throttling governor re-captures a repeatable kernel at a
     * clamped clock from the device memory the kernel started from,
     * never from what it left behind, and stretches any other
     * kernel's nominal snapshot analytically. The stretch stays
     * because it is measured accurate and cheap: its time is within
     * 0.1% of a re-capture from the entry memory
     * (ThermalThrottle.NonRepeatableKernelsThrottleAnalytically),
     * while re-capturing every clamp would take the governed
     * 96-scenario sweep from 34.3M to 115.4M core steps (3.4x).
     */
    bool repeatable = true;
};

/** A benchmark: memory setup + kernel sequence + verification. */
class Workload
{
  public:
    explicit Workload(std::string name) : _name(std::move(name)) {}
    virtual ~Workload() = default;

    /** Benchmark name (Table I first column). */
    const std::string &name() const { return _name; }

    /** One-line description (Table I third column). */
    virtual std::string description() const = 0;

    /** Origin suite (Table I fourth column). */
    virtual std::string origin() const = 0;

    /**
     * Upload inputs and build the kernel sequence. Kernels must be
     * run in order; repeated kernels share a label.
     */
    virtual std::vector<KernelLaunch> prepare(perf::Gpu &gpu) = 0;

    /** Check device results against the host reference. */
    virtual bool verify(perf::Gpu &gpu) const = 0;

  private:
    std::string _name;
};

/**
 * Construct every benchmark of the evaluation (Table I order plus
 * needle).
 * @param scale problem-size multiplier (1 = laptop-scale defaults)
 */
std::vector<std::unique_ptr<Workload>> makeAllWorkloads(unsigned scale = 1);

/** Construct one benchmark by Table I name; fatal() if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       unsigned scale = 1);

/** Names of every registered benchmark, in Table I order. */
std::vector<std::string> listWorkloadNames();

/** The 19 kernel labels in Fig. 6 bar order. */
std::vector<std::string> figure6KernelOrder();

} // namespace workloads
} // namespace gpusimpow

#endif // GPUSIMPOW_WORKLOADS_WORKLOAD_HH
