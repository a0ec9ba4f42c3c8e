/**
 * @file
 * The end-to-end validation experiment of SectionV: run a kernel on
 * the simulator, replay the resulting power waveform on the virtual
 * hardware through the measurement testbed (with kernel repetition
 * for sub-500 us kernels, as the paper does), estimate hardware
 * static power with the paper's methodology, and report simulated
 * vs measured static/dynamic/total power per kernel — the data
 * behind Fig. 6a/6b.
 */

#ifndef GPUSIMPOW_MEASURE_VALIDATION_HH
#define GPUSIMPOW_MEASURE_VALIDATION_HH

#include <string>

#include "measure/testbed.hh"
#include "measure/virtual_hw.hh"
#include "sim/simulator.hh"

namespace gpusimpow {
namespace measure {

/** Per-kernel validation record (one bar pair of Fig. 6). */
struct KernelValidation
{
    std::string label;
    /** Simulated static chip power, W. */
    double sim_static_w = 0.0;
    /** Simulated dynamic chip power, W. */
    double sim_dynamic_w = 0.0;
    /** Simulated DRAM power, W. */
    double sim_dram_w = 0.0;
    /** Hardware static power estimate (SectionIV-B method), W. */
    double meas_static_w = 0.0;
    /** Measured dynamic power (total minus static estimate), W. */
    double meas_dynamic_w = 0.0;
    /** Kernel duration, s; and repeats used for measurement. */
    double kernel_s = 0.0;
    unsigned repeats = 1;

    double simTotal() const
    {
        return sim_static_w + sim_dynamic_w + sim_dram_w;
    }
    double measTotal() const { return meas_static_w + meas_dynamic_w; }
    /** Signed relative error of the simulator vs the measurement. */
    double relError() const
    {
        return (simTotal() - measTotal()) / measTotal();
    }
};

/** Runs the paper's validation methodology against one card. */
class ValidationHarness
{
  public:
    /**
     * @param cfg card under test
     * @param model_static_w the power model's static power (used to
     *        derive the virtual card's hidden ground truth)
     * @param seed board seed
     */
    ValidationHarness(const GpuConfig &cfg, double model_static_w,
                      uint64_t seed);

    /**
     * Hardware static power estimate: frequency extrapolation on
     * cards with clock control (Tesla-class), idle-ratio method
     * otherwise (the paper's GTX580 path). Computed once and cached.
     */
    double measuredStatic();

    /**
     * Validate one kernel (already simulated).
     * @param label Fig. 6 bar name
     * @param run the simulator result, replayed from a traced
     *        capture (with_trace = true)
     * @param repeatable false for kernels that process data in
     *        place and cannot be re-run (the mergeSort3 artifact)
     */
    KernelValidation validate(const std::string &label,
                              const KernelRun &run, bool repeatable);

    /** The virtual card (for tests and the Fig. 4 bench). */
    const VirtualHardware &hardware() const { return _hw; }
    /** The testbed (for error-bound queries). */
    const Testbed &testbed() const { return _testbed; }

  private:
    GpuConfig _cfg;
    VirtualHardware _hw;
    Testbed _testbed;
    double _meas_static_w = -1.0;

    /** Record + window-average one steady phase. */
    double measureSteady(const std::string &label, double model_dyn_w,
                         double model_dram_w, double clock_scale);
};

} // namespace measure
} // namespace gpusimpow

#endif // GPUSIMPOW_MEASURE_VALIDATION_HH
