#include "sim/simulator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/batched.hh"

namespace gpusimpow {

namespace {

/** Governor refinement rounds (measure -> clamp -> re-measure). */
constexpr int max_governor_rounds = 4;
/** Bisection steps per round over the freq_scale interval. */
constexpr int governor_bisect_steps = 40;
/** The governor accepts a re-measured point this far over the
 *  limit, K (the analytic clock model is only first-order). */
constexpr double governor_slack_k = 0.25;
/** Extra clamp applied when a re-measured point still overheats: the
 *  linear clock model is optimistic for memory-bound kernels (their
 *  runtime stretches less than 1/f, so dynamic power lands higher
 *  than predicted), and near the leakage-stability boundary that
 *  optimism would otherwise shave only ~2% per round. */
constexpr double governor_backoff = 0.9;

} // namespace

std::string
ThermalResult::hottestBlock() const
{
    // Die blocks only, consistent with t_max_k: the DRAM board block
    // has its own rating and its own (clock-invariant) power.
    std::size_t best = block_names.size();
    for (std::size_t i = 0;
         i < block_temps_k.size() && i < block_names.size(); ++i) {
        if (block_names[i] == "dram")
            continue;
        if (best == block_names.size() ||
            block_temps_k[i] > block_temps_k[best])
            best = i;
    }
    return best < block_names.size() ? block_names[best] : "";
}

/**
 * Self-batching state of the traced thermal path: when no engine
 * group supplies precomputed rows, the simulator batches its own
 * compiled model over the snapshot's intervals — one SIMD pass over
 * the temperature-independent dynamic/DRAM/per-block rows — so the
 * sequential thermal march only rescales per-block leakage.
 */
struct Simulator::SelfBatch
{
    power::BatchedPowerEvaluator eval;
    power::BatchedPowerEvaluator::Workspace ws;
    std::vector<power::BatchedKernelPower> out;
    std::vector<const perf::ChipActivity *> acts;

    explicit SelfBatch(const power::CompiledPowerModel &cpm)
        : eval({&cpm})
    {
    }
};

Simulator::Simulator(const GpuConfig &cfg)
    : _cfg(cfg), _nominal_freq_scale(cfg.clocks.freq_scale)
{
    GSP_TRACE_SPAN("sim/setup");
    _gpu = std::make_unique<perf::Gpu>(_cfg);
    _power = std::make_unique<power::GpuPowerModel>(_cfg);
}

Simulator::~Simulator() = default;

void
Simulator::recycle()
{
    GSP_TRACE_SPAN("sim/recycle");
    _gpu->resetDeviceState();
    // Erase every thermal trace of previous scenarios: the governor's
    // clamp and the carried transient temperatures both must not leak
    // into the next workload.
    if (_cfg.clocks.freq_scale != _nominal_freq_scale)
        applyFreqScale(_nominal_freq_scale);
    _thermal_state = thermal::ThermalNetwork::State{};
    _steady_warm.clear();
}

void
Simulator::ensureThermal()
{
    if (_network)
        return;
    _blocks = _power->thermalBlocks();
    _network =
        std::make_unique<thermal::ThermalNetwork>(_blocks, _cfg.thermal);
}

void
Simulator::applyFreqScale(double freq_scale)
{
    _cfg.clocks.freq_scale = freq_scale;
    _gpu->setFreqScale(freq_scale);
    // The power model caches V^2*f scales and clock-derived rates;
    // rebuild it at the clamped clock (the die geometry, and with it
    // the thermal network, is frequency-invariant).
    _power = std::make_unique<power::GpuPowerModel>(_cfg);
    // The self-batch evaluator stacked the old model's coefficients.
    _self_batch.reset();
}

const power::BatchedKernelPower &
Simulator::selfBatchRows(const KernelSnapshot &snap, bool want_blocks)
{
    if (!_self_batch)
        _self_batch = std::make_unique<SelfBatch>(_power->compiled());
    SelfBatch &sb = *_self_batch;
    sb.acts.clear();
    sb.acts.reserve(snap.samples.size());
    for (const ActivitySample &a : snap.samples)
        sb.acts.push_back(&a.delta);
    sb.eval.evaluate(sb.acts, want_blocks, sb.ws, sb.out);
    return sb.out.front();
}

KernelRun
Simulator::runKernel(const perf::KernelProgram &prog,
                     const perf::LaunchConfig &launch, bool with_trace,
                     double sample_interval_s, bool repeatable)
{
    // The throttling governor is the only power-to-timing feedback in
    // the simulator; everything else runs the two phases back to
    // back — which is exactly what makes a memoized replay of the
    // power phase bit-identical to a full run.
    if (_cfg.thermal.enabled && _cfg.thermal.throttle)
        return runThermal(prog, launch, with_trace, sample_interval_s,
                          repeatable);
    KernelSnapshot snap =
        capturePerf(prog, launch, with_trace, sample_interval_s);
    snap.repeatable = repeatable;
    return replayKernel(snap);
}

KernelSnapshot
Simulator::capturePerf(const perf::KernelProgram &prog,
                       const perf::LaunchConfig &launch,
                       bool with_trace, double sample_interval_s)
{
    GSP_TRACE_SPAN("sim/capture");
    KernelSnapshot snap;
    snap.with_trace = with_trace;
    perf::Gpu::SampleFn sampler;
    if (with_trace) {
        sampler = [&](const perf::ChipActivity &delta, double t0,
                      double t1) {
            snap.samples.push_back({t0, t1, delta});
        };
    }
    snap.perf = _gpu->run(prog, launch, sampler,
                          with_trace ? sample_interval_s : 0.0);
    return snap;
}

KernelRun
Simulator::evaluateSamples(const KernelSnapshot &snap,
                           const power::BatchedKernelPower *batched)
{
    KernelRun run;
    run.perf = snap.perf;

    // Per-interval power is read from BatchedKernelPower rows: the
    // ones an engine group's multi-variant pass produced for this
    // variant, or — with no group — one width-1 pass of this
    // simulator's own compiled model over all intervals. Either way
    // the loops below only index precomputed rows.
    bool thermal_on = _cfg.thermal.enabled;
    auto ensureRows = [&](bool want_blocks) {
        if (!batched && !snap.samples.empty())
            batched = &selfBatchRows(snap, want_blocks);
        GSP_ASSERT(snap.samples.empty() ||
                       batched->n_intervals == snap.samples.size(),
                   "batched power rows do not match the snapshot");
    };
    if (snap.with_trace && !thermal_on) {
        ensureRows(false);
        double static_w = _power->staticPower();
        run.trace.reserve(snap.samples.size());
        for (std::size_t i = 0; i < snap.samples.size(); ++i) {
            const ActivitySample &a = snap.samples[i];
            PowerSample s;
            s.t0 = a.t0;
            s.t1 = a.t1;
            s.dynamic_w = batched->dynamic_w[i];
            s.dram_w = batched->dram_w[i];
            s.static_w = static_w;
            run.trace.push_back(s);
        }
    } else if (snap.with_trace) {
        GSP_TRACE_SPAN("thermal/transient");
        // Thermal transient path: every sampling interval advances
        // the RC network under that interval's block powers, with
        // the leakage share of the next interval re-evaluated at the
        // current transient temperatures — the feedback loop, sampled.
        // The rows carry the per-block dynamic split and the
        // nominal-temperature statics, so the temperature-dependent
        // leakage scale is a per-interval scalar.
        ensureThermal();
        ensureRows(true);
        GSP_ASSERT(snap.samples.empty() ||
                       (batched->n_blocks == _blocks.size() &&
                        !batched->static_blocks.empty()),
                   "batched power rows lack the per-block split "
                   "the thermal march needs");
        const power::CompiledPowerModel &cpm = _power->compiled();
        run.trace.reserve(snap.samples.size());
        run.thermal.trace.reserve(snap.samples.size());
        for (std::size_t si = 0; si < snap.samples.size(); ++si) {
            const ActivitySample &a = snap.samples[si];
            double dynamic_w = batched->dynamic_w[si];
            double dram_w = batched->dram_w[si];
            const double *block_dyn = batched->block_dynamic_w.data() +
                                      si * batched->n_blocks;
            const power::BlockPower *block_static =
                batched->static_blocks.data();
            if (!_thermal_state.initialized)
                _thermal_state = _network->ambientState();
            _block_powers.assign(_blocks.size(), 0.0);
            double chip_static = 0.0;
            for (std::size_t i = 0; i < _blocks.size(); ++i) {
                double leak = block_static[i].sub_leak_w *
                              cpm.subLeakScaleAt(_thermal_state.temps_k[i]);
                // The DRAM board block's fixed share is the
                // per-interval DRAM power (the rows keep it out of
                // the static split).
                double fixed = i == _blocks.dramIndex()
                                   ? dram_w
                                   : block_static[i].fixed_w;
                _block_powers[i] = block_dyn[i] + leak + fixed;
                if (i != _blocks.dramIndex())
                    chip_static += leak + fixed;
            }
            _network->advance(_thermal_state, _block_powers,
                              a.t1 - a.t0);

            PowerSample s;
            s.t0 = a.t0;
            s.t1 = a.t1;
            s.dynamic_w = dynamic_w;
            s.static_w = chip_static;
            s.dram_w = dram_w;
            run.trace.push_back(s);

            ThermalSample ts;
            ts.t0 = a.t0;
            ts.t1 = a.t1;
            ts.temps_k = _thermal_state.temps_k;
            run.thermal.trace.push_back(ts);
        }
    }

    run.report = _power->evaluate(run.perf.activity);
    return run;
}

KernelRun
Simulator::replayKernel(const KernelSnapshot &snap,
                        const power::BatchedKernelPower *batched)
{
    GSP_TRACE_SPAN("sim/replay");
    if (_cfg.thermal.enabled && _cfg.thermal.throttle)
        fatal("cannot replay a snapshot under a throttling governor: "
              "its power-to-clock feedback changes timing; run the "
              "kernel in full instead");
    KernelRun run = evaluateSamples(snap, batched);
    if (!_cfg.thermal.enabled)
        return run;
    // Ungoverned thermal: whole-kernel steady solve at the measured
    // power split, then the shared thermal tail.
    ensureThermal();
    std::vector<power::BlockPower> bp =
        _power->blockPowers(run.perf.activity);
    thermal::SteadyResult steady = solveSteady(bp, 1.0);
    finishThermal(run, bp, steady, snap.with_trace, false);
    return run;
}

KernelRun
Simulator::runOnce(const perf::KernelProgram &prog,
                   const perf::LaunchConfig &launch, bool with_trace,
                   double sample_interval_s)
{
    return evaluateSamples(
        capturePerf(prog, launch, with_trace, sample_interval_s),
        nullptr);
}

double
Simulator::dieMax(const thermal::SteadyResult &steady) const
{
    // Die blocks only: the DRAM board block runs from its own supply
    // and clock (own rating too), so it is excluded from t_max_k and
    // from the throttling criterion — the core clock cannot cool it.
    double t = 0.0;
    for (std::size_t i = 0; i < _blocks.dramIndex(); ++i)
        t = std::max(t, steady.temps_k[i]);
    return t;
}

void
Simulator::finishThermal(KernelRun &run,
                         const std::vector<power::BlockPower> &bp,
                         const thermal::SteadyResult &steady,
                         bool with_trace, bool throttled)
{
    // Whole-kernel energy accounting at the solved temperatures. On
    // thermal runaway no steady state exists: leakage evaluated at
    // the 500 K clamp would be ~180x-inflated garbage, so the report
    // falls back to the nominal junction temperature and the outcome
    // is flagged through converged == false instead.
    run.report =
        steady.converged
            ? _power->evaluateAt(run.perf.activity, steady.temps_k)
            : _power->evaluate(run.perf.activity);

    // Without a trace the transient state still has to march through
    // this kernel's span (sustained-activity history for the next
    // kernel); with a trace the sampler already did, sample by sample.
    if (!with_trace) {
        if (!_thermal_state.initialized)
            _thermal_state = _network->ambientState();
        std::vector<double> powers(bp.size(), 0.0);
        for (std::size_t i = 0; i < bp.size(); ++i)
            powers[i] = bp[i].dynamic_w +
                        bp[i].sub_leak_w *
                            _power->subLeakScaleAt(
                                _thermal_state.temps_k[i]) +
                        bp[i].fixed_w;
        _network->advance(_thermal_state, powers, run.perf.time_s);
    }

    ThermalResult &th = run.thermal;
    th.enabled = true;
    th.converged = steady.converged;
    th.throttled = throttled;
    th.iterations = steady.iterations;
    th.t_max_k = dieMax(steady);
    th.heatsink_k = steady.heatsink_k;
    th.op = {_cfg.tech.vdd_scale, _cfg.clocks.freq_scale};
    th.block_names = _blocks.names;
    th.block_temps_k = steady.temps_k;
}

thermal::SteadyResult
Simulator::solveSteady(const std::vector<power::BlockPower> &bp,
                       double freq_ratio)
{
    // Dynamic power follows the clock to first order; subthreshold
    // leakage follows the block temperature the solve is converging
    // on; gate leakage and the external DRAM follow neither.
    // Consecutive solves target nearby operating points (governor
    // bisect probes, kernels of one scenario), so each one starts
    // from the last converged solution instead of ambient.
    thermal::SteadyResult steady = _network->solveSteady(
        [&](const std::vector<double> &temps) {
            std::vector<double> powers(bp.size(), 0.0);
            for (std::size_t i = 0; i < bp.size(); ++i)
                powers[i] =
                    bp[i].dynamic_w * freq_ratio +
                    bp[i].sub_leak_w * _power->subLeakScaleAt(temps[i]) +
                    bp[i].fixed_w;
            return powers;
        },
        _steady_warm.empty() ? nullptr : &_steady_warm);
    if (steady.converged)
        _steady_warm = steady.temps_k;
    return steady;
}

KernelRun
Simulator::runThermal(const perf::KernelProgram &prog,
                      const perf::LaunchConfig &launch, bool with_trace,
                      double sample_interval_s, bool repeatable)
{
    ensureThermal();
    // Every kernel starts at the configured operating point; the
    // governor re-decides the clamp from this kernel's own power.
    if (_cfg.clocks.freq_scale != _nominal_freq_scale)
        applyFreqScale(_nominal_freq_scale);

    // Exploratory governor runs must not advance the carried
    // transient state twice: snapshot it, restore before re-runs.
    thermal::ThermalNetwork::State entry_state = _thermal_state;

    KernelRun run = runOnce(prog, launch, with_trace, sample_interval_s);
    std::vector<power::BlockPower> bp =
        _power->blockPowers(run.perf.activity);
    thermal::SteadyResult steady = solveSteady(bp, 1.0);

    const double limit = _cfg.thermal.t_limit_k;
    // The governor only judges die blocks (dieMax): the DRAM board
    // block runs from its own supply and clock (its power split is
    // fixed_w), so clamping the core clock cannot cool it — including
    // it would drive the clamp to the floor for a block throttling
    // can't fix.
    auto within = [&](const thermal::SteadyResult &s, double slack) {
        return s.converged && dieMax(s) <= limit + slack;
    };

    bool throttled = false;
    if (_cfg.thermal.throttle && !within(steady, 0.0)) {
        static obs::Counter &c_rounds =
            obs::Registry::instance().counter(
                "sim/governor_rounds",
                "throttle-governor refinement rounds executed");
        double f_meas = _nominal_freq_scale; // clock bp was measured at
        for (int round = 0; round < max_governor_rounds; ++round) {
            c_rounds.add(1);
            // Largest clock whose modeled steady state respects the
            // limit, by bisection on the measured power split.
            double lo = min_throttle_freq_scale;
            double hi = f_meas;
            double f_new = lo;
            if (within(solveSteady(bp, lo / f_meas), 0.0)) {
                for (int it = 0; it < governor_bisect_steps; ++it) {
                    double mid = 0.5 * (lo + hi);
                    if (within(solveSteady(bp, mid / f_meas), 0.0))
                        lo = mid;
                    else
                        hi = mid;
                }
                f_new = lo;
            }
            // else: even the floor overheats — clamp to the floor
            // and report the (non-)convergence faithfully.
            throttled = true;
            if (round > 0)
                f_new = std::max(min_throttle_freq_scale,
                                 f_new * governor_backoff);
            if (f_new >= f_meas * (1.0 - 1e-9)) {
                steady = solveSteady(bp, 1.0);
                break;
            }
            applyFreqScale(f_new);
            if (repeatable) {
                _thermal_state = entry_state;
                run = runOnce(prog, launch, with_trace,
                              sample_interval_s);
                bp = _power->blockPowers(run.perf.activity);
            } else {
                // Cannot legally re-execute: rescale the measured
                // run analytically — the cycle count stands, the
                // elapsed time stretches with the clock, and
                // re-evaluating over the stretched interval scales
                // every rate (and picks up the rebuilt V^2*f
                // base-power scale). The traces stretch the same
                // way so their integral keeps matching the report.
                double stretch = f_meas / f_new;
                run.perf.time_s *= stretch;
                run.perf.activity.elapsed_s *= stretch;
                for (PowerSample &s : run.trace) {
                    s.t0 *= stretch;
                    s.t1 *= stretch;
                    s.dynamic_w /= stretch;
                }
                for (ThermalSample &s : run.thermal.trace) {
                    s.t0 *= stretch;
                    s.t1 *= stretch;
                }
                bp = _power->blockPowers(run.perf.activity);
            }
            // Either way the new point is a measurement at f_new;
            // verify it and keep iterating until it truly holds —
            // near the leakage-stability boundary the linear clock
            // model is optimistic, and an unverified accept would
            // flip into a runaway result.
            f_meas = f_new;
            steady = solveSteady(bp, 1.0);
            if (within(steady, governor_slack_k))
                break;
        }
    }

    finishThermal(run, bp, steady, with_trace, throttled);
    return run;
}

} // namespace gpusimpow
