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

obs::Counter &
perfCoreSteps()
{
    static obs::Counter &c = obs::Registry::instance().counter(
        "perf/core_steps",
        "full Core::step calls of timing captures (each one acts)");
    return c;
}

obs::Counter &
perfChipSteps()
{
    static obs::Counter &c = obs::Registry::instance().counter(
        "perf/chip_steps",
        "chip cycles of timing captures at which a core was stepped");
    return c;
}

obs::Counter &
perfQuietCoreCycles()
{
    static obs::Counter &c = obs::Registry::instance().counter(
        "perf/quiet_core_cycles",
        "resident core-cycles of timing captures accounted without a "
        "step (event-driven skip)");
    return c;
}

obs::Counter &
perfWarpInsts()
{
    static obs::Counter &c = obs::Registry::instance().counter(
        "perf/warp_insts", "warp instructions issued by timing captures");
    return c;
}

obs::Counter &
timingModelBuilds()
{
    static obs::Counter &c = obs::Registry::instance().counter(
        "sim/timing_model_builds",
        "cycle-level GPUs built (Simulators build one on first use)");
    return c;
}

} // namespace

void
Simulator::registerPerfCounters()
{
    perfCoreSteps();
    perfChipSteps();
    perfQuietCoreCycles();
    perfWarpInsts();
    timingModelBuilds();
}

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

Simulator::Simulator(const GpuConfig &cfg) : Simulator(cfg, nullptr, nullptr)
{
}

Simulator::Simulator(const GpuConfig &cfg,
                     std::shared_ptr<const power::GpuPowerModel> power,
                     std::shared_ptr<const thermal::ThermalNetwork> network)
    : _cfg(cfg), _power(std::move(power)),
      _nominal_freq_scale(cfg.clocks.freq_scale),
      _network(std::move(network))
{
    if (!_power) {
        GSP_TRACE_SPAN("sim/setup");
        _power = std::make_shared<const power::GpuPowerModel>(_cfg);
    }
    // A replay group needs every variant's network before its first
    // kernel, so it is built here rather than on first thermal use.
    if (_cfg.thermal.enabled && !_network)
        _network = std::make_shared<const thermal::ThermalNetwork>(
            _power->thermalBlocks(), _cfg.thermal);
}

Simulator::~Simulator() = default;

perf::Gpu &
Simulator::gpu()
{
    if (!_gpu) {
        GSP_TRACE_SPAN("sim/setup");
        // Built at the nominal clock, then given any live clamp: the
        // same GPU applyFreqScale() would have left behind had it
        // existed from construction.
        GpuConfig nominal = _cfg;
        nominal.clocks.freq_scale = _nominal_freq_scale;
        _gpu = std::make_unique<perf::Gpu>(nominal);
        if (_cfg.clocks.freq_scale != _nominal_freq_scale)
            _gpu->setFreqScale(_cfg.clocks.freq_scale);
        timingModelBuilds().add(1);
    }
    return *_gpu;
}

void
Simulator::marchDeferred()
{
    for (const DeferredMarch &m : _deferred_marches) {
        if (!_thermal_state.initialized)
            _thermal_state = _network->ambientState();
        std::vector<double> powers(m.bp.size(), 0.0);
        for (std::size_t i = 0; i < m.bp.size(); ++i)
            powers[i] = m.bp[i].dynamic_w +
                        m.bp[i].sub_leak_w *
                            _power->compiled().subLeakScaleAt(
                                _thermal_state.temps_k[i]) +
                        m.bp[i].fixed_w;
        _network->advance(_thermal_state, powers, m.time_s);
    }
    _deferred_marches.clear();
}

void
Simulator::applyFreqScale(double freq_scale)
{
    GSP_ASSERT(_deferred_marches.empty(),
               "deferred marches must run on the model they were "
               "queued under");
    _cfg.clocks.freq_scale = freq_scale;
    if (_gpu)
        _gpu->setFreqScale(freq_scale);
    // The power model caches V^2*f scales and clock-derived rates;
    // rebuild it at the clamped clock (the die geometry, and with it
    // the thermal network, is frequency-invariant).
    _power = std::make_shared<const power::GpuPowerModel>(_cfg);
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
    snap.perf = gpu().run(prog, launch, sampler,
                          with_trace ? sample_interval_s : 0.0);
    perfCoreSteps().add(snap.perf.core_steps);
    perfChipSteps().add(snap.perf.chip_steps);
    perfQuietCoreCycles().add(snap.perf.quiet_core_cycles);
    perfWarpInsts().add(snap.perf.instructions);
    return snap;
}

KernelRun
Simulator::evaluateSamples(const KernelSnapshot &snap,
                           const power::BatchedKernelPower *batched,
                           bool keep)
{
    KernelRun run;
    if (keep)
        run.perf = snap.perf;
    else
        run.perf.time_s = snap.perf.time_s;

    // Per-interval power is read from the replay group's rows, so the
    // loops below only index precomputed values.
    GSP_ASSERT(snap.samples.empty() ||
                   (batched && batched->n_intervals == snap.samples.size()),
               "batched power rows do not match the snapshot");
    const bool thermal_on = _cfg.thermal.enabled;
    // Without thermal state to march, a summary row has no use for
    // the samples.
    if (snap.with_trace && !thermal_on) {
        if (!keep)
            return run;
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
        marchDeferred();
        const thermal::BlockSet &blocks = _network->blocks();
        GSP_ASSERT(snap.samples.empty() ||
                       (batched->n_blocks == blocks.size() &&
                        !batched->static_blocks.empty()),
                   "batched power rows lack the per-block split "
                   "the thermal march needs");
        const power::CompiledPowerModel &cpm = _power->compiled();
        if (keep) {
            run.trace.reserve(snap.samples.size());
            run.thermal.trace.reserve(snap.samples.size());
        }
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
            _block_powers.assign(blocks.size(), 0.0);
            double chip_static = 0.0;
            for (std::size_t i = 0; i < blocks.size(); ++i) {
                double leak = block_static[i].sub_leak_w *
                              cpm.subLeakScaleAt(_thermal_state.temps_k[i]);
                // The DRAM board block's fixed share is the
                // per-interval DRAM power (the rows keep it out of
                // the static split).
                double fixed = i == blocks.dramIndex()
                                   ? dram_w
                                   : block_static[i].fixed_w;
                _block_powers[i] = block_dyn[i] + leak + fixed;
                if (i != blocks.dramIndex())
                    chip_static += leak + fixed;
            }
            _network->advance(_thermal_state, _block_powers,
                              a.t1 - a.t0);
            if (!keep)
                continue;

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
    return run;
}

KernelRun
Simulator::replayKernel(const KernelSnapshot &snap, sim::RowDetail detail)
{
    return std::move(ReplayGroup({this}).replay(snap, detail).front());
}

KernelRun
Simulator::beginReplay(const KernelSnapshot &snap,
                       const power::BatchedKernelPower *batched,
                       const power::CompiledPowerModel::Eval &nominal,
                       sim::RowDetail detail)
{
    const bool keep = detail == sim::RowDetail::kernels;
    KernelRun run = evaluateSamples(snap, batched, keep);
    if (!_cfg.thermal.enabled) {
        run.card_w = nominal.cardW();
        if (keep)
            run.report = _power->compiled().assembleReport(nominal);
        return run;
    }
    // Thermal: the steady solves run at the measured power split
    // (the group's lockstep solve, or the governor's probes), then
    // finishThermal() rescales the leakage of this simulator's own
    // copy of the evaluation.
    _eval = nominal;
    return run;
}

thermal::SteadyLane
Simulator::replayLane() const
{
    return steadyLane(_eval.blocks, 1.0);
}

void
Simulator::finishReplay(KernelRun &run,
                        const thermal::SteadyResult &steady,
                        const KernelSnapshot &snap, sim::RowDetail detail)
{
    if (steady.converged)
        _steady_warm = steady.temps_k;
    finishThermal(run, _eval, steady, snap.with_trace, false,
                  detail == sim::RowDetail::kernels);
}

double
Simulator::dieMax(const thermal::SteadyResult &steady) const
{
    // Die blocks only: the DRAM board block runs from its own supply
    // and clock (own rating too), so it is excluded from t_max_k and
    // from the throttling criterion — the core clock cannot cool it.
    double t = 0.0;
    for (std::size_t i = 0; i < _network->blocks().dramIndex(); ++i)
        t = std::max(t, steady.temps_k[i]);
    return t;
}

void
Simulator::finishThermal(KernelRun &run,
                         power::CompiledPowerModel::Eval &ev,
                         const thermal::SteadyResult &steady,
                         bool with_trace, bool throttled, bool keep)
{
    // Without a trace the transient state still owes a march through
    // this kernel's span (sustained-activity history for the next
    // kernel) under the nominal split; with a trace the sampler
    // already did, sample by sample.
    if (!with_trace) {
        _deferred_marches.push_back({ev.blocks, run.perf.time_s});
        if (_deferred_marches.size() >= max_deferred_marches)
            marchDeferred();
    }

    // Whole-kernel energy accounting at the solved temperatures; only
    // the leakage columns depend on them. On thermal runaway no
    // steady state exists: leakage evaluated at the 500 K clamp would
    // be ~180x-inflated garbage, so the report falls back to the
    // nominal junction temperature and the outcome is flagged through
    // converged == false instead.
    const power::CompiledPowerModel &cpm = _power->compiled();
    if (steady.converged)
        cpm.rescaleLeakageAt(steady.temps_k, ev);
    run.card_w = ev.cardW();
    if (keep)
        run.report = cpm.assembleReport(ev);

    ThermalResult &th = run.thermal;
    th.enabled = true;
    th.converged = steady.converged;
    th.throttled = throttled;
    th.iterations = steady.iterations;
    th.t_max_k = dieMax(steady);
    th.heatsink_k = steady.heatsink_k;
    th.op = {_cfg.tech.vdd_scale, _cfg.clocks.freq_scale};
    if (keep) {
        th.block_names = _network->blocks().names;
        th.block_temps_k = steady.temps_k;
    }
}

thermal::SteadyLane
Simulator::steadyLane(const std::vector<power::BlockPower> &bp,
                      double freq_ratio) const
{
    // Dynamic power follows the clock to first order; subthreshold
    // leakage follows the block temperature the solve is converging
    // on; gate leakage and the external DRAM follow neither.
    // Consecutive solves target nearby operating points (governor
    // bisect probes, kernels of one scenario), so each one starts
    // from the last converged solution instead of ambient.
    return {&bp, freq_ratio, _power->compiled().nominalLeakFactor(),
            _steady_warm.empty() ? nullptr : &_steady_warm};
}

thermal::SteadyResult
Simulator::solveSteady(const std::vector<power::BlockPower> &bp,
                       double freq_ratio)
{
    thermal::SteadyResult steady = _network->solveSteady(
        steadyLane(bp, freq_ratio), &_steady_scratch);
    if (steady.converged)
        _steady_warm = steady.temps_k;
    return steady;
}

KernelRun
Simulator::measure(const KernelSnapshot &snap)
{
    ReplayGroup group({this}, ReplayGroup::Unchecked{});
    group.evaluate(snap);
    GSP_TRACE_SPAN("sim/replay");
    group.begin(snap, sim::RowDetail::kernels);
    return std::move(group._runs.front());
}

KernelRun
Simulator::runThermal(const perf::KernelProgram &prog,
                      const perf::LaunchConfig &launch, bool with_trace,
                      double sample_interval_s, bool repeatable)
{
    // The governor snapshots the carried state below, and the
    // deferred kernels ran under the model a restore would replace.
    marchDeferred();
    // Every kernel starts at the configured operating point; the
    // governor re-decides the clamp from this kernel's own power.
    if (_cfg.clocks.freq_scale != _nominal_freq_scale)
        applyFreqScale(_nominal_freq_scale);

    // Every measurement marches the transient state from the kernel's
    // entry state: snapshot it, restore it before each re-measure.
    const thermal::ThermalNetwork::State entry_state = _thermal_state;

    KernelSnapshot snap =
        capturePerf(prog, launch, with_trace, sample_interval_s);
    KernelRun run = measure(snap);
    // The measurement's nominal-temperature block split drives the
    // steady solves, and finishThermal() rescales _eval's leakage
    // into the report.
    const std::vector<power::BlockPower> &bp = _eval.blocks;
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
                snap = capturePerf(prog, launch, with_trace,
                                   sample_interval_s);
            } else {
                // Cannot legally re-execute: stretch the measured
                // snapshot analytically — the cycle counts stand and
                // every elapsed time stretches with the clock, so the
                // clamped model's evaluation scales every rate (and
                // picks up the rebuilt V^2*f base-power scale).
                double stretch = f_meas / f_new;
                snap.perf.time_s *= stretch;
                snap.perf.activity.elapsed_s *= stretch;
                for (ActivitySample &a : snap.samples) {
                    a.t0 *= stretch;
                    a.t1 *= stretch;
                    a.delta.elapsed_s *= stretch;
                }
            }
            _thermal_state = entry_state;
            run = measure(snap);
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

    finishThermal(run, _eval, steady, with_trace, throttled, true);
    return run;
}

ReplayGroup::ReplayGroup(std::vector<Simulator *> sims)
    : ReplayGroup(std::move(sims), Unchecked{})
{
    for (const Simulator *sim : _sims)
        if (sim->config().thermal.enabled && sim->config().thermal.throttle)
            fatal("cannot replay a snapshot under a throttling governor: "
                  "its power-to-clock feedback changes timing; run the "
                  "kernel in full instead");
}

ReplayGroup::ReplayGroup(std::vector<Simulator *> sims, Unchecked)
    : _sims(std::move(sims)), _row_of(_sims.size())
{
    std::vector<const power::CompiledPowerModel *> models;
    for (std::size_t j = 0; j < _sims.size(); ++j) {
        // Simulators on one power model share its evaluator row.
        const power::CompiledPowerModel *model =
            &_sims[j]->powerModel().compiled();
        _row_of[j] = static_cast<std::size_t>(
            std::find(models.begin(), models.end(), model) -
            models.begin());
        if (_row_of[j] == models.size())
            models.push_back(model);
        if (!_sims[j]->config().thermal.enabled)
            continue;
        _want_blocks = true;
        const thermal::ThermalNetwork *net = _sims[j]->_network.get();
        auto g = std::find_if(_net_groups.begin(), _net_groups.end(),
                              [&](const auto &e) { return e.first == net; });
        if (g == _net_groups.end())
            _net_groups.push_back({net, {j}});
        else
            g->second.push_back(j);
    }
    _nominal.resize(models.size());
    _evaluator =
        std::make_unique<const power::BatchedPowerEvaluator>(models);
    _runs.resize(_sims.size());
}

void
ReplayGroup::evaluate(const KernelSnapshot &snap)
{
    if (snap.with_trace && !snap.samples.empty()) {
        _acts.clear();
        _acts.reserve(snap.samples.size());
        for (const ActivitySample &a : snap.samples)
            _acts.push_back(&a.delta);
        _evaluator->evaluate(_acts, _want_blocks, _ws, _rows);
    }
    GSP_TRACE_SPAN("power/nominal_eval");
    _evaluator->evaluateNominal(snap.perf.activity, _ws, _nominal);
}

void
ReplayGroup::begin(const KernelSnapshot &snap, sim::RowDetail detail)
{
    const bool rows = snap.with_trace && !snap.samples.empty();
    for (std::size_t j = 0; j < _sims.size(); ++j)
        _runs[j] = _sims[j]->beginReplay(
            snap, rows ? &_rows[_row_of[j]] : nullptr,
            _nominal[_row_of[j]], detail);
}

std::vector<KernelRun> &
ReplayGroup::replay(const KernelSnapshot &snap, sim::RowDetail detail)
{
    evaluate(snap);
    GSP_TRACE_SPAN("sim/replay");
    begin(snap, detail);
    for (const auto &[net, members] : _net_groups) {
        _lanes.clear();
        for (std::size_t j : members)
            _lanes.push_back(_sims[j]->replayLane());
        _steady_out.resize(members.size());
        net->solveSteady(_lanes, _steady_out, _steady);
        for (std::size_t k = 0; k < members.size(); ++k)
            _sims[members[k]]->finishReplay(_runs[members[k]],
                                            _steady_out[k], snap, detail);
    }
    return _runs;
}

} // namespace gpusimpow
