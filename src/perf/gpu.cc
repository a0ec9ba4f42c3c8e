#include "perf/gpu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gpusimpow {
namespace perf {

namespace {

/** Hard cap against runaway kernels (simulator bug guard). */
constexpr uint64_t max_shader_cycles = 2000000000ull;

} // namespace

Gpu::Gpu(const GpuConfig &cfg)
    : _cfg(cfg), _memsys(cfg)
{
    // Cores hold a reference to the configuration: it must be this
    // object's copy, never the constructor argument (which may be a
    // temporary).
    for (unsigned c = 0; c < _cfg.numCores(); ++c) {
        _cores.push_back(std::make_unique<Core>(_cfg, c, _memsys, _gmem,
                                                _cmem));
    }
    _cluster_busy.assign(_cfg.clusters, 0);
    _cluster_load.assign(_cfg.clusters, 0);
}

void
Gpu::memcpyToDevice(uint32_t dst, const void *src, size_t bytes)
{
    _gmem.write(dst, src, bytes);
    _pcie_bytes += bytes;
}

void
Gpu::memcpyToHost(void *dst, uint32_t src, size_t bytes)
{
    _gmem.read(src, dst, bytes);
    _pcie_bytes += bytes;
}

void
Gpu::resetDeviceState()
{
    for (const auto &core : _cores)
        GSP_ASSERT(!core->busy(), "resetDeviceState with a busy core");
    _gmem.reset();
    _cmem.reset();
    _alloc.reset();
    _pcie_bytes = 0;
    _pcie_baseline = 0;
    _blocks_dispatched = 0;
    _gpu_busy = 0;
    _cluster_busy.assign(_cfg.clusters, 0);
}

void
Gpu::setFreqScale(double freq_scale)
{
    GSP_ASSERT(freq_scale > 0.0, "freq_scale must be positive");
    for (const auto &core : _cores)
        GSP_ASSERT(!core->busy(), "setFreqScale with a busy core");
    _cfg.clocks.freq_scale = freq_scale;
    _memsys.setClocks(_cfg.clocks);
}

int
Gpu::pickCoreForBlock()
{
    // Hardware policy observed in Fig. 4: prefer an idle core in the
    // least-loaded cluster, so clusters light up one by one before
    // any core receives a second block.
    int best = -1;
    unsigned best_core_load = ~0u;
    unsigned best_cluster_load = ~0u;

    std::fill(_cluster_load.begin(), _cluster_load.end(), 0u);
    for (unsigned c = 0; c < _cores.size(); ++c)
        _cluster_load[clusterOf(c)] += _cores[c]->residentBlocks();

    for (unsigned c = 0; c < _cores.size(); ++c) {
        if (!_cores[c]->canAcceptBlock())
            continue;
        unsigned core_load = _cores[c]->residentBlocks();
        unsigned cl_load = _cluster_load[clusterOf(c)];
        if (core_load < best_core_load ||
            (core_load == best_core_load && cl_load < best_cluster_load)) {
            best = static_cast<int>(c);
            best_core_load = core_load;
            best_cluster_load = cl_load;
        }
    }
    return best;
}

ChipActivity
Gpu::snapshot(uint64_t cycle) const
{
    ChipActivity act;
    act.cores.reserve(_cores.size());
    for (const auto &core : _cores)
        act.cores.push_back(core->activity());
    act.mem = _memsys.activity();
    act.mem.pcie_bytes = _pcie_bytes - _pcie_baseline;
    act.cluster_busy_cycles = _cluster_busy;
    act.gpu_busy_cycles = _gpu_busy;
    act.blocks_dispatched = _blocks_dispatched;
    act.shader_cycles = cycle;
    act.elapsed_s = static_cast<double>(cycle) / _cfg.clocks.shaderHz();
    return act;
}

RunResult
Gpu::run(const KernelProgram &prog, const LaunchConfig &launch,
         const SampleFn &sampler, double sample_interval_s)
{
    GSP_ASSERT(launch.grid.count() > 0, "empty grid");

    for (auto &core : _cores) {
        core->resetForKernel();
        core->setKernel(&prog, &launch);
    }
    _memsys.resetCounters();
    _memsys.flushCaches();
    _pcie_baseline = _pcie_bytes;
    _cluster_busy.assign(_cfg.clusters, 0);
    _gpu_busy = 0;
    _blocks_dispatched = 0;

    // Linearized block queue (x-major, matching CUDA launch order).
    std::vector<std::pair<unsigned, unsigned>> pending;
    pending.reserve(launch.grid.count());
    for (unsigned y = 0; y < launch.grid.y; ++y)
        for (unsigned x = 0; x < launch.grid.x; ++x)
            pending.emplace_back(x, y);
    size_t next_block = 0;

    uint64_t sample_cycles = 0;
    if (sampler && sample_interval_s > 0.0) {
        sample_cycles = static_cast<uint64_t>(
            sample_interval_s * _cfg.clocks.shaderHz());
        if (sample_cycles == 0)
            sample_cycles = 1;
    }
    ChipActivity prev = snapshot(0);

    uint64_t cycle = 0;
    // Blocks can be placed only on the first cycle and after a core
    // retired one: nothing else frees core resources.
    bool dispatch = true;
    // Cycles this iteration covers: one step, or a clock jump over
    // cycles in which every busy core is quiet.
    uint64_t span = 1;
    while (true) {
        // Global scheduler: place as many blocks as fit this cycle.
        while (dispatch && next_block < pending.size()) {
            int core = pickCoreForBlock();
            if (core < 0)
                break;
            _cores[core]->launchBlock(pending[next_block].first,
                                      pending[next_block].second);
            ++next_block;
            ++_blocks_dispatched;
        }
        dispatch = false;

        bool any_busy = false;
        for (unsigned cl = 0; cl < _cfg.clusters; ++cl) {
            bool cl_busy = false;
            for (unsigned i = 0; i < _cfg.cores_per_cluster; ++i) {
                Core &core = *_cores[cl * _cfg.cores_per_cluster + i];
                if (!core.busy())
                    continue;
                cl_busy = true;
                if (span > 1) {
                    core.skipQuiet(span);
                    continue;
                }
                core.step(cycle);
                if (core.collectFinishedBlocks() > 0)
                    dispatch = true;
            }
            if (cl_busy) {
                _cluster_busy[cl] += span;
                any_busy = true;
            }
        }
        if (any_busy || next_block < pending.size())
            _gpu_busy += span;

        cycle += span;

        if (sample_cycles && cycle % sample_cycles == 0) {
            _memsys.updateDramCounters();
            ChipActivity now = snapshot(cycle);
            ChipActivity delta = now.diff(prev);
            double t1 = now.elapsed_s;
            sampler(delta, prev.elapsed_s, t1);
            prev = std::move(now);
        }

        if (!any_busy && next_block >= pending.size())
            break;
        if (cycle > max_shader_cycles)
            GSP_PANIC("kernel ", prog.name, " exceeded ",
                      max_shader_cycles, " shader cycles — livelock?");

        // Clock jump: with no placement pending, every cycle before
        // the earliest wake() of a busy core only bumps per-cycle
        // counters. Stop at the next sampling boundary (so intervals
        // are cut where stepping cuts them) and at the livelock guard.
        span = 1;
        if (!dispatch) {
            uint64_t target = max_shader_cycles + 1;
            if (sample_cycles)
                target = std::min(target, (cycle / sample_cycles + 1) *
                                              sample_cycles);
            for (const auto &core : _cores) {
                if (core->busy())
                    target = std::min(target, core->wake());
            }
            if (target > cycle)
                span = target - cycle;
        }
    }

    _memsys.updateDramCounters();
    ChipActivity final_act = snapshot(cycle);
    if (sample_cycles) {
        // Flush the tail interval.
        ChipActivity delta = final_act.diff(prev);
        if (delta.shader_cycles > 0)
            sampler(delta, prev.elapsed_s, final_act.elapsed_s);
    }

    RunResult result;
    result.cycles = cycle;
    result.time_s = final_act.elapsed_s;
    result.activity = final_act;
    for (const auto &c : final_act.cores)
        result.instructions += c.issued_insts;
    for (const auto &core : _cores) {
        result.core_steps += core->coreSteps();
        result.quiet_core_cycles += core->quietCycles();
        result.issue_attempts += core->issueAttempts();
    }
    return result;
}

} // namespace perf
} // namespace gpusimpow
