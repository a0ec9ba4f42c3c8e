#include "perf/gpu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gpusimpow {
namespace perf {

namespace {

/** Hard cap against runaway kernels. A valid but starved
 *  configuration reaches it too (a DRAM clock at validate()'s floor),
 *  so reaching it fails the run, not the process. */
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

    // Per core, the cycle it must next be stepped at: its wake(), no
    // earlier than the next cycle, or `idle` while it holds no block.
    // A busy core owes the quiet cycles since its last step.
    constexpr uint64_t idle = ~0ull;
    std::vector<uint64_t> due(_cores.size(), idle);
    // Per cluster, its busy cores and where its open busy interval
    // began; _cluster_busy holds the closed part.
    std::vector<unsigned> cluster_cores(_cfg.clusters, 0);
    std::vector<uint64_t> cluster_since(_cfg.clusters, 0);
    unsigned busy_cores = 0;
    uint64_t chip_steps = 0;

    uint64_t cycle = 0;
    // Blocks can be placed only on the first cycle and after a core
    // retired one: nothing else frees core resources.
    bool dispatch = true;
    while (true) {
        // Global scheduler: place as many blocks as fit this cycle.
        while (dispatch && next_block < pending.size()) {
            int c = pickCoreForBlock();
            if (c < 0)
                break;
            Core &core = *_cores[c];
            if (!core.busy()) {
                ++busy_cores;
                unsigned cl = clusterOf(c);
                if (cluster_cores[cl]++ == 0)
                    cluster_since[cl] = cycle;
            }
            core.launchBlock(pending[next_block].first,
                             pending[next_block].second, cycle);
            due[c] = cycle;
            ++next_block;
            ++_blocks_dispatched;
        }
        dispatch = false;
        const bool active = busy_cores > 0 || next_block < pending.size();

        // Step the cores that are due, in core order (they share the
        // memory system), and find the next due cycle in the same pass.
        uint64_t next = max_shader_cycles + 1;
        bool stepped = false;
        for (unsigned c = 0; c < _cores.size(); ++c) {
            if (due[c] > cycle) {
                next = std::min(next, due[c]);
                continue;
            }
            Core &core = *_cores[c];
            core.step(cycle);
            stepped = true;
            if (core.collectFinishedBlocks() > 0) {
                dispatch = true;
                if (!core.busy()) {
                    due[c] = idle;
                    --busy_cores;
                    unsigned cl = clusterOf(c);
                    if (--cluster_cores[cl] == 0)
                        _cluster_busy[cl] += cycle + 1 - cluster_since[cl];
                    continue;
                }
            }
            due[c] = std::max(core.wake(), cycle + 1);
            next = std::min(next, due[c]);
        }
        chip_steps += stepped;

        // A retire places blocks on the next cycle, and the last one
        // is followed by one empty cycle. Otherwise the clock jumps to
        // the next due core, stopping at the next sampling boundary
        // (so intervals are cut where stepping cuts them) and past the
        // livelock guard.
        if (dispatch || !active)
            next = cycle + 1;
        else if (sample_cycles)
            next = std::min(next,
                            (cycle / sample_cycles + 1) * sample_cycles);
        if (active)
            _gpu_busy += next - cycle;
        cycle = next;

        if (sample_cycles && cycle % sample_cycles == 0) {
            // Settle every busy core and open cluster interval to the
            // boundary, so the snapshot reads what stepping would.
            for (const auto &core : _cores) {
                if (core->busy())
                    core->accountTo(cycle);
            }
            for (unsigned cl = 0; cl < _cfg.clusters; ++cl) {
                if (cluster_cores[cl] > 0) {
                    _cluster_busy[cl] += cycle - cluster_since[cl];
                    cluster_since[cl] = cycle;
                }
            }
            _memsys.updateDramCounters();
            ChipActivity now = snapshot(cycle);
            ChipActivity delta = now.diff(prev);
            double t1 = now.elapsed_s;
            sampler(delta, prev.elapsed_s, t1);
            prev = std::move(now);
        }

        if (!active)
            break;
        if (cycle > max_shader_cycles)
            fatal("kernel ", prog.name, " exceeded ", max_shader_cycles,
                  " shader cycles — livelock?");
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
    }
    result.chip_steps = chip_steps;
    return result;
}

} // namespace perf
} // namespace gpusimpow
