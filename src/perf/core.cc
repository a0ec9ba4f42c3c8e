#include "perf/core.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "perf/coalescer.hh"

namespace gpusimpow {
namespace perf {

namespace {

constexpr uint32_t no_reconv = 0xffffffffu;
constexpr unsigned icache_miss_latency = 200;
constexpr unsigned const_miss_latency = 200;
constexpr uint64_t never = ~0ull;

float
asFloat(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, 4);
    return f;
}

uint32_t
asBits(float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, 4);
    return bits;
}

/** Call f(lane) for every set bit of mask, lowest lane first. */
template <typename F>
inline void
forEachLane(uint64_t mask, F &&f)
{
    for (; mask; mask &= mask - 1)
        f(countTrailingZeros(mask));
}

/**
 * Call run(as, cmp) with the operand conversion and comparison
 * functor of a SETP, so the dispatch happens once per instruction.
 */
template <typename Run>
void
withComparison(const Instruction &inst, Run &&run)
{
    auto with_cmp = [&](auto as) {
        switch (inst.cmp) {
          case Cmp::EQ: run(as, std::equal_to<>{}); break;
          case Cmp::NE: run(as, std::not_equal_to<>{}); break;
          case Cmp::LT: run(as, std::less<>{}); break;
          case Cmp::LE: run(as, std::less_equal<>{}); break;
          case Cmp::GT: run(as, std::greater<>{}); break;
          case Cmp::GE: run(as, std::greater_equal<>{}); break;
        }
    };
    switch (inst.cmp_type) {
      case CmpType::I32:
        with_cmp([](uint32_t x) { return static_cast<int32_t>(x); });
        break;
      case CmpType::U32:
        with_cmp([](uint32_t x) { return x; });
        break;
      case CmpType::F32:
        with_cmp([](uint32_t x) { return asFloat(x); });
        break;
    }
}

} // namespace

Core::Core(const GpuConfig &cfg, unsigned core_id, MemorySystem &memsys,
           GlobalMemory &gmem, ConstantMemory &cmem)
    : _cfg(cfg), _core_id(core_id), _memsys(memsys), _gmem(gmem),
      _cmem(cmem),
      _icache({cfg.core.icache_bytes, 64, cfg.core.icache_assoc, false}),
      _const_cache({cfg.core.const_cache_bytes, 64,
                    cfg.core.const_cache_assoc, false}),
      _greedy_issue(cfg.core.sched_policy == "gto")
{
    GSP_ASSERT(cfg.core.warp_size <= 64,
               "warp size above 64 not representable in lane masks");
    GSP_ASSERT(cfg.core.maxWarps() <= 64,
               "more than 64 warps not representable in warp masks");
    _blocks.resize(cfg.core.max_blocks);
    _warps.resize(cfg.core.maxWarps());
    if (cfg.core.lOneDBytes() > 0) {
        _l1d = std::make_unique<CacheModel>(CacheParams{
            cfg.core.lOneDBytes(), cfg.core.line_bytes, cfg.core.l1d_assoc,
            false});
    }
    _addr_scratch.reserve(cfg.core.warp_size);
    _seg_scratch.reserve(cfg.core.warp_size);
}

void
Core::setKernel(const KernelProgram *prog, const LaunchConfig *launch)
{
    GSP_ASSERT(!busy(), "kernel switch on a busy core");
    _prog = prog;
    _launch = launch;
    unsigned threads = launch->block.count();
    GSP_ASSERT(threads > 0 && threads <= _cfg.core.max_threads,
               "block of ", threads, " threads does not fit core");
    _warps_per_block = divCeil(threads, _cfg.core.warp_size);
    _decoded.clear();
    for (const Instruction &inst : prog->code) {
        uint64_t use_mask = 0;
        for (const Operand *op :
             {&inst.dst, &inst.src_a, &inst.src_b, &inst.src_c}) {
            if (op->kind == OperandKind::Reg)
                use_mask |= 1ull << (op->value & 63);
        }
        GSP_ASSERT(inst.guard < static_cast<int>(num_preds) &&
                       inst.aux < num_preds,
                   "predicate index out of range in ", prog->name);
        // A source past the budget would read another warp's
        // registers; destinations are checked where they are written.
        for (const Operand *op : {&inst.src_a, &inst.src_b, &inst.src_c}) {
            GSP_ASSERT(op->kind != OperandKind::Reg ||
                           op->value < prog->regs_per_thread,
                       "source register ", op->value, " out of budget in ",
                       prog->name);
        }
        _decoded.push_back({use_mask, inst.unitClass(),
                            static_cast<uint8_t>(inst.regSources()),
                            inst.writesReg()});
    }
}

bool
Core::canAcceptBlock() const
{
    if (!_prog)
        return false;
    unsigned threads = _resident_threads + _launch->block.count();

    if (_resident_blocks >= _cfg.core.max_blocks)
        return false;
    if (threads > _cfg.core.max_threads)
        return false;
    if (_resident_warps + _warps_per_block > _cfg.core.maxWarps())
        return false;
    if (threads * _prog->regs_per_thread > _cfg.core.regfile_regs)
        return false;
    unsigned smem_need = (_resident_blocks + 1) * _prog->smem_bytes;
    if (smem_need > _cfg.core.smem_bytes)
        return false;
    return true;
}

void
Core::launchBlock(unsigned cta_x, unsigned cta_y, uint64_t cycle)
{
    GSP_ASSERT(canAcceptBlock(), "launchBlock without capacity");
    if (busy())
        accountTo(cycle);
    else
        _accounted = cycle;
    unsigned threads = _launch->block.count();

    unsigned block_slot = 0;
    while (_blocks[block_slot].valid)
        ++block_slot;

    Block &blk = _blocks[block_slot];
    blk.valid = true;
    blk.cta_x = cta_x;
    blk.cta_y = cta_y;
    blk.threads = threads;
    blk.live_warps = _warps_per_block;
    blk.at_barrier = 0;
    blk.regs.assign(static_cast<size_t>(_warps_per_block) *
                        _prog->regs_per_thread * _cfg.core.warp_size,
                    0);
    blk.preds.assign(_warps_per_block, {});
    blk.smem = _prog->smem_bytes > 0
                   ? std::make_unique<SharedMemory>(_prog->smem_bytes)
                   : nullptr;

    unsigned assigned = 0;
    for (unsigned w = 0; w < _warps.size() && assigned < _warps_per_block;
         ++w) {
        if (_warps[w].valid)
            continue;
        Warp &warp = _warps[w];
        warp = Warp{};
        warp.valid = true;
        warp.block_slot = block_slot;
        warp.warp_in_block = assigned;
        warp.base_thread = assigned * _cfg.core.warp_size;
        unsigned lanes = std::min(_cfg.core.warp_size,
                                  threads - warp.base_thread);
        uint64_t mask = lanes >= 64 ? ~0ull : ((1ull << lanes) - 1);
        warp.stack.push_back({no_reconv, 0, mask});
        refreshWarp(w);
        ++assigned;
        ++_act.wst_writes;   // WST entry initialization
    }
    GSP_ASSERT(assigned == _warps_per_block, "warp slot accounting broke");
    ++_resident_blocks;
    _resident_threads += threads;
    _resident_warps += assigned;
    _wake = 0;
}

void
Core::resetForKernel()
{
    GSP_ASSERT(!busy(), "resetForKernel on a busy core");
    _icache.flush();
    if (_l1d)
        _l1d->flush();
    _const_cache.flush();
    while (!_completions.empty())
        _completions.pop();
    _unit_free.fill(0);
    _issue_mask = _fetch_mask = _stalled_mask = 0;
    _unit_mask.fill(0);
    _fetch_rr = _issue_rr = 0;
    _wake = _accounted = 0;
    _core_steps = _quiet_cycles = 0;
    for (auto &w : _warps)
        w = Warp{};
    for (auto &b : _blocks)
        b = Block{};
    _act = CoreActivity{};
}

void
Core::fullStep(uint64_t cycle)
{
    ++_core_steps;
    ++_act.cycles_resident;
    drainCompletions(cycle);
    issueStage(cycle);
    fetchStage(cycle);
    _wake = nextEvent(cycle);
}

uint64_t
Core::nextEvent(uint64_t cycle) const
{
    // The earliest event, or any one due by the next cycle: the step
    // there acts either way.
    const uint64_t soon = cycle + 1;
    uint64_t next = _completions.empty() ? never : _completions.top().when;
    for (unsigned u = 0; u < num_units && next > soon; ++u) {
        if (_unit_mask[u] & ~_stalled_mask)
            next = std::min(next, _unit_free[u]);
    }
    for (uint64_t m = _fetch_mask; m && next > soon; m &= m - 1)
        next = std::min(next, _warps[countTrailingZeros(m)].fetch_ready);
    return next;
}

void
Core::drainCompletions(uint64_t cycle)
{
    while (!_completions.empty() && _completions.top().when <= cycle) {
        Completion c = _completions.top();
        _completions.pop();
        Warp &warp = _warps[c.warp];
        if (!warp.valid) {
            // Block already retired (e.g. store ack after exit).
            continue;
        }
        warp.inflight = false;
        if (c.kind == 1)
            warp.waiting_mem = false;
        if (c.dst_reg >= 0) {
            warp.pending_reg_mask &= ~(1ull << c.dst_reg);
            if (warp.pending_count > 0)
                --warp.pending_count;
            ++_act.scoreboard_writes;  // release update
        }
        ++_act.writebacks;
        refreshWarp(c.warp);
    }
}

void
Core::refreshWarp(unsigned warp_idx)
{
    Warp &warp = _warps[warp_idx];
    const uint64_t bit = 1ull << warp_idx;
    const bool runnable = warp.valid && !warp.stack.empty() &&
                          !warp.at_barrier && !warp.waiting_mem;
    const bool fetchable =
        runnable && warp.ibuffer < _cfg.core.ibuffer_slots;
    const bool issuable = runnable && warp.ibuffer > 0 &&
                          (_cfg.core.scoreboard || !warp.inflight);
    _fetch_mask = fetchable ? _fetch_mask | bit : _fetch_mask & ~bit;
    _issue_mask = issuable ? _issue_mask | bit : _issue_mask & ~bit;
    _stalled_mask &= ~bit;
    if (warp.unit_slot != no_unit)
        _unit_mask[warp.unit_slot] &= ~bit;
    warp.unit_slot = no_unit;
    if (issuable) {
        const Decoded &dec = _decoded[warp.stack.back().exec_pc];
        warp.unit_slot = static_cast<uint8_t>(dec.unit);
        _unit_mask[warp.unit_slot] |= bit;
        if (_cfg.core.scoreboard &&
            ((warp.pending_reg_mask & dec.use_mask) ||
             (dec.writes_reg &&
              warp.pending_count >= _cfg.core.scoreboard_entries)))
            _stalled_mask |= bit;
    }
}

void
Core::fetchStage(uint64_t cycle)
{
    const unsigned n = static_cast<unsigned>(_warps.size());
    ++_act.fetch_arbitrations;
    // Fetch-eligible warps in round-robin order from _fetch_rr.
    for (uint64_t m = rotateRight(_fetch_mask, _fetch_rr, n); m;
         m &= m - 1) {
        unsigned w = _fetch_rr + countTrailingZeros(m);
        if (w >= n)
            w -= n;
        Warp &warp = _warps[w];
        if (warp.fetch_ready > cycle)
            continue;
        ++_act.wst_reads;
        ++_act.icache_reads;
        uint64_t fetch_pc = warp.stack.back().exec_pc + warp.ibuffer;
        bool hit = _icache.access(fetch_pc * 8, false);
        if (!hit) {
            ++_act.icache_misses;
            warp.fetch_ready = cycle + icache_miss_latency;
        } else {
            ++_act.decodes;
            ++_act.ibuffer_writes;
            ++warp.ibuffer;
            refreshWarp(w);
        }
        _fetch_rr = (w + 1) % n;
        return;
    }
}

void
Core::issueStage(uint64_t cycle)
{
    // Round-robin over offsets 0..n-1 from the live _issue_rr, which
    // an issue moves: the order a scan over every warp would take.
    // Only issue-eligible warps that are not stalled and whose unit
    // is free are tried, and each of those issues. The others would
    // fail after their scoreboard lookup, so the lookups of those the
    // scan passes over are added in bulk.
    const unsigned n = static_cast<unsigned>(_warps.size());
    const bool scoreboard = _cfg.core.scoreboard;
    unsigned issued = 0;
    ++_act.issue_arbitrations;
    unsigned offset = 0;   // next offset the scan reaches
    while (offset < n && issued < _cfg.core.issue_width) {
        // Issuing only makes units busier, so recompute after each.
        uint64_t blocked = _stalled_mask;
        for (unsigned u = 0; u < num_units; ++u) {
            if (_unit_free[u] > cycle)
                blocked |= _unit_mask[u];
        }
        const unsigned base = _issue_rr;
        const uint64_t ahead = ~lowMask(offset);
        const uint64_t ready =
            rotateRight(_issue_mask & ~blocked, base, n) & ahead;
        const uint64_t passed =
            scoreboard ? rotateRight(blocked, base, n) & ahead : 0;
        if (!ready) {
            _act.scoreboard_checks += popCount(passed);
            return;
        }
        offset = countTrailingZeros(ready);
        _act.scoreboard_checks += popCount(passed & lowMask(offset));
        unsigned w = base + offset;
        if (w >= n)
            w -= n;
        ++offset;
        issueWarp(w, cycle);
        ++issued;
        refreshWarp(w);
        // Rotating priority moves past the winner; greedy-then-oldest
        // keeps issuing the same warp until it stalls.
        _issue_rr = _greedy_issue ? w : (w + 1) % n;
    }
}

void
Core::issueWarp(unsigned warp_idx, uint64_t cycle)
{
    // Callers pass only warps in _issue_mask that are not stalled and
    // whose unit is free.
    Warp &warp = _warps[warp_idx];
    StackEntry &tos = warp.stack.back();
    const Instruction &inst = _prog->code[tos.exec_pc];
    const Decoded &dec = _decoded[tos.exec_pc];

    if (_cfg.core.scoreboard)
        ++_act.scoreboard_checks;
    --warp.ibuffer;
    ++_act.ibuffer_reads;
    ++_act.reconv_reads;
    ++_act.wst_writes;
    ++_act.issued_insts;

    Block &blk = _blocks[warp.block_slot];

    // Guard evaluation: threads whose predicate allows execution.
    uint64_t exec_mask = tos.mask;
    if (inst.guard >= 0) {
        uint64_t pred = blk.preds[warp.warp_in_block][inst.guard];
        exec_mask &= inst.guard_negated ? ~pred : pred;
    }
    unsigned enabled = popCount(exec_mask);

    // Register file traffic (operand collectors, banks, crossbar).
    unsigned srcs = dec.reg_sources;
    unsigned per_op = rfAccessesPerOperand(tos.mask);
    _act.rf_bank_reads += srcs * per_op;
    _act.collector_writes += srcs;
    _act.rf_xbar_transfers += srcs;
    if (srcs > 0)
        ++_act.collector_reads;
    if (dec.writes_reg)
        _act.rf_bank_writes += per_op;

    const UnitClass uc = dec.unit;
    if (uc == UnitClass::Ctrl) {
        ++_act.ctrl_warp_insts;
        if (inst.op == Op::BRA) {
            ++_act.branches;
            executeBranch(warp, inst, exec_mask);
        } else if (inst.op == Op::BAR) {
            ++_act.barriers;
            warp.at_barrier = true;
            ++blk.at_barrier;
            tos.exec_pc += 1;
            warp.ibuffer = 0;
            releaseBarrierIfReady(warp.block_slot);
        } else if (inst.op == Op::EXIT) {
            threadExit(warp, tos.mask);
        } else {  // NOP
            tos.exec_pc += 1;
        }
        // Reconvergence check after sequential advance.
        while (!warp.stack.empty() &&
               warp.stack.back().exec_pc == warp.stack.back().reconv_pc) {
            warp.stack.pop_back();
            ++_act.reconv_pops;
            warp.ibuffer = 0;
        }
        finishWarpIfDone(warp_idx);
        return;
    }

    // SIMD pipeline: busy for its initiation interval, result after
    // the latency on top.
    auto pipeline = [&](unsigned lanes, unsigned latency) {
        unsigned initiation = divCeil(_cfg.core.warp_size, lanes);
        _unit_free[static_cast<unsigned>(uc)] = cycle + initiation;
        executeInstruction(warp, inst, exec_mask);
        return cycle + latency + initiation;
    };
    Completion c{0, warp_idx, -1, 0};
    switch (uc) {
      case UnitClass::Int:
        ++_act.int_warp_insts;
        _act.int_lane_ops += enabled;
        c.when = pipeline(_cfg.core.int_lanes, _cfg.core.int_latency);
        break;
      case UnitClass::Fp:
        ++_act.fp_warp_insts;
        _act.fp_lane_ops += enabled;
        c.when = pipeline(_cfg.core.fp_lanes, _cfg.core.fp_latency);
        break;
      case UnitClass::Sfu:
        ++_act.sfu_warp_insts;
        _act.sfu_lane_ops += enabled;
        c.when = pipeline(_cfg.core.sfu_units, _cfg.core.sfu_latency);
        break;
      case UnitClass::Mem: {
        ++_act.mem_warp_insts;
        c.when = executeMemory(warp, inst, exec_mask, cycle);
        bool is_load = inst.op == Op::LDG || inst.op == Op::LDS ||
                       inst.op == Op::STS || inst.op == Op::LDC ||
                       inst.op == Op::ATOMG_ADD;
        // STS completes like LDS (SMEM round trip); STG is
        // fire-and-forget through the store path.
        c.kind = is_load ? 1 : 0;
        if (is_load && (inst.op == Op::LDG || inst.op == Op::ATOMG_ADD))
            warp.waiting_mem = true;
        break;
      }
      case UnitClass::Ctrl:
        break;   // handled above
    }
    if (_cfg.core.scoreboard && dec.writes_reg) {
        c.dst_reg = static_cast<int16_t>(inst.dst.value & 63);
        warp.pending_reg_mask |= 1ull << c.dst_reg;
        ++warp.pending_count;
        ++_act.scoreboard_writes;
    }
    warp.inflight = true;
    _completions.push(c);

    // Sequential PC advance + reconvergence pop for non-control ops.
    StackEntry &tos2 = warp.stack.back();
    tos2.exec_pc += 1;
    while (!warp.stack.empty() &&
           warp.stack.back().exec_pc == warp.stack.back().reconv_pc) {
        warp.stack.pop_back();
        ++_act.reconv_pops;
        warp.ibuffer = 0;
    }
}

void
Core::executeBranch(Warp &warp, const Instruction &inst,
                    uint64_t exec_mask)
{
    StackEntry &tos = warp.stack.back();
    uint64_t mask = tos.mask;
    uint64_t taken = exec_mask;          // guard==condition for BRA
    uint64_t not_taken = mask & ~taken;

    if (taken == 0) {
        tos.exec_pc += 1;
        return;   // fully not-taken: fall through, keep ibuffer
    }
    if (not_taken == 0) {
        tos.exec_pc = inst.target;
        warp.ibuffer = 0;
        return;   // fully taken
    }

    // Divergence: the current entry becomes the reconvergence token;
    // both paths are pushed and the taken path executes first [17].
    ++_act.divergent_branches;
    uint32_t fall_pc = tos.exec_pc + 1;
    tos.exec_pc = inst.reconv;
    warp.stack.push_back({inst.reconv, fall_pc, not_taken});
    warp.stack.push_back({inst.reconv, inst.target, taken});
    _act.reconv_pushes += 2;
    warp.ibuffer = 0;
}

void
Core::threadExit(Warp &warp, uint64_t exit_mask)
{
    for (auto &entry : warp.stack)
        entry.mask &= ~exit_mask;
    while (!warp.stack.empty() && warp.stack.back().mask == 0) {
        warp.stack.pop_back();
        ++_act.reconv_pops;
    }
    warp.ibuffer = 0;
}

void
Core::releaseBarrierIfReady(unsigned block_slot)
{
    Block &blk = _blocks[block_slot];
    if (blk.live_warps == 0 || blk.at_barrier < blk.live_warps)
        return;
    blk.at_barrier = 0;
    for (unsigned w = 0; w < _warps.size(); ++w) {
        if (_warps[w].valid && _warps[w].block_slot == block_slot) {
            _warps[w].at_barrier = false;
            refreshWarp(w);
        }
    }
}

void
Core::finishWarpIfDone(unsigned warp_idx)
{
    Warp &warp = _warps[warp_idx];
    if (!warp.valid || !warp.stack.empty())
        return;
    unsigned block_slot = warp.block_slot;
    warp.valid = false;
    --_resident_warps;
    refreshWarp(warp_idx);
    Block &blk = _blocks[block_slot];
    GSP_ASSERT(blk.live_warps > 0, "warp accounting broke");
    --blk.live_warps;
    if (blk.live_warps > 0) {
        // A barrier may now be releasable with fewer participants.
        releaseBarrierIfReady(block_slot);
        return;
    }
    GSP_ASSERT(_resident_blocks > 0, "block accounting broke");
    --_resident_blocks;
    _resident_threads -= blk.threads;
    blk = Block{};
    ++_finished_blocks;
}

uint64_t
Core::executeMemory(Warp &warp, const Instruction &inst,
                    uint64_t exec_mask, uint64_t cycle)
{
    Block &blk = _blocks[warp.block_slot];
    uint64_t &mem_free = _unit_free[static_cast<unsigned>(UnitClass::Mem)];

    // AGU: one address per enabled lane, 8 addresses per SAGU/cycle.
    const LaneSource base = laneSource(blk, warp, inst.src_a, 0, exec_mask);
    _addr_scratch.clear();
    forEachLane(exec_mask, [&](unsigned lane) {
        _addr_scratch.push_back(base(lane) +
                                static_cast<uint32_t>(inst.mem_offset));
    });
    unsigned enabled = static_cast<unsigned>(_addr_scratch.size());
    _act.agu_addrs += enabled;
    unsigned agu_cycles = std::max(
        1u, static_cast<unsigned>(
                divCeil(enabled, 8 * _cfg.core.sagu_count)));

    if (enabled == 0) {
        mem_free = cycle + 1;
        return cycle + 1;
    }

    switch (inst.op) {
      case Op::LDS:
      case Op::STS: {
        bool is_store = inst.op == Op::STS;
        GSP_ASSERT(blk.smem != nullptr, "SMEM access without smem_bytes");
        BankConflictInfo info = analyzeSmemAccess(
            _addr_scratch, _cfg.core.smem_banks, _seg_scratch);
        _act.smem_accesses += info.distinct_words;
        _act.smem_conflict_cycles += info.serialization - 1;
        // Functional.
        unsigned idx = 0;
        if (is_store) {
            const LaneSource val =
                laneSource(blk, warp, inst.src_b, 1, exec_mask);
            forEachLane(exec_mask, [&](unsigned lane) {
                blk.smem->store32(_addr_scratch[idx++], val(lane));
            });
        } else {
            uint32_t *dst = laneDest(blk, warp, inst.dst.value);
            forEachLane(exec_mask, [&](unsigned lane) {
                dst[lane] = blk.smem->load32(_addr_scratch[idx++]);
            });
        }
        mem_free = cycle + agu_cycles + info.serialization;
        return cycle + _cfg.core.smem_latency + info.serialization;
      }
      case Op::LDC: {
        unsigned d = distinctAddresses(_addr_scratch, _seg_scratch);
        _act.const_reads += d;
        unsigned miss_extra = 0;
        // Tag-check one access per distinct address.
        for (unsigned i = 0; i < d; ++i) {
            if (!_const_cache.access(_seg_scratch[i], false)) {
                ++_act.const_misses;
                miss_extra = const_miss_latency;
            }
        }
        unsigned idx = 0;
        uint32_t *dst = laneDest(blk, warp, inst.dst.value);
        forEachLane(exec_mask, [&](unsigned lane) {
            dst[lane] = _cmem.load32(_addr_scratch[idx++]);
        });
        mem_free = cycle + agu_cycles + d;
        return cycle + _cfg.core.l1_latency + d + miss_extra;
      }
      case Op::LDG:
      case Op::STG:
      case Op::ATOMG_ADD: {
        bool is_store = inst.op == Op::STG;
        bool is_atomic = inst.op == Op::ATOMG_ADD;

        // Functional first (atomics serialize in lane order).
        unsigned idx = 0;
        if (is_store) {
            const LaneSource val =
                laneSource(blk, warp, inst.src_b, 1, exec_mask);
            forEachLane(exec_mask, [&](unsigned lane) {
                _gmem.store32(_addr_scratch[idx++], val(lane));
            });
        } else if (is_atomic) {
            const LaneSource val =
                laneSource(blk, warp, inst.src_b, 1, exec_mask);
            uint32_t *dst = laneDest(blk, warp, inst.dst.value);
            forEachLane(exec_mask, [&](unsigned lane) {
                uint32_t addr = _addr_scratch[idx++];
                uint32_t old = _gmem.load32(addr);
                dst[lane] = old;
                // Read after the write: src_b may be the destination.
                _gmem.store32(addr, old + val(lane));
            });
        } else {
            uint32_t *dst = laneDest(blk, warp, inst.dst.value);
            forEachLane(exec_mask, [&](unsigned lane) {
                dst[lane] = _gmem.load32(_addr_scratch[idx++]);
            });
        }
        // Coalescing [24].
        ++_act.coalescer_lookups;
        unsigned n_seg;
        if (_cfg.core.coalescing) {
            n_seg = coalesce(_addr_scratch, _cfg.core.line_bytes,
                             _seg_scratch);
        } else {
            // Ablation: one line-sized transaction per active lane.
            _seg_scratch.clear();
            for (uint32_t a : _addr_scratch) {
                _seg_scratch.push_back(
                    a / _cfg.core.line_bytes * _cfg.core.line_bytes);
            }
            n_seg = static_cast<unsigned>(_seg_scratch.size());
        }
        _act.coalescer_transactions += n_seg;
        if (is_store)
            ++_act.global_stores;
        else
            ++_act.global_loads;

        uint64_t t_done = cycle + 1;
        for (unsigned s = 0; s < n_seg; ++s) {
            uint64_t seg = _seg_scratch[s];
            uint64_t t_seg = 0;
            bool to_mem = true;
            if (_l1d && !is_atomic) {
                if (is_store) {
                    // Write-through, no allocate.
                    ++_act.l1_writes;
                    _l1d->access(seg, true);
                } else {
                    ++_act.l1_reads;
                    if (_l1d->access(seg, false)) {
                        // Line read out of the unified SMEM/L1
                        // array: one access per 128-bit row.
                        _act.smem_accesses += _cfg.core.line_bytes / 16;
                        t_seg = cycle + _cfg.core.l1_latency;
                        to_mem = false;
                        t_done = std::max(t_done, t_seg);
                        continue;
                    }
                    ++_act.l1_misses;
                }
            }
            if (to_mem) {
                t_seg = _memsys.access(seg, is_store, cycle + s);
                if (is_atomic) {
                    // Read-modify-write: the write burst follows.
                    t_seg = _memsys.access(seg, true, t_seg);
                }
                t_done = std::max(t_done, t_seg);
            }
        }
        mem_free = cycle + agu_cycles + n_seg;
        if (is_store) {
            // Fire-and-forget: the warp only waits for the LDST
            // unit's own occupancy, not the DRAM round trip.
            return cycle + agu_cycles + n_seg + 1;
        }
        return t_done;
      }
      default:
        GSP_PANIC("executeMemory on non-memory opcode");
    }
}

void
Core::executeInstruction(Warp &warp, const Instruction &inst,
                         uint64_t exec_mask)
{
    if (exec_mask == 0)
        return;
    Block &blk = _blocks[warp.block_slot];
    const LaneSource a = laneSource(blk, warp, inst.src_a, 0, exec_mask);
    const LaneSource b = laneSource(blk, warp, inst.src_b, 1, exec_mask);
    const LaneSource c = laneSource(blk, warp, inst.src_c, 2, exec_mask);

    // Value-producing ops: dst = f(lane) on every enabled lane.
    auto write = [&](auto f) {
        if (!inst.writesReg())
            return;
        uint32_t *dst = laneDest(blk, warp, inst.dst.value);
        forEachLane(exec_mask, [&](unsigned lane) { dst[lane] = f(lane); });
    };

    auto fa = [&](unsigned l) { return asFloat(a(l)); };
    auto fb = [&](unsigned l) { return asFloat(b(l)); };
    auto fc = [&](unsigned l) { return asFloat(c(l)); };

    switch (inst.op) {
      case Op::MOV: write([&](unsigned l) { return a(l); }); break;
      case Op::IADD: write([&](unsigned l) { return a(l) + b(l); }); break;
      case Op::ISUB: write([&](unsigned l) { return a(l) - b(l); }); break;
      case Op::IMUL:
        write([&](unsigned l) {
            return static_cast<uint32_t>(static_cast<uint64_t>(a(l)) *
                                         b(l));
        });
        break;
      case Op::IMAD:
        write([&](unsigned l) {
            return static_cast<uint32_t>(
                static_cast<uint64_t>(a(l)) * b(l) + c(l));
        });
        break;
      case Op::ISHL:
        write([&](unsigned l) { return a(l) << (b(l) & 31); });
        break;
      case Op::ISHR:
        write([&](unsigned l) { return a(l) >> (b(l) & 31); });
        break;
      case Op::IAND: write([&](unsigned l) { return a(l) & b(l); }); break;
      case Op::IOR: write([&](unsigned l) { return a(l) | b(l); }); break;
      case Op::IXOR: write([&](unsigned l) { return a(l) ^ b(l); }); break;
      case Op::IMIN:
        write([&](unsigned l) {
            return static_cast<uint32_t>(
                std::min(static_cast<int32_t>(a(l)),
                         static_cast<int32_t>(b(l))));
        });
        break;
      case Op::IMAX:
        write([&](unsigned l) {
            return static_cast<uint32_t>(
                std::max(static_cast<int32_t>(a(l)),
                         static_cast<int32_t>(b(l))));
        });
        break;
      case Op::FADD:
        write([&](unsigned l) { return asBits(fa(l) + fb(l)); });
        break;
      case Op::FSUB:
        write([&](unsigned l) { return asBits(fa(l) - fb(l)); });
        break;
      case Op::FMUL:
        write([&](unsigned l) { return asBits(fa(l) * fb(l)); });
        break;
      case Op::FFMA:
        write([&](unsigned l) { return asBits(fa(l) * fb(l) + fc(l)); });
        break;
      case Op::FMIN:
        write([&](unsigned l) { return asBits(std::min(fa(l), fb(l))); });
        break;
      case Op::FMAX:
        write([&](unsigned l) { return asBits(std::max(fa(l), fb(l))); });
        break;
      case Op::I2F:
        write([&](unsigned l) {
            return asBits(static_cast<float>(static_cast<int32_t>(a(l))));
        });
        break;
      case Op::F2I:
        write([&](unsigned l) {
            return static_cast<uint32_t>(static_cast<int32_t>(fa(l)));
        });
        break;
      case Op::RCP:
        write([&](unsigned l) { return asBits(1.0f / fa(l)); });
        break;
      case Op::RSQRT:
        write([&](unsigned l) { return asBits(1.0f / std::sqrt(fa(l))); });
        break;
      case Op::SQRT:
        write([&](unsigned l) { return asBits(std::sqrt(fa(l))); });
        break;
      case Op::SIN:
        write([&](unsigned l) { return asBits(std::sin(fa(l))); });
        break;
      case Op::COS:
        write([&](unsigned l) { return asBits(std::cos(fa(l))); });
        break;
      case Op::EX2:
        write([&](unsigned l) { return asBits(std::exp2(fa(l))); });
        break;
      case Op::LG2:
        write([&](unsigned l) { return asBits(std::log2(fa(l))); });
        break;
      case Op::SETP: {
        uint64_t result = 0;
        withComparison(inst, [&](auto as, auto cmp) {
            forEachLane(exec_mask, [&](unsigned l) {
                result |= uint64_t(cmp(as(a(l)), as(b(l)))) << l;
            });
        });
        uint64_t &pred = blk.preds[warp.warp_in_block][inst.aux];
        pred = (pred & ~exec_mask) | result;
        break;
      }
      case Op::SELP: {
        const uint64_t pred = blk.preds[warp.warp_in_block][inst.aux];
        write([&](unsigned l) { return (pred >> l & 1) ? a(l) : b(l); });
        break;
      }
      case Op::NOP:
        break;
      default:
        GSP_PANIC("executeInstruction on unexpected opcode ",
                  opName(inst.op));
    }
}

Core::LaneSource
Core::laneSource(const Block &blk, const Warp &warp, const Operand &op,
                 unsigned slot, uint64_t exec_mask)
{
    static const uint32_t zero = 0;
    switch (op.kind) {
      case OperandKind::None:
        return {&zero, 0};
      case OperandKind::Imm:
        return {&op.value, 0};
      case OperandKind::Reg:
        return {regRow(blk, warp, op.value), 1};
      case OperandKind::Special: {
        auto &vals = _special_scratch[slot];
        const auto reg = static_cast<SpecialReg>(op.value);
        forEachLane(exec_mask, [&](unsigned lane) {
            vals[lane] = readSpecial(blk, warp.base_thread + lane, warp, reg);
        });
        return {vals.data(), 1};
      }
    }
    return {&zero, 0};
}

uint32_t
Core::readSpecial(const Block &blk, unsigned tid, const Warp &warp,
                  SpecialReg reg) const
{
    const Dim3 &ntid = _launch->block;
    const Dim3 &nctaid = _launch->grid;
    switch (reg) {
      case SpecialReg::TidX: return tid % ntid.x;
      case SpecialReg::TidY: return tid / ntid.x;
      case SpecialReg::NTidX: return ntid.x;
      case SpecialReg::NTidY: return ntid.y;
      case SpecialReg::CtaIdX: return blk.cta_x;
      case SpecialReg::CtaIdY: return blk.cta_y;
      case SpecialReg::NCtaIdX: return nctaid.x;
      case SpecialReg::NCtaIdY: return nctaid.y;
      case SpecialReg::LaneId: return tid % _cfg.core.warp_size;
      case SpecialReg::WarpId: return warp.warp_in_block;
    }
    return 0;
}

uint32_t *
Core::laneDest(Block &blk, const Warp &warp, unsigned reg) const
{
    // Checked once per instruction, before any lane writes.
    GSP_ASSERT(reg < _prog->regs_per_thread, "register ", reg,
               " out of budget in ", _prog->name);
    return const_cast<uint32_t *>(regRow(blk, warp, reg));
}

const uint32_t *
Core::regRow(const Block &blk, const Warp &warp, unsigned reg) const
{
    return blk.regs.data() +
           (static_cast<size_t>(warp.warp_in_block) *
                _prog->regs_per_thread +
            reg) * _cfg.core.warp_size;
}

unsigned
Core::rfAccessesPerOperand(uint64_t mask) const
{
    // A bank access reads a 128-bit row: four lanes' 32-bit operands.
    return std::max(1u, static_cast<unsigned>(divCeil(popCount(mask), 4)));
}

} // namespace perf
} // namespace gpusimpow
