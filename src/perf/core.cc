#include "perf/core.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

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
}

bool
Core::canAcceptBlock() const
{
    if (!_prog)
        return false;
    unsigned threads = _launch->block.count();

    unsigned used_blocks = 0;
    unsigned used_threads = 0;
    unsigned used_warps = 0;
    for (const auto &b : _blocks) {
        if (b.valid) {
            ++used_blocks;
            used_threads += b.threads;
        }
    }
    for (const auto &w : _warps) {
        if (w.valid)
            ++used_warps;
    }

    if (used_blocks >= _cfg.core.max_blocks)
        return false;
    if (used_threads + threads > _cfg.core.max_threads)
        return false;
    if (used_warps + _warps_per_block > _cfg.core.maxWarps())
        return false;
    unsigned reg_need = (used_threads + threads) * _prog->regs_per_thread;
    if (reg_need > _cfg.core.regfile_regs)
        return false;
    unsigned smem_need = (used_blocks + 1) * _prog->smem_bytes;
    if (smem_need > _cfg.core.smem_bytes)
        return false;
    return true;
}

void
Core::launchBlock(unsigned cta_x, unsigned cta_y)
{
    GSP_ASSERT(canAcceptBlock(), "launchBlock without capacity");
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
    blk.regs.assign(static_cast<size_t>(threads) * _prog->regs_per_thread,
                    0);
    blk.preds.assign(threads, 0);
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
        ++assigned;
        ++_act.wst_writes;   // WST entry initialization
    }
    GSP_ASSERT(assigned == _warps_per_block, "warp slot accounting broke");
    ++_resident_blocks;
    _wake = 0;
}

unsigned
Core::collectFinishedBlocks()
{
    unsigned n = _finished_blocks;
    _finished_blocks = 0;
    return n;
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
    _int_free = _fp_free = _sfu_free = _mem_free = 0;
    _fetch_rr = _issue_rr = 0;
    _wake = 0;
    _core_steps = _quiet_cycles = 0;
    for (auto &w : _warps)
        w = Warp{};
    for (auto &b : _blocks)
        b = Block{};
    _act = CoreActivity{};
}

void
Core::step(uint64_t cycle)
{
    if (!busy())
        return;
    if (cycle < _wake) {
        skipQuiet(1);
        return;
    }
    ++_core_steps;
    ++_act.cycles_resident;
    const uint64_t checks_before = _act.scoreboard_checks;
    _stall_end = never;
    bool drained = drainCompletions(cycle);
    bool issued = issueStage(cycle);
    bool fetched = fetchStage(cycle);
    if (drained || issued || fetched) {
        _wake = 0;
        return;
    }
    // Quiet: until the earliest event every step repeats this one.
    _wake = _stall_end;
    if (!_completions.empty())
        _wake = std::min(_wake, _completions.top().when);
    _quiet_checks = _act.scoreboard_checks - checks_before;
}

void
Core::skipQuiet(uint64_t n)
{
    _act.cycles_resident += n;
    _act.issue_arbitrations += n;
    _act.fetch_arbitrations += n;
    _act.scoreboard_checks += n * _quiet_checks;
    _quiet_cycles += n;
}

bool
Core::drainCompletions(uint64_t cycle)
{
    bool drained = false;
    while (!_completions.empty() && _completions.top().when <= cycle) {
        Completion c = _completions.top();
        _completions.pop();
        drained = true;
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
    }
    return drained;
}

bool
Core::fetchStage(uint64_t cycle)
{
    unsigned n = static_cast<unsigned>(_warps.size());
    ++_act.fetch_arbitrations;
    for (unsigned i = 0; i < n; ++i) {
        unsigned w = (_fetch_rr + i) % n;
        Warp &warp = _warps[w];
        if (!warp.valid || warp.stack.empty())
            continue;
        if (warp.ibuffer >= _cfg.core.ibuffer_slots)
            continue;
        if (warp.at_barrier || warp.waiting_mem)
            continue;
        if (warp.fetch_ready > cycle) {
            _stall_end = std::min(_stall_end, warp.fetch_ready);
            continue;
        }
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
        }
        _fetch_rr = (w + 1) % n;
        return true;
    }
    return false;
}

bool
Core::issueStage(uint64_t cycle)
{
    unsigned n = static_cast<unsigned>(_warps.size());
    unsigned issued = 0;
    ++_act.issue_arbitrations;
    for (unsigned i = 0; i < n && issued < _cfg.core.issue_width; ++i) {
        unsigned w = (_issue_rr + i) % n;
        if (tryIssue(w, cycle)) {
            ++issued;
            // Rotating priority moves past the winner; greedy-then-
            // oldest keeps issuing the same warp until it stalls.
            _issue_rr = _greedy_issue ? w : (w + 1) % n;
        }
    }
    return issued > 0;
}

bool
Core::tryIssue(unsigned warp_idx, uint64_t cycle)
{
    Warp &warp = _warps[warp_idx];
    if (!warp.valid || warp.stack.empty() || warp.ibuffer == 0)
        return false;
    if (warp.at_barrier || warp.waiting_mem)
        return false;
    if (!_cfg.core.scoreboard && warp.inflight)
        return false;

    StackEntry &tos = warp.stack.back();
    const Instruction &inst = _prog->code[tos.exec_pc];

    if (_cfg.core.scoreboard) {
        ++_act.scoreboard_checks;
        uint64_t use_mask = 0;
        if (inst.dst.kind == OperandKind::Reg)
            use_mask |= 1ull << (inst.dst.value & 63);
        for (const Operand *op : {&inst.src_a, &inst.src_b, &inst.src_c}) {
            if (op->kind == OperandKind::Reg)
                use_mask |= 1ull << (op->value & 63);
        }
        if (warp.pending_reg_mask & use_mask)
            return false;
        if (inst.writesReg() &&
            warp.pending_count >= _cfg.core.scoreboard_entries) {
            return false;
        }
    }

    UnitClass uc = inst.unitClass();
    uint64_t unit_free = 0;
    switch (uc) {
      case UnitClass::Int: unit_free = _int_free; break;
      case UnitClass::Fp: unit_free = _fp_free; break;
      case UnitClass::Sfu: unit_free = _sfu_free; break;
      case UnitClass::Mem: unit_free = _mem_free; break;
      case UnitClass::Ctrl: break;
    }
    if (unit_free > cycle) {
        _stall_end = std::min(_stall_end, unit_free);
        return false;
    }

    // --- Issue accepted. ---
    --warp.ibuffer;
    ++_act.ibuffer_reads;
    ++_act.reconv_reads;
    ++_act.wst_writes;
    ++_act.issued_insts;

    Block &blk = _blocks[warp.block_slot];

    // Guard evaluation: threads whose predicate allows execution.
    uint64_t exec_mask = 0;
    for (unsigned lane = 0; lane < _cfg.core.warp_size; ++lane) {
        if (!(tos.mask >> lane & 1))
            continue;
        unsigned tid = warp.base_thread + lane;
        if (guardPasses(blk, tid, inst))
            exec_mask |= 1ull << lane;
    }
    unsigned active = popCount(tos.mask);
    unsigned enabled = popCount(exec_mask);

    // Register file traffic (operand collectors, banks, crossbar).
    unsigned srcs = inst.regSources();
    unsigned per_op = rfAccessesPerOperand(tos.mask);
    _act.rf_bank_reads += srcs * per_op;
    _act.collector_writes += srcs;
    _act.rf_xbar_transfers += srcs;
    if (srcs > 0)
        ++_act.collector_reads;
    if (inst.writesReg())
        _act.rf_bank_writes += per_op;

    const unsigned warp_size = _cfg.core.warp_size;

    switch (uc) {
      case UnitClass::Ctrl: {
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
        return true;
      }
      case UnitClass::Int: {
        ++_act.int_warp_insts;
        _act.int_lane_ops += enabled;
        unsigned initiation = divCeil(warp_size, _cfg.core.int_lanes);
        _int_free = cycle + initiation;
        executeInstruction(warp, inst, exec_mask, cycle);
        Completion c{cycle + _cfg.core.int_latency + initiation,
                     warp_idx, -1, 0};
        if (_cfg.core.scoreboard && inst.writesReg()) {
            c.dst_reg = static_cast<int16_t>(inst.dst.value & 63);
            warp.pending_reg_mask |= 1ull << c.dst_reg;
            ++warp.pending_count;
            ++_act.scoreboard_writes;
        }
        warp.inflight = true;
        _completions.push(c);
        break;
      }
      case UnitClass::Fp: {
        ++_act.fp_warp_insts;
        _act.fp_lane_ops += enabled;
        unsigned initiation = divCeil(warp_size, _cfg.core.fp_lanes);
        _fp_free = cycle + initiation;
        executeInstruction(warp, inst, exec_mask, cycle);
        Completion c{cycle + _cfg.core.fp_latency + initiation,
                     warp_idx, -1, 0};
        if (_cfg.core.scoreboard && inst.writesReg()) {
            c.dst_reg = static_cast<int16_t>(inst.dst.value & 63);
            warp.pending_reg_mask |= 1ull << c.dst_reg;
            ++warp.pending_count;
            ++_act.scoreboard_writes;
        }
        warp.inflight = true;
        _completions.push(c);
        break;
      }
      case UnitClass::Sfu: {
        ++_act.sfu_warp_insts;
        _act.sfu_lane_ops += enabled;
        unsigned initiation = divCeil(warp_size, _cfg.core.sfu_units);
        _sfu_free = cycle + initiation;
        executeInstruction(warp, inst, exec_mask, cycle);
        Completion c{cycle + _cfg.core.sfu_latency + initiation,
                     warp_idx, -1, 0};
        if (_cfg.core.scoreboard && inst.writesReg()) {
            c.dst_reg = static_cast<int16_t>(inst.dst.value & 63);
            warp.pending_reg_mask |= 1ull << c.dst_reg;
            ++warp.pending_count;
            ++_act.scoreboard_writes;
        }
        warp.inflight = true;
        _completions.push(c);
        break;
      }
      case UnitClass::Mem: {
        ++_act.mem_warp_insts;
        uint64_t done = executeMemory(warp, inst, exec_mask, cycle);
        bool is_load = inst.op == Op::LDG || inst.op == Op::LDS ||
                       inst.op == Op::STS || inst.op == Op::LDC ||
                       inst.op == Op::ATOMG_ADD;
        // STS completes like LDS (SMEM round trip); STG is
        // fire-and-forget through the store path.
        Completion c{done, warp_idx, -1, uint8_t(is_load ? 1 : 0)};
        if (_cfg.core.scoreboard && inst.writesReg()) {
            c.dst_reg = static_cast<int16_t>(inst.dst.value & 63);
            warp.pending_reg_mask |= 1ull << c.dst_reg;
            ++warp.pending_count;
            ++_act.scoreboard_writes;
        }
        if (is_load && (inst.op == Op::LDG || inst.op == Op::ATOMG_ADD))
            warp.waiting_mem = true;
        warp.inflight = true;
        _completions.push(c);
        break;
      }
    }

    // Sequential PC advance + reconvergence pop for non-control ops.
    StackEntry &tos2 = warp.stack.back();
    tos2.exec_pc += 1;
    while (!warp.stack.empty() &&
           warp.stack.back().exec_pc == warp.stack.back().reconv_pc) {
        warp.stack.pop_back();
        ++_act.reconv_pops;
        warp.ibuffer = 0;
    }
    (void)active;
    return true;
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
    for (auto &w : _warps) {
        if (w.valid && w.block_slot == block_slot)
            w.at_barrier = false;
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
    Block &blk = _blocks[block_slot];
    GSP_ASSERT(blk.live_warps > 0, "warp accounting broke");
    --blk.live_warps;
    if (blk.live_warps > 0) {
        // A barrier may now be releasable with fewer participants.
        releaseBarrierIfReady(block_slot);
        return;
    }
    blk = Block{};
    GSP_ASSERT(_resident_blocks > 0, "block accounting broke");
    --_resident_blocks;
    ++_finished_blocks;
}

uint64_t
Core::executeMemory(Warp &warp, const Instruction &inst,
                    uint64_t exec_mask, uint64_t cycle)
{
    Block &blk = _blocks[warp.block_slot];
    const unsigned warp_size = _cfg.core.warp_size;

    // AGU: one address per enabled lane, 8 addresses per SAGU/cycle.
    _addr_scratch.clear();
    for (unsigned lane = 0; lane < warp_size; ++lane) {
        if (!(exec_mask >> lane & 1))
            continue;
        unsigned tid = warp.base_thread + lane;
        uint32_t base = readOperand(blk, tid, warp, inst.src_a);
        _addr_scratch.push_back(
            base + static_cast<uint32_t>(inst.mem_offset));
    }
    unsigned enabled = static_cast<unsigned>(_addr_scratch.size());
    _act.agu_addrs += enabled;
    unsigned agu_cycles = std::max(
        1u, static_cast<unsigned>(
                divCeil(enabled, 8 * _cfg.core.sagu_count)));

    if (enabled == 0) {
        _mem_free = cycle + 1;
        return cycle + 1;
    }

    switch (inst.op) {
      case Op::LDS:
      case Op::STS: {
        bool is_store = inst.op == Op::STS;
        GSP_ASSERT(blk.smem != nullptr, "SMEM access without smem_bytes");
        BankConflictInfo info = analyzeSmemAccess(
            _addr_scratch, _cfg.core.smem_banks);
        _act.smem_accesses += info.distinct_words;
        _act.smem_conflict_cycles += info.serialization - 1;
        // Functional.
        unsigned idx = 0;
        for (unsigned lane = 0; lane < warp_size; ++lane) {
            if (!(exec_mask >> lane & 1))
                continue;
            unsigned tid = warp.base_thread + lane;
            uint32_t addr = _addr_scratch[idx++];
            if (is_store) {
                blk.smem->store32(
                    addr, readOperand(blk, tid, warp, inst.src_b));
            } else {
                threadReg(blk, tid, inst.dst.value) =
                    blk.smem->load32(addr);
            }
        }
        _mem_free = cycle + agu_cycles + info.serialization;
        return cycle + _cfg.core.smem_latency + info.serialization;
      }
      case Op::LDC: {
        unsigned d = distinctAddresses(_addr_scratch);
        _act.const_reads += d;
        unsigned miss_extra = 0;
        // Tag-check one access per distinct address.
        for (unsigned i = 0; i < d; ++i) {
            if (!_const_cache.access(_addr_scratch[i], false)) {
                ++_act.const_misses;
                miss_extra = const_miss_latency;
            }
        }
        unsigned idx = 0;
        for (unsigned lane = 0; lane < warp_size; ++lane) {
            if (!(exec_mask >> lane & 1))
                continue;
            unsigned tid = warp.base_thread + lane;
            threadReg(blk, tid, inst.dst.value) =
                _cmem.load32(_addr_scratch[idx++]);
        }
        _mem_free = cycle + agu_cycles + d;
        return cycle + _cfg.core.l1_latency + d + miss_extra;
      }
      case Op::LDG:
      case Op::STG:
      case Op::ATOMG_ADD: {
        bool is_store = inst.op == Op::STG;
        bool is_atomic = inst.op == Op::ATOMG_ADD;

        // Functional first (atomics serialize in lane order).
        unsigned idx = 0;
        for (unsigned lane = 0; lane < warp_size; ++lane) {
            if (!(exec_mask >> lane & 1))
                continue;
            unsigned tid = warp.base_thread + lane;
            uint32_t addr = _addr_scratch[idx++];
            if (is_store) {
                _gmem.store32(addr,
                              readOperand(blk, tid, warp, inst.src_b));
            } else if (is_atomic) {
                uint32_t old = _gmem.load32(addr);
                threadReg(blk, tid, inst.dst.value) = old;
                _gmem.store32(
                    addr,
                    old + readOperand(blk, tid, warp, inst.src_b));
            } else {
                threadReg(blk, tid, inst.dst.value) =
                    _gmem.load32(addr);
            }
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
        _mem_free = cycle + agu_cycles + n_seg;
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
                         uint64_t exec_mask, uint64_t cycle)
{
    (void)cycle;
    Block &blk = _blocks[warp.block_slot];
    const unsigned warp_size = _cfg.core.warp_size;

    for (unsigned lane = 0; lane < warp_size; ++lane) {
        if (!(exec_mask >> lane & 1))
            continue;
        unsigned tid = warp.base_thread + lane;
        uint32_t a = readOperand(blk, tid, warp, inst.src_a);
        uint32_t b = readOperand(blk, tid, warp, inst.src_b);
        uint32_t c = readOperand(blk, tid, warp, inst.src_c);
        uint32_t result = 0;
        bool write_result = inst.writesReg();

        switch (inst.op) {
          case Op::MOV: result = a; break;
          case Op::IADD: result = a + b; break;
          case Op::ISUB: result = a - b; break;
          case Op::IMUL:
            result = static_cast<uint32_t>(
                static_cast<uint64_t>(a) * b);
            break;
          case Op::IMAD:
            result = static_cast<uint32_t>(
                static_cast<uint64_t>(a) * b + c);
            break;
          case Op::ISHL: result = a << (b & 31); break;
          case Op::ISHR: result = a >> (b & 31); break;
          case Op::IAND: result = a & b; break;
          case Op::IOR: result = a | b; break;
          case Op::IXOR: result = a ^ b; break;
          case Op::IMIN:
            result = static_cast<uint32_t>(
                std::min(static_cast<int32_t>(a),
                         static_cast<int32_t>(b)));
            break;
          case Op::IMAX:
            result = static_cast<uint32_t>(
                std::max(static_cast<int32_t>(a),
                         static_cast<int32_t>(b)));
            break;
          case Op::FADD: result = asBits(asFloat(a) + asFloat(b)); break;
          case Op::FSUB: result = asBits(asFloat(a) - asFloat(b)); break;
          case Op::FMUL: result = asBits(asFloat(a) * asFloat(b)); break;
          case Op::FFMA:
            result = asBits(asFloat(a) * asFloat(b) + asFloat(c));
            break;
          case Op::FMIN:
            result = asBits(std::min(asFloat(a), asFloat(b)));
            break;
          case Op::FMAX:
            result = asBits(std::max(asFloat(a), asFloat(b)));
            break;
          case Op::I2F:
            result = asBits(static_cast<float>(static_cast<int32_t>(a)));
            break;
          case Op::F2I:
            result = static_cast<uint32_t>(
                static_cast<int32_t>(asFloat(a)));
            break;
          case Op::RCP: result = asBits(1.0f / asFloat(a)); break;
          case Op::RSQRT:
            result = asBits(1.0f / std::sqrt(asFloat(a)));
            break;
          case Op::SQRT: result = asBits(std::sqrt(asFloat(a))); break;
          case Op::SIN: result = asBits(std::sin(asFloat(a))); break;
          case Op::COS: result = asBits(std::cos(asFloat(a))); break;
          case Op::EX2: result = asBits(std::exp2(asFloat(a))); break;
          case Op::LG2: result = asBits(std::log2(asFloat(a))); break;
          case Op::SETP: {
            bool r = false;
            switch (inst.cmp_type) {
              case CmpType::I32: {
                int32_t x = static_cast<int32_t>(a);
                int32_t y = static_cast<int32_t>(b);
                switch (inst.cmp) {
                  case Cmp::EQ: r = x == y; break;
                  case Cmp::NE: r = x != y; break;
                  case Cmp::LT: r = x < y; break;
                  case Cmp::LE: r = x <= y; break;
                  case Cmp::GT: r = x > y; break;
                  case Cmp::GE: r = x >= y; break;
                }
                break;
              }
              case CmpType::U32: {
                switch (inst.cmp) {
                  case Cmp::EQ: r = a == b; break;
                  case Cmp::NE: r = a != b; break;
                  case Cmp::LT: r = a < b; break;
                  case Cmp::LE: r = a <= b; break;
                  case Cmp::GT: r = a > b; break;
                  case Cmp::GE: r = a >= b; break;
                }
                break;
              }
              case CmpType::F32: {
                float x = asFloat(a);
                float y = asFloat(b);
                switch (inst.cmp) {
                  case Cmp::EQ: r = x == y; break;
                  case Cmp::NE: r = x != y; break;
                  case Cmp::LT: r = x < y; break;
                  case Cmp::LE: r = x <= y; break;
                  case Cmp::GT: r = x > y; break;
                  case Cmp::GE: r = x >= y; break;
                }
                break;
              }
            }
            writePred(blk, tid, inst.aux, r);
            write_result = false;
            break;
          }
          case Op::SELP:
            result = readPred(blk, tid, inst.aux) ? a : b;
            break;
          case Op::NOP:
            write_result = false;
            break;
          default:
            GSP_PANIC("executeInstruction on unexpected opcode ",
                      opName(inst.op));
        }
        if (write_result)
            threadReg(blk, tid, inst.dst.value) = result;
    }
}

uint32_t
Core::readOperand(const Block &blk, unsigned tid, const Warp &warp,
                  const Operand &op) const
{
    switch (op.kind) {
      case OperandKind::None:
        return 0;
      case OperandKind::Imm:
        return op.value;
      case OperandKind::Reg:
        return blk.regs[static_cast<size_t>(tid) *
                            _prog->regs_per_thread +
                        op.value];
      case OperandKind::Special: {
        const Dim3 &ntid = _launch->block;
        const Dim3 &nctaid = _launch->grid;
        switch (static_cast<SpecialReg>(op.value)) {
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
    }
    return 0;
}

uint32_t &
Core::threadReg(Block &blk, unsigned tid, unsigned reg)
{
    GSP_ASSERT(reg < _prog->regs_per_thread, "register ", reg,
               " out of budget in ", _prog->name);
    return blk.regs[static_cast<size_t>(tid) * _prog->regs_per_thread +
                    reg];
}

bool
Core::readPred(const Block &blk, unsigned tid, unsigned p) const
{
    return (blk.preds[tid] >> p) & 1;
}

void
Core::writePred(Block &blk, unsigned tid, unsigned p, bool v)
{
    if (v)
        blk.preds[tid] |= static_cast<uint8_t>(1u << p);
    else
        blk.preds[tid] &= static_cast<uint8_t>(~(1u << p));
}

bool
Core::guardPasses(const Block &blk, unsigned tid,
                  const Instruction &inst) const
{
    if (inst.guard < 0)
        return true;
    bool p = readPred(blk, tid, static_cast<unsigned>(inst.guard));
    return inst.guard_negated ? !p : p;
}

unsigned
Core::rfAccessesPerOperand(uint64_t mask) const
{
    // A bank access reads a 128-bit row: four lanes' 32-bit operands.
    return std::max(1u, static_cast<unsigned>(divCeil(popCount(mask), 4)));
}

} // namespace perf
} // namespace gpusimpow
