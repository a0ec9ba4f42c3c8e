/**
 * @file
 * One SIMT core (streaming multiprocessor): the warp control unit of
 * Fig. 2 (warp status table, round-robin fetch and issue schedulers,
 * I-cache, instruction buffer, scoreboard, per-warp reconvergence
 * stacks), the banked register file with operand collectors, the
 * INT/FP/SFU SIMD pipelines, and the load/store unit of Fig. 3
 * (AGU, coalescer, SMEM/L1 with bank-conflict serialization,
 * constant cache).
 *
 * Execution is functional-at-issue: when a warp instruction issues,
 * its lanes compute real values, so addresses and branch outcomes
 * are exact; timing is modeled with pipeline next-free times and a
 * completion event heap.
 *
 * Timing is event-driven, and every full step acts: it drains a
 * completion, issues or fetches. At the end of each step the core
 * computes wake(), the first cycle at which a step can act: the
 * completion-heap head, the fetch_ready of every fetch-eligible warp,
 * and the next-free time of every unit that an issue-eligible warp
 * not stalled on the scoreboard waits on (a stalled warp waits for a
 * completion, which the heap head already covers). Nothing else can
 * change the core's state, so Gpu::run does not visit the core before
 * wake(), and each cycle in between is quiet: it only bumps the
 * per-cycle counters. The core accounts those quiet cycles lazily: it
 * keeps the first cycle not yet accounted, and accountTo() adds every
 * owed cycle in one go, when the core is next stepped, receives a
 * block, or a sample snapshot is due. That is bit-identical to
 * stepping each quiet cycle.
 *
 * The schedulers scan warp masks, not warps. Bit w of the issue
 * (fetch) mask is set exactly when warp w passes the issue (fetch)
 * scheduler's static checks; refreshWarp() restores that wherever a
 * checked field changes. The issue mask is further split by the unit
 * each warp's next instruction needs, and the stall mask marks the
 * issue-eligible warps whose scoreboard lookup fails. A step tries
 * only warps that are neither stalled nor waiting on a busy unit, so
 * every try issues, and accounts the scoreboard lookups of the others
 * in bulk, in the same round-robin order and with the same counts as
 * a scan over every warp. Instructions are decoded once per
 * kernel and execute over the set bits of the lane mask only, on a
 * register file laid out warp x register x lane; predicates are one
 * lane mask per warp, so a guard is an AND.
 */

#ifndef GPUSIMPOW_PERF_CORE_HH
#define GPUSIMPOW_PERF_CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/bitutil.hh"
#include "config/gpu_config.hh"
#include "perf/activity.hh"
#include "perf/cache.hh"
#include "perf/kernel.hh"
#include "perf/memory.hh"
#include "perf/memsys.hh"

namespace gpusimpow {
namespace perf {

/** One token of the per-warp reconvergence stack [17]. */
struct StackEntry
{
    /** PC where this mask reconverges with its sibling. */
    uint32_t reconv_pc;
    /** Current execution PC for this mask. */
    uint32_t exec_pc;
    /** Threads (within the warp) executing this path. */
    uint64_t mask;
};

/** A SIMT core. Owned and stepped by Gpu. */
class Core
{
  public:
    /**
     * @param cfg full GPU configuration
     * @param core_id index of this core on the chip
     * @param memsys shared chip-level memory system
     * @param gmem functional global memory
     * @param cmem functional constant memory
     */
    Core(const GpuConfig &cfg, unsigned core_id, MemorySystem &memsys,
         GlobalMemory &gmem, ConstantMemory &cmem);

    /** Bind the kernel for subsequent block launches. */
    void setKernel(const KernelProgram *prog, const LaunchConfig *launch);

    /** True if a further block fits the core's resources. */
    bool canAcceptBlock() const;

    /**
     * Launch one thread block onto this core at a cycle. An idle core
     * starts accounting there; a busy one is first settled to it.
     * @param cta_x block x index
     * @param cta_y block y index
     * @param cycle the dispatch cycle
     */
    void launchBlock(unsigned cta_x, unsigned cta_y, uint64_t cycle);

    /**
     * Step one shader cycle of a busy core: settle the quiet cycles
     * owed before it, then drain, issue and fetch. Gpu::run calls it
     * only at cycles >= wake(), where the step acts.
     */
    void step(uint64_t cycle)
    {
        accountTo(cycle);
        fullStep(cycle);
        _accounted = cycle + 1;
    }

    /**
     * First cycle at which a step can act (see the file comment); 0
     * after launchBlock() and resetForKernel().
     */
    uint64_t wake() const { return _wake; }

    /**
     * Account every cycle of a busy core from the first unaccounted
     * one up to (not including) a cycle, all of them quiet: the
     * counters a quiet step bumps (cycles_resident, issue/fetch
     * arbitrations and, with a scoreboard, one lookup per
     * issue-eligible warp) advance by that many steps' worth. The
     * only path by which quiet cycles are counted; only legal up to
     * wake().
     */
    void accountTo(uint64_t cycle)
    {
        const uint64_t n = cycle - _accounted;
        if (n == 0)
            return;
        _act.cycles_resident += n;
        _act.issue_arbitrations += n;
        _act.fetch_arbitrations += n;
        if (_cfg.core.scoreboard)
            _act.scoreboard_checks += n * popCount(_issue_mask);
        _quiet_cycles += n;
        _accounted = cycle;
    }

    /** Full steps since resetForKernel(). */
    uint64_t coreSteps() const { return _core_steps; }

    /** Cycles accounted by accountTo() since resetForKernel(). */
    uint64_t quietCycles() const { return _quiet_cycles; }

    /** True if any block is resident. */
    bool busy() const { return _resident_blocks > 0; }

    /** Blocks currently resident. */
    unsigned residentBlocks() const { return _resident_blocks; }

    /** Blocks finished since the last call (and reset the count). */
    unsigned collectFinishedBlocks()
    {
        unsigned n = _finished_blocks;
        _finished_blocks = 0;
        return n;
    }

    /** Activity counters (cumulative). */
    const CoreActivity &activity() const { return _act; }

    /** Reset between kernels: drop caches and counters. */
    void resetForKernel();

  private:
    /** Predicate registers per thread (KernelBuilder's p0..p3). */
    static constexpr unsigned num_preds = 4;

    static constexpr unsigned num_units =
        static_cast<unsigned>(UnitClass::Ctrl) + 1;
    /** Warp::unit_slot of a warp in no _unit_mask. */
    static constexpr uint8_t no_unit = num_units;

    /** Resident thread block context. */
    struct Block
    {
        bool valid = false;
        unsigned cta_x = 0;
        unsigned cta_y = 0;
        unsigned threads = 0;
        unsigned live_warps = 0;
        unsigned at_barrier = 0;
        // Register file, warp x register x lane: a warp's lanes of
        // one register are contiguous.
        std::vector<uint32_t> regs;
        // Per warp of the block, the lane mask of each predicate.
        std::vector<std::array<uint64_t, num_preds>> preds;
        std::unique_ptr<SharedMemory> smem;
    };

    /** Warp execution context (one WST entry). */
    struct Warp
    {
        bool valid = false;
        unsigned block_slot = 0;
        unsigned warp_in_block = 0;
        unsigned base_thread = 0;      // first thread id within block
        std::vector<StackEntry> stack;
        unsigned ibuffer = 0;          // decoded instructions ready
        uint64_t fetch_ready = 0;      // icache-miss stall
        bool inflight = false;         // barrel mode: op outstanding
        bool waiting_mem = false;
        bool at_barrier = false;
        uint64_t pending_reg_mask = 0; // scoreboard: regs 0..63
        unsigned pending_count = 0;    // scoreboard entries used
        uint8_t unit_slot = no_unit;   // the _unit_mask holding it
    };

    /** Completion event (writeback). */
    struct Completion
    {
        uint64_t when;
        uint32_t warp;
        int16_t dst_reg;           // -1: none
        uint8_t kind;              // 0 alu, 1 mem
        bool operator>(const Completion &o) const { return when > o.when; }
    };

    const GpuConfig &_cfg;
    unsigned _core_id;
    MemorySystem &_memsys;
    GlobalMemory &_gmem;
    ConstantMemory &_cmem;

    const KernelProgram *_prog = nullptr;
    const LaunchConfig *_launch = nullptr;
    unsigned _warps_per_block = 0;

    /** What the schedulers read of an instruction every cycle,
     *  decoded once per kernel. */
    struct Decoded
    {
        uint64_t use_mask;      // scoreboard: registers read or written
        UnitClass unit;
        uint8_t reg_sources;
        bool writes_reg;        // takes a scoreboard entry
    };
    std::vector<Decoded> _decoded;   // by pc

    std::vector<Block> _blocks;
    std::vector<Warp> _warps;
    unsigned _resident_blocks = 0;
    // Threads of the resident blocks and their still-valid warps:
    // what canAcceptBlock() checks against the core's limits.
    unsigned _resident_threads = 0;
    unsigned _resident_warps = 0;
    unsigned _finished_blocks = 0;

    CacheModel _icache;
    std::unique_ptr<CacheModel> _l1d;   // null when not configured
    CacheModel _const_cache;

    // Pipeline next-free times (shader cycles) by UnitClass; Ctrl has
    // no pipeline and stays 0.
    std::array<uint64_t, num_units> _unit_free{};

    // Warp masks, bit w for _warps[w] (see the file comment).
    uint64_t _issue_mask = 0;   // issueStage's static checks pass
    uint64_t _fetch_mask = 0;   // fetchStage's static checks pass
    // _issue_mask split by the unit of each warp's next instruction.
    std::array<uint64_t, num_units> _unit_mask{};
    // The _issue_mask warps whose scoreboard lookup fails.
    uint64_t _stalled_mask = 0;

    unsigned _fetch_rr = 0;   // round-robin pointers
    unsigned _issue_rr = 0;
    bool _greedy_issue;       // sched_policy == "gto"

    // Event-driven stepping (see the file comment).
    uint64_t _wake = 0;
    uint64_t _accounted = 0;      // first cycle not yet accounted
    uint64_t _core_steps = 0;
    uint64_t _quiet_cycles = 0;

    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>> _completions;

    CoreActivity _act;

    // Scratch buffers reused across cycles (no hot-path allocation):
    // the lanes' addresses, and the sorted work buffer of the
    // coalescer, bank-conflict and constant-address checks.
    std::vector<uint32_t> _addr_scratch;
    std::vector<uint32_t> _seg_scratch;
    // Per-lane values of special-register operands (src_a, b, c).
    std::array<std::array<uint32_t, 64>, 3> _special_scratch;

    /** One source operand's per-lane values: value(lane) is
     *  p[lane * stride] (stride 0 for immediates). */
    struct LaneSource
    {
        const uint32_t *p;
        size_t stride;
        uint32_t operator()(unsigned lane) const { return p[lane * stride]; }
    };

    // --- stage helpers ---
    void fullStep(uint64_t cycle);
    uint64_t nextEvent(uint64_t cycle) const;
    void refreshWarp(unsigned warp_idx);
    void drainCompletions(uint64_t cycle);
    void fetchStage(uint64_t cycle);
    void issueStage(uint64_t cycle);
    void issueWarp(unsigned warp_idx, uint64_t cycle);
    void executeInstruction(Warp &warp, const Instruction &inst,
                            uint64_t exec_mask);
    uint64_t executeMemory(Warp &warp, const Instruction &inst,
                           uint64_t exec_mask, uint64_t cycle);
    void executeBranch(Warp &warp, const Instruction &inst,
                       uint64_t exec_mask);
    void threadExit(Warp &warp, uint64_t exit_mask);
    void releaseBarrierIfReady(unsigned block_slot);
    void finishWarpIfDone(unsigned warp_idx);

    // --- functional helpers ---
    LaneSource laneSource(const Block &blk, const Warp &warp,
                          const Operand &op, unsigned slot,
                          uint64_t exec_mask);
    uint32_t readSpecial(const Block &blk, unsigned tid, const Warp &warp,
                         SpecialReg reg) const;
    uint32_t *laneDest(Block &blk, const Warp &warp, unsigned reg) const;
    const uint32_t *regRow(const Block &blk, const Warp &warp,
                           unsigned reg) const;

    unsigned rfAccessesPerOperand(uint64_t mask) const;
};

} // namespace perf
} // namespace gpusimpow

#endif // GPUSIMPOW_PERF_CORE_HH
