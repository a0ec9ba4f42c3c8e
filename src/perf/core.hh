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
 * Timing is event-driven. A step that drains no completion, issues
 * nothing and fetches nothing is quiet: the core then records its
 * wake() cycle (the completion-heap head, the fetch_ready of every
 * fetch-eligible warp, and the next-free time of the unit every
 * otherwise-ready warp waits on) and the scoreboard lookups that step
 * made. Nothing but the per-cycle counters can change before wake(),
 * so until then a cycle is accounted in bulk (skipQuiet) instead of
 * re-scanning the warps — bit-identical to stepping it.
 */

#ifndef GPUSIMPOW_PERF_CORE_HH
#define GPUSIMPOW_PERF_CORE_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

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
     * Launch one thread block onto this core.
     * @param cta_x block x index
     * @param cta_y block y index
     */
    void launchBlock(unsigned cta_x, unsigned cta_y);

    /**
     * Advance one shader cycle: drain, issue and fetch, or only
     * account the cycle while the core is quiet (cycle < wake()).
     */
    void step(uint64_t cycle);

    /**
     * First cycle whose step can do more than bump the per-cycle
     * counters; 0 while the core is not quiet. Cleared by
     * launchBlock() and resetForKernel().
     */
    uint64_t wake() const { return _wake; }

    /**
     * Account n quiet cycles without stepping them: the counters a
     * quiet step bumps (cycles_resident, issue/fetch arbitrations,
     * the recorded scoreboard lookups) advance by n steps' worth.
     * Only legal for cycles before wake().
     */
    void skipQuiet(uint64_t n);

    /** Full steps since resetForKernel(). */
    uint64_t coreSteps() const { return _core_steps; }

    /** Cycles accounted by skipQuiet() since resetForKernel(). */
    uint64_t quietCycles() const { return _quiet_cycles; }

    /** True if any block is resident. */
    bool busy() const { return _resident_blocks > 0; }

    /** Blocks currently resident. */
    unsigned residentBlocks() const { return _resident_blocks; }

    /** Blocks finished since the last call (and reset the count). */
    unsigned collectFinishedBlocks();

    /** Activity counters (cumulative). */
    const CoreActivity &activity() const { return _act; }

    /** Reset between kernels: drop caches and counters. */
    void resetForKernel();

  private:
    /** Resident thread block context. */
    struct Block
    {
        bool valid = false;
        unsigned cta_x = 0;
        unsigned cta_y = 0;
        unsigned threads = 0;
        unsigned live_warps = 0;
        unsigned at_barrier = 0;
        std::vector<uint32_t> regs;    // threads x regs_per_thread
        std::vector<uint8_t> preds;    // threads x 1 (bit per pred)
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

    std::vector<Block> _blocks;
    std::vector<Warp> _warps;
    unsigned _resident_blocks = 0;
    unsigned _finished_blocks = 0;

    CacheModel _icache;
    std::unique_ptr<CacheModel> _l1d;   // null when not configured
    CacheModel _const_cache;

    // Pipeline next-free times (shader cycles).
    uint64_t _int_free = 0;
    uint64_t _fp_free = 0;
    uint64_t _sfu_free = 0;
    uint64_t _mem_free = 0;

    unsigned _fetch_rr = 0;   // round-robin pointers
    unsigned _issue_rr = 0;
    bool _greedy_issue;       // sched_policy == "gto"

    // Event-driven stepping (see the file comment).
    uint64_t _wake = 0;
    uint64_t _quiet_checks = 0;   // scoreboard lookups per quiet step
    uint64_t _stall_end = 0;      // earliest fetch_ready / unit free
                                  // time a warp waited on this step
    uint64_t _core_steps = 0;
    uint64_t _quiet_cycles = 0;

    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>> _completions;

    CoreActivity _act;

    // Scratch buffers reused across cycles (no hot-path allocation).
    std::vector<uint32_t> _addr_scratch;
    std::vector<uint32_t> _seg_scratch;

    // --- stage helpers ---
    bool drainCompletions(uint64_t cycle);
    bool fetchStage(uint64_t cycle);
    bool issueStage(uint64_t cycle);
    bool tryIssue(unsigned warp_idx, uint64_t cycle);
    void executeInstruction(Warp &warp, const Instruction &inst,
                            uint64_t exec_mask, uint64_t cycle);
    uint64_t executeMemory(Warp &warp, const Instruction &inst,
                           uint64_t exec_mask, uint64_t cycle);
    void executeBranch(Warp &warp, const Instruction &inst,
                       uint64_t exec_mask);
    void threadExit(Warp &warp, uint64_t exit_mask);
    void releaseBarrierIfReady(unsigned block_slot);
    void finishWarpIfDone(unsigned warp_idx);

    // --- functional helpers ---
    uint32_t readOperand(const Block &blk, unsigned tid,
                         const Warp &warp, const Operand &op) const;
    uint32_t &threadReg(Block &blk, unsigned tid, unsigned reg);
    bool readPred(const Block &blk, unsigned tid, unsigned p) const;
    void writePred(Block &blk, unsigned tid, unsigned p, bool v);
    bool guardPasses(const Block &blk, unsigned tid,
                     const Instruction &inst) const;

    unsigned rfAccessesPerOperand(uint64_t mask) const;
};

} // namespace perf
} // namespace gpusimpow

#endif // GPUSIMPOW_PERF_CORE_HH
