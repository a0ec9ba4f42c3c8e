/**
 * @file
 * GPU architecture configuration schema. One GpuConfig fully
 * describes a simulated GPU: chip organization (clusters, cores,
 * per-core structures of Fig. 2/3 of the paper), clocks, caches, NoC,
 * memory controllers, GDDR5 devices, PCIe, process technology, and
 * the empirically-derived power-calibration constants of the paper's
 * SectionIII-D.
 *
 * Configurations are supplied either programmatically (presets
 * gt240() / gtx580(), Table II of the paper) or through the simple
 * XML interface (loadXml()/toXml()).
 */

#ifndef GPUSIMPOW_CONFIG_GPU_CONFIG_HH
#define GPUSIMPOW_CONFIG_GPU_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gpusimpow {

namespace xml { class Node; }

struct GpuConfig;

/**
 * One DVFS operating point of the core power domain: a relative
 * supply scale and a relative clock scale against the configuration's
 * nominal V/f pair. The paper's Eq. 1 (P_dyn = alpha*C*V^2*f plus
 * short-circuit power) makes both natural sweep dimensions; the
 * identity point {1, 1} reproduces the nominal configuration
 * bit-exactly. The memory (GDDR5/MC PHY) and PCIe domains run from
 * separate supplies and are not scaled.
 */
struct OperatingPoint
{
    /** Core supply relative to the configured Vdd. */
    double vdd_scale = 1.0;
    /** Shader/uncore clock relative to the configured clocks. */
    double freq_scale = 1.0;

    /** True for the nominal {1, 1} point. */
    bool isIdentity() const
    {
        return vdd_scale == 1.0 && freq_scale == 1.0;
    }

    /** Compact tag for scenario labels, e.g. "v0.9f0.8". */
    std::string label() const;

    /**
     * Highest frequency scale the scaled supply can sustain, per the
     * alpha-power delay law fmax(V) ~ (V - Vt)^alpha / V normalized
     * to 1 at the nominal supply. The simulator will happily run
     * infeasible points (useful for what-if studies); governors and
     * Pareto tools use this to mask them.
     */
    double maxFreqScale() const;

    /** True when freq_scale is achievable at this vdd_scale. */
    bool isFeasible() const
    {
        return freq_scale <= maxFreqScale() * (1.0 + 1e-9);
    }

    /** fatal() unless both scales are within the supported range. */
    void validate() const;

    /** Scale the config's core V/f domain to this point. */
    void applyTo(GpuConfig &cfg) const;

    /**
     * Parse one point from "V[:F]" ("0.9" means V=F=0.9, "0.9:0.8"
     * sets them separately); fatal() on malformed or out-of-range
     * input.
     */
    static OperatingPoint parse(const std::string &spec);

    /** Parse a comma-separated list of points (empty entries dropped). */
    static std::vector<OperatingPoint> parseList(const std::string &csv);
};

/** Clock domains of the modeled card (paper Table II). */
struct ClockConfig
{
    /** Uncore (NoC, L2, MC front-end) clock in Hz. */
    double uncore_hz = 550e6;
    /** Ratio of shader (core) clock to uncore clock. */
    double shader_to_uncore = 2.47;
    /** GDDR command clock in Hz (data rate is 4x for GDDR5). */
    double dram_hz = 850e6;
    /** DVFS scale applied to the core clock domain (uncore+shader);
     *  the DRAM clock is a separate domain and stays unscaled. */
    double freq_scale = 1.0;

    /** Effective uncore clock at the current operating point, Hz. */
    double uncoreHz() const { return uncore_hz * freq_scale; }

    /** Shader-domain clock in Hz. */
    double shaderHz() const
    {
        return uncore_hz * freq_scale * shader_to_uncore;
    }
};

/** Per-core (streaming multiprocessor) structure sizes. */
struct CoreConfig
{
    /** Maximum resident threads per core. */
    unsigned max_threads = 768;
    /** Threads per warp (SIMT width). */
    unsigned warp_size = 32;
    /** Maximum concurrently resident thread blocks per core. */
    unsigned max_blocks = 8;
    /** Integer SIMD lanes per core. */
    unsigned int_lanes = 8;
    /** Floating-point SIMD lanes per core. */
    unsigned fp_lanes = 8;
    /** Special function units per core (sin/cos/rcp/sqrt...). */
    unsigned sfu_units = 2;
    /** True if dependences are tracked with a scoreboard [18];
     *  false models a blocking barrel-processing core. */
    bool scoreboard = false;
    /** Destination registers tracked per warp by the scoreboard. */
    unsigned scoreboard_entries = 4;
    /** Warp instructions issued per cycle (warp schedulers). */
    unsigned issue_width = 1;

    /** Architectural 32-bit registers in the register file. */
    unsigned regfile_regs = 16384;
    /** Single-ported register file banks [19]. */
    unsigned regfile_banks = 16;
    /** Operand collector units (two-ported, four-entry). */
    unsigned operand_collectors = 4;

    /** Instruction buffer slots per warp (associativity). */
    unsigned ibuffer_slots = 2;
    /** Instruction cache capacity in bytes. */
    unsigned icache_bytes = 8192;
    /** Instruction cache associativity. */
    unsigned icache_assoc = 4;

    /** Unified SMEM/L1 physical memory in bytes (paper III-C4). */
    unsigned smem_l1_bytes = 16384;
    /** Bytes of the unified memory configured as shared memory. */
    unsigned smem_bytes = 16384;
    /** Shared memory banks (conflict checker granularity [25]). */
    unsigned smem_banks = 16;
    /** L1D associativity (ignored when l1dBytes() == 0). */
    unsigned l1d_assoc = 4;
    /** L1D line size in bytes (also the coalescing granularity). */
    unsigned line_bytes = 128;

    /** Per-core constant cache capacity in bytes. */
    unsigned const_cache_bytes = 8192;
    /** Constant cache associativity. */
    unsigned const_cache_assoc = 4;

    /** Parallel sub-AGUs; each generates 8 addresses/cycle [22]. */
    unsigned sagu_count = 4;
    /** False bypasses the coalescer: one memory transaction per
     *  active lane (ablation knob, see DESIGN.md section5). */
    bool coalescing = true;
    /** Warp issue policy: "rr" (rotating priority, the modeled
     *  hardware [16]) or "gto" (greedy-then-oldest, ablation). */
    std::string sched_policy = "rr";
    /** Coalescer pending-request-table entries [24]. */
    unsigned coalescer_entries = 8;
    /** Coalescer input/output queue entries. */
    unsigned coalescer_queue = 8;
    /** Outstanding global-memory transactions per core (MSHR-like). */
    unsigned max_pending_mem = 64;

    /** INT pipeline latency, shader cycles. */
    unsigned int_latency = 10;
    /** FP pipeline latency, shader cycles. */
    unsigned fp_latency = 10;
    /** SFU latency, shader cycles. */
    unsigned sfu_latency = 20;
    /** Shared-memory access latency, shader cycles. */
    unsigned smem_latency = 24;
    /** L1 / constant-cache hit latency, shader cycles. */
    unsigned l1_latency = 30;

    /** Maximum in-flight warps per core. */
    unsigned maxWarps() const { return max_threads / warp_size; }
    /** L1 data portion of the unified SMEM/L1 memory. */
    unsigned lOneDBytes() const
    {
        return smem_l1_bytes > smem_bytes ? smem_l1_bytes - smem_bytes : 0;
    }
};

/** Shared L2 cache (absent on Tesla-class parts, Table II). */
struct L2Config
{
    /** True if the chip has a unified L2. */
    bool present = false;
    /** Total capacity in bytes across all slices. */
    unsigned total_bytes = 0;
    /** Number of slices (one per memory channel). */
    unsigned slices = 1;
    /** Associativity. */
    unsigned assoc = 8;
    /** Line size in bytes. */
    unsigned line_bytes = 128;
    /** Access latency in uncore cycles. */
    unsigned latency = 40;
};

/** Network-on-chip connecting cores to L2/MC (crossbar model). */
struct NocConfig
{
    /** Link width in bits. */
    unsigned link_bits = 256;
    /** Per-hop latency in uncore cycles. */
    unsigned latency = 8;
};

/** GDDR5 device and channel configuration. */
struct DramConfig
{
    /** Independent memory channels (MC instances). */
    unsigned channels = 4;
    /** Data bus width per channel in bits. */
    unsigned channel_bits = 32;
    /** DRAM devices (chips) on the card. */
    unsigned chips = 8;
    /** Banks per chip. */
    unsigned banks = 16;
    /** Row (page) size per bank in bytes. */
    unsigned row_bytes = 2048;
    /** Burst length in data-clock edges (GDDR5: 8). */
    unsigned burst_length = 8;
    /** Access latency added to an L2/MC miss, uncore cycles. */
    unsigned latency = 100;
    /** tRC in DRAM command-clock cycles (row cycle time). */
    unsigned t_rc = 40;

    /** Supply voltage of the DRAM devices. */
    double vdd = 1.5;
    /** Background (standby, banks precharged) current per chip, A. */
    double idd2n = 0.140;
    /** Active-standby current per chip (row open), A. */
    double idd3n = 0.175;
    /** Activate/precharge current pulse per chip, A. */
    double idd0 = 0.210;
    /** Read burst incremental current per chip, A. */
    double idd4r = 0.500;
    /** Write burst incremental current per chip, A. */
    double idd4w = 0.460;
    /** Refresh burst current per chip, A. */
    double idd5 = 0.300;
    /** Refresh interval tREFI in seconds. */
    double t_refi = 3.9e-6;
    /** Refresh duration tRFC in seconds. */
    double t_rfc = 90e-9;
    /** Output-driver / ODT termination energy per bit, J. */
    double term_pj_per_bit = 5.5;
};

/** PCI Express interface controller. */
struct PcieConfig
{
    /** Lane count. */
    unsigned lanes = 16;
    /** Per-lane line rate, bit/s (Gen2: 5 GT/s). */
    double gbps_per_lane = 5.0;
};

/** Process-technology selection (feeds the tech layer). */
struct TechConfig
{
    /** Feature size in nanometers (e.g. 40). */
    unsigned node_nm = 40;
    /** Core supply voltage (<= 0 selects the node-nominal supply). */
    double vdd = 1.05;
    /** DVFS scale applied to the resolved core supply. */
    double vdd_scale = 1.0;
    /** Nominal junction temperature in Kelvin used for leakage when
     *  the closed-loop thermal solve is disabled. */
    double temperature = 350.0;
};

/**
 * Closed-loop thermal subsystem configuration (src/thermal/): the RC
 * network's cooling solution, the ambient boundary, and the DVFS
 * thermal-throttling policy. Disabled by default, which keeps the
 * junction temperature at the static TechConfig constant and every
 * golden anchor bit-exact.
 */
struct ThermalConfig
{
    /** Run the thermal solvers (temperature becomes an output). */
    bool enabled = false;
    /** Clamp freq_scale when a block exceeds t_limit_k. */
    bool throttle = false;
    /** Cooling preset label ("stock", "constrained", "liquid"). */
    std::string cooling = "stock";
    /** Ambient (case air) temperature at the card inlet, K. */
    double ambient_k = 318.0;
    /** Junction temperature limit for the throttling policy, K
     *  (85 C, a typical GPU throttle point). */
    double t_limit_k = 358.0;
    /** Heatsink-to-ambient resistance, K/W; <= 0 auto-sizes the
     *  cooler to the die area (stock law x cooling_scale). */
    double r_heatsink_k_per_w = 0.0;
    /** Multiplier on the auto-sized heatsink resistance; the cooling
     *  preset's knob (cheap cooler > 1, premium < 1). */
    double cooling_scale = 1.0;
    /** Heatsink (fins + heatpipes) heat capacity, J/K. */
    double c_heatsink_j_per_k = 150.0;
    /** Area-specific junction-to-heatsink resistance, K*mm^2/W. */
    double r_die_k_mm2_per_w = 8.0;
    /** Die + package heat capacity per area, J/(K*mm^2). */
    double c_die_j_per_k_mm2 = 2e-3;
    /** Lateral spreading resistance between die neighbors, K/W. */
    double r_lateral_k_per_w = 4.0;
    /** DRAM-devices-to-ambient resistance, K/W (board path). */
    double r_dram_k_per_w = 5.0;
    /** DRAM devices + board copper heat capacity, J/K. */
    double c_dram_j_per_k = 3.0;

    /**
     * Apply a named cooling preset (sets cooling, cooling_scale, and
     * the heatsink capacity) and enable the subsystem; fatal() on an
     * unknown name.
     */
    void applyCooling(const std::string &name);

    /** Names applyCooling() accepts. */
    static std::vector<std::string> coolingPresets();
};

/**
 * Empirical power-calibration constants (paper SectionIII-D):
 * energies per executed instruction measured with the differential
 * lane-enabling microbenchmark, plus the "base power" values for
 * global scheduler and core clusters derived from Fig. 4, and the
 * undifferentiated-core residual of Table V.
 */
struct PowerCalibConfig
{
    /** Energy per integer instruction per lane, pJ (measured ~40). */
    double int_op_pj = 40.0;
    /** Energy per FP instruction per lane, pJ (measured ~75). */
    double fp_op_pj = 75.0;
    /** Energy per SFU operation, pJ (Caro et al. [21], scaled). */
    double sfu_op_pj = 400.0;
    /** Energy per AGU-generated address, pJ. */
    double agu_addr_pj = 6.0;
    /** Global work-distribution engine power when active, W. */
    double global_sched_w = 3.34;
    /** Additional power when a cluster has >=1 active core, W. */
    double cluster_base_w = 0.692;
    /** Per-core dynamic base power while executing, W. */
    double core_base_dyn_w = 0.199;
    /** Per-core undifferentiated static power, W (Table V). */
    double undiff_core_static_w = 0.886;
    /** Per-core undifferentiated area (ROPs, video, texture), mm^2. */
    double undiff_core_area_mm2 = 4.5;
    /** Fraction of dynamic power added as short-circuit power. */
    double short_circuit_frac = 0.10;
};

/** Complete description of one simulated GPU card. */
struct GpuConfig
{
    /** Marketing name of the card (e.g. "GeForce GT240"). */
    std::string name = "GeForce GT240";
    /** Chip codename (e.g. "GT215"). */
    std::string chip = "GT215";

    /** Core clusters (TPC/GPC) on the chip. */
    unsigned clusters = 4;
    /** SIMT cores per cluster. */
    unsigned cores_per_cluster = 3;

    ClockConfig clocks;
    CoreConfig core;
    L2Config l2;
    NocConfig noc;
    DramConfig dram;
    PcieConfig pcie;
    TechConfig tech;
    ThermalConfig thermal;
    PowerCalibConfig calib;

    /** Total SIMT cores on the chip. */
    unsigned numCores() const { return clusters * cores_per_cluster; }

    /** The DVFS operating point currently applied to this config. */
    OperatingPoint operatingPoint() const
    {
        return {tech.vdd_scale, clocks.freq_scale};
    }

    /** Serialize to the XML configuration format. */
    std::string toXml() const;

    /** Parse a configuration from XML text; fatal() on schema errors. */
    static GpuConfig fromXml(const std::string &text);

    /** Parse a configuration from an XML file. */
    static GpuConfig fromXmlFile(const std::string &path);

    /** Preset: NVIDIA GeForce GT240 (GT215, Tesla-class), Table II. */
    static GpuConfig gt240();

    /** Preset: NVIDIA GeForce GTX580 (GF110, Fermi-class), Table II. */
    static GpuConfig gtx580();
};

} // namespace gpusimpow

#endif // GPUSIMPOW_CONFIG_GPU_CONFIG_HH
