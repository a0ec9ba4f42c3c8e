/**
 * @file
 * The gpusimpow command-line tool — the user-facing entry point of
 * the framework, mirroring how the paper's released simulator is
 * driven: a GPU configuration (XML file or preset) plus a workload,
 * producing area/power reports, optional power-over-time traces, and
 * raw activity statistics.
 *
 * Usage:
 *   gpusimpow [options]
 *     --gpu gt240|gtx580        preset configuration (default gt240)
 *     --config FILE             XML configuration (overrides --gpu)
 *     --workload NAME           Table I benchmark (default vectoradd)
 *     --scale N                 problem-size multiplier (default 1)
 *     --vdd-scale X             DVFS supply scale (single run)
 *     --freq-scale X            DVFS core-clock scale (single run)
 *     --trace FILE.csv          write a sampled power waveform (plus
 *                               the per-block temperature waveform
 *                               when --cooling is active)
 *     --sample-us N             trace sampling period (default 20)
 *     --cooling NAME            enable the closed-loop thermal
 *                               subsystem with a cooling preset
 *                               (stock|constrained|liquid); in
 *                               --sweep mode a comma-separated list
 *                               becomes a sweep axis
 *     --ambient K               ambient (case air) temperature
 *                               (default 318; requires --cooling)
 *     --t-limit K               junction temperature limit (default
 *                               358; requires --cooling)
 *     --throttle                clamp the core clock when a block
 *                               exceeds --t-limit (requires --cooling)
 *     --stats                   dump raw activity counters
 *     --static-only             print area/static report and exit
 *     --dump-config             print the effective XML and exit
 *     --list                    list available workloads and exit
 *     --sweep                   batch mode: run the cartesian product
 *                               of --gpu presets x --workload names
 *                               x --nodes x --vf on the engine
 *     --jobs N                  sweep worker threads (default: all
 *                               hardware threads)
 *     --nodes N,M               process nodes (nm) swept in --sweep
 *     --vf V[:F],...            DVFS operating points swept in
 *                               --sweep ("0.9" means V=F=0.9,
 *                               "0.9:0.8" sets them separately)
 *     --progress                live sweep progress on stderr
 *                               (done/total, replay-vs-capture
 *                               split, ETA; throttled to >= 100 ms)
 *     --trace-out FILE          record engine/simulator spans and
 *                               write them as Chrome trace_event
 *                               JSON (load in Perfetto); see
 *                               docs/observability.md
 *     --metrics-json FILE       dump the observability metrics as
 *                               JSON (with the sweep's telemetry
 *                               summary in --sweep mode)
 *     --store DIR               persistent snapshot store for --sweep:
 *                               captures are written to DIR and a
 *                               repeat sweep replays from it with
 *                               zero timing captures
 *
 * In --sweep mode --gpu and --workload accept comma-separated lists,
 * and --workload also accepts "all" (every Table I benchmark). A
 * single run is the one scenario of the same request, so it takes
 * one name each and gets the same validation as a sweep.
 *
 * Service subcommands (docs/sweep_service.md):
 *   gpusimpow serve --store DIR --port N [--jobs N] [--trace-out F]
 *     long-running sweep server: clients submit jobs, identical
 *     scenarios across concurrent jobs are captured once, repeat
 *     queries are answered from the store in O(lookup)
 *   gpusimpow submit [--host H] --port N [sweep axis flags...]
 *     run one sweep job on a server; streams per-scenario progress
 *     to stderr and prints the server's result table on stdout
 *     (byte-identical to a local --sweep of the same axes)
 *   gpusimpow stop-server [--host H] --port N
 *     ask a server to drain in-flight jobs and exit
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/engine.hh"
#include "sim/request.hh"
#include "sim/session.hh"
#include "sim/simulator.hh"
#include "store/store.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

namespace {

/** Top-level mode: the classic tool, or a service subcommand. */
enum class Mode { tool, serve, submit, stop_server };

struct Options
{
    Mode mode = Mode::tool;
    std::string store_dir;
    std::string host = "127.0.0.1";
    unsigned port = 0;
    bool port_set = false;
    std::string gpu = "gt240";
    std::string config_file;
    std::string workload = "vectoradd";
    unsigned scale = 1;
    double vdd_scale = 1.0;
    double freq_scale = 1.0;
    bool vdd_scale_set = false;
    bool freq_scale_set = false;
    std::string trace_file;
    double sample_us = 20.0;
    bool sample_us_set = false;
    std::string cooling;
    double ambient_k = 0.0;
    bool ambient_set = false;
    double t_limit_k = 0.0;
    bool t_limit_set = false;
    bool throttle = false;
    bool stats = false;
    bool static_only = false;
    bool dump_config = false;
    bool list = false;
    bool sweep = false;
    unsigned jobs = 0;
    std::string nodes;
    std::string vf;
    bool progress = false;
    std::string trace_out_file;
    std::string metrics_json_file;
};

void
usage()
{
    std::printf(
        "usage: gpusimpow [--gpu gt240|gtx580] [--config FILE]\n"
        "                 [--workload NAME] [--scale N]\n"
        "                 [--vdd-scale X] [--freq-scale X]\n"
        "                 [--trace FILE.csv] [--sample-us N]\n"
        "                 [--cooling stock|constrained|liquid]\n"
        "                 [--ambient K] [--t-limit K] [--throttle]\n"
        "                 [--stats] [--static-only] [--dump-config]\n"
        "                 [--list]\n"
        "                 [--sweep] [--jobs N]\n"
        "                 [--nodes N,M] [--vf V[:F],...]\n"
        "                 [--progress] [--trace-out FILE]\n"
        "                 [--metrics-json FILE] [--store DIR]\n"
        "       gpusimpow serve --store DIR --port N [--jobs N]\n"
        "       gpusimpow submit [--host H] --port N [sweep flags]\n"
        "       gpusimpow stop-server [--host H] --port N\n");
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    int first_flag = 1;
    if (argc > 1 && argv[1][0] != '-') {
        std::string sub = argv[1];
        if (sub == "serve")
            opt.mode = Mode::serve;
        else if (sub == "submit")
            opt.mode = Mode::submit;
        else if (sub == "stop-server")
            opt.mode = Mode::stop_server;
        else {
            usage();
            fatal("unknown subcommand '", sub, "'");
        }
        first_flag = 2;
    }
    for (int i = first_flag; i < argc; ++i) {
        std::string arg = argv[i];
        auto need_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return argv[++i];
        };
        if (arg == "--gpu") {
            opt.gpu = need_value("--gpu");
        } else if (arg == "--config") {
            opt.config_file = need_value("--config");
        } else if (arg == "--workload") {
            opt.workload = need_value("--workload");
        } else if (arg == "--scale") {
            // Reject negatives outright: a silent unsigned cast would
            // turn "--scale -1" into a ~4.3-billion-x problem size.
            opt.scale = parseUnsigned(need_value("--scale"), "--scale",
                                      1, 1u << 20);
        } else if (arg == "--vdd-scale") {
            opt.vdd_scale = parseDouble(need_value("--vdd-scale"),
                                        "--vdd-scale");
            opt.vdd_scale_set = true;
        } else if (arg == "--freq-scale") {
            opt.freq_scale = parseDouble(need_value("--freq-scale"),
                                         "--freq-scale");
            opt.freq_scale_set = true;
        } else if (arg == "--trace") {
            opt.trace_file = need_value("--trace");
        } else if (arg == "--sample-us") {
            opt.sample_us =
                parseDouble(need_value("--sample-us"), "--sample-us");
            opt.sample_us_set = true;
            if (opt.sample_us <= 0.0)
                fatal("--sample-us must be > 0 (got ", opt.sample_us,
                      "); a non-positive period would record an empty "
                      "waveform");
        } else if (arg == "--cooling") {
            opt.cooling = need_value("--cooling");
        } else if (arg == "--ambient") {
            opt.ambient_k =
                parseDouble(need_value("--ambient"), "--ambient");
            opt.ambient_set = true;
        } else if (arg == "--t-limit") {
            opt.t_limit_k =
                parseDouble(need_value("--t-limit"), "--t-limit");
            opt.t_limit_set = true;
        } else if (arg == "--throttle") {
            opt.throttle = true;
        } else if (arg == "--stats") {
            opt.stats = true;
        } else if (arg == "--static-only") {
            opt.static_only = true;
        } else if (arg == "--dump-config") {
            opt.dump_config = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--sweep") {
            opt.sweep = true;
        } else if (arg == "--jobs") {
            // 0 means "all hardware threads"; negatives must not wrap
            // into billions of workers.
            opt.jobs = parseUnsigned(need_value("--jobs"), "--jobs", 0,
                                     sim::EngineOptions::max_jobs);
        } else if (arg == "--store") {
            opt.store_dir = need_value("--store");
        } else if (arg == "--port") {
            opt.port = parseUnsigned(need_value("--port"), "--port", 1,
                                     65535);
            opt.port_set = true;
        } else if (arg == "--host") {
            opt.host = need_value("--host");
        } else if (arg == "--nodes") {
            opt.nodes = need_value("--nodes");
        } else if (arg == "--vf") {
            opt.vf = need_value("--vf");
        } else if (arg == "--progress") {
            opt.progress = true;
        } else if (arg == "--trace-out") {
            opt.trace_out_file = need_value("--trace-out");
        } else if (arg == "--metrics-json") {
            opt.metrics_json_file = need_value("--metrics-json");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            fatal("unknown option '", arg, "'");
        }
    }
    return opt;
}

/** Open an observability output file up front: a mistyped path must
 *  fail before the run, not after the results are gone. */
std::ofstream
openObsFile(const std::string &path, const char *flag)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open ", flag, " file '", path, "'");
    return out;
}

/**
 * Owns the --trace-out/--metrics-json outputs: opens both files (and
 * enables span recording) on construction, writes them on scope
 * exit — which covers every return path, including fatal() unwinds.
 * Sweep mode substitutes the richer SweepTelemetry document for the
 * plain registry dump via setMetricsDocument().
 */
class ObsWriter
{
  public:
    explicit ObsWriter(const Options &opt)
    {
        if (!opt.trace_out_file.empty()) {
            _trace = openObsFile(opt.trace_out_file, "--trace-out");
            obs::Tracer::instance().setEnabled(true);
        }
        if (!opt.metrics_json_file.empty())
            _metrics =
                openObsFile(opt.metrics_json_file, "--metrics-json");
    }

    ~ObsWriter()
    {
        if (_trace.is_open())
            obs::Tracer::instance().writeChromeTrace(_trace);
        if (_metrics.is_open())
            _metrics << (_metrics_doc.empty()
                             ? obs::Registry::instance()
                                   .snapshot()
                                   .toJson()
                             : _metrics_doc);
    }

    ObsWriter(const ObsWriter &) = delete;
    ObsWriter &operator=(const ObsWriter &) = delete;

    void setMetricsDocument(std::string doc)
    {
        _metrics_doc = std::move(doc);
    }

  private:
    std::ofstream _trace;
    std::ofstream _metrics;
    std::string _metrics_doc;
};

/**
 * --progress: a live status line on stderr, throttled to one update
 * per 100 ms (plus the final one). The replay-vs-capture split reads
 * the observability counters against a baseline taken at
 * construction, so a previous run in the same process cannot leak
 * into the display. The engine serializes progress callbacks, so the
 * mutable state needs no lock.
 */
class ProgressPrinter
{
  public:
    ProgressPrinter()
        : _c_replayed(obs::Registry::instance().counter(
              "engine/scenarios_replayed")),
          _c_captured(obs::Registry::instance().counter(
              "engine/scenarios_captured")),
          _base_replayed(_c_replayed.value()),
          _base_captured(_c_captured.value()),
          _t0_ns(obs::monotonicNs())
    {}

    void operator()(const sim::ScenarioResult &, std::size_t done,
                    std::size_t total)
    {
        uint64_t now = obs::monotonicNs();
        if (done < total && now - _last_ns < 100000000ull)
            return;
        _last_ns = now;
        double elapsed_s =
            static_cast<double>(now - _t0_ns) * 1e-9;
        double eta_s =
            done ? elapsed_s *
                       static_cast<double>(total - done) /
                       static_cast<double>(done)
                 : 0.0;
        std::fprintf(
            stderr,
            "progress: %zu/%zu (%llu replayed, %llu captured), "
            "%.1f s elapsed, ETA %.1f s\n",
            done, total,
            static_cast<unsigned long long>(_c_replayed.value() -
                                            _base_replayed),
            static_cast<unsigned long long>(_c_captured.value() -
                                            _base_captured),
            elapsed_s, eta_s);
    }

  private:
    obs::Counter &_c_replayed;
    obs::Counter &_c_captured;
    uint64_t _base_replayed;
    uint64_t _base_captured;
    uint64_t _t0_ns;
    uint64_t _last_ns = 0;
};

/** Read a file into a string; fatal() when unreadable. */
std::string
readWholeFile(const std::string &path, const char *flag)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open ", flag, " file '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Fold the sweep-axis flags into a SweepRequest — the one
 * flag-to-spec translation, shared verbatim by a single run,
 * `--sweep` and the `submit` client path (which ships the request
 * over the wire instead of expanding it locally).
 */
sim::SweepRequest
requestFromOptions(const Options &opt)
{
    sim::SweepRequest req;
    req.withGpus(opt.gpu)
        .withWorkloads(opt.workload)
        .withNodes(opt.nodes)
        .withVf(opt.vf)
        .withCoolings(opt.cooling)
        .withScale(opt.scale);
    // Ship file contents, not paths: a submit's server never sees
    // the client filesystem.
    if (!opt.config_file.empty())
        req.withConfigXml(readWholeFile(opt.config_file, "--config"));
    if (opt.ambient_set)
        req.withAmbient(opt.ambient_k);
    if (opt.t_limit_set)
        req.withTLimit(opt.t_limit_k);
    if (opt.throttle)
        req.withThrottle(true);
    return req;
}

/**
 * The single run's one scenario: the request of its flags expanded
 * by SweepRequest::toSpec() (every config and thermal check a sweep
 * gets), then the --vdd-scale/--freq-scale operating point.
 */
sim::Scenario
singleScenario(const Options &opt)
{
    const sim::SweepSpec spec = requestFromOptions(opt).toSpec();
    // A list would silently run only its first entry.
    auto one = [](std::size_t n, const char *flag,
                  const std::string &value) {
        if (n > 1)
            fatal(flag, " takes one name outside --sweep (got '", value,
                  "')");
    };
    one(spec.configs.size(), "--gpu", opt.gpu);
    one(spec.workloads.size(), "--workload", opt.workload);
    one(spec.coolings.size(), "--cooling", opt.cooling);
    sim::Scenario scenario = spec.expand().front();
    if (opt.vdd_scale_set || opt.freq_scale_set) {
        OperatingPoint op{opt.vdd_scale, opt.freq_scale};
        op.applyTo(scenario.config); // validates the ranges
        scenario.op = op;
    }
    return scenario;
}

/** The sweep/submit modes share one set of flag incompatibilities. */
void
checkSweepFlagDeps(const Options &opt, const char *mode)
{
    // Per-kernel outputs make no sense across a whole sweep; reject
    // the combination instead of silently ignoring the flag.
    if (!opt.trace_file.empty())
        fatal("--trace is not supported with ", mode);
    if (opt.sample_us_set)
        fatal("--sample-us is not supported with ", mode);
    if (opt.stats)
        fatal("--stats is not supported with ", mode);
    if (opt.static_only)
        fatal("--static-only is not supported with ", mode);
    if (opt.dump_config)
        fatal("--dump-config is not supported with ", mode);
    if (opt.vdd_scale_set || opt.freq_scale_set)
        fatal("--vdd-scale/--freq-scale apply to single runs; use "
              "--vf V[:F],... to sweep operating points");
}

void
printSweepHeader(const sim::SweepSpec &spec, unsigned workers)
{
    std::printf("sweep: %zu configs x %zu workloads",
                spec.configs.size(), spec.workloads.size());
    if (!spec.tech_nodes.empty())
        std::printf(" x %zu nodes", spec.tech_nodes.size());
    if (!spec.operating_points.empty())
        std::printf(" x %zu operating points",
                    spec.operating_points.size());
    if (!spec.coolings.empty())
        std::printf(" x %zu coolings", spec.coolings.size());
    std::printf(" = %zu scenarios on %u worker(s)\n\n", spec.size(),
                workers);
}

int
runSweep(const Options &opt)
{
    checkSweepFlagDeps(opt, "--sweep");

    sim::SweepRequest request = requestFromOptions(opt);
    sim::SweepSpec spec = request.toSpec();

    ObsWriter obs_writer(opt);

    sim::EngineOptions eopt = sim::EngineOptions().withJobs(opt.jobs);
    // ProgressPrinter outlives the run; the engine only calls the
    // hook while workers are draining inside it.
    ProgressPrinter printer;
    sim::ResultCallback on_result;
    if (opt.progress)
        on_result = std::ref(printer);

    store::StoreHandle store_handle;
    if (!opt.store_dir.empty())
        store_handle = store::openStore(opt.store_dir);
    sim::SweepSession session(eopt, store_handle);

    printSweepHeader(spec, session.jobs());

    // The sweep prints the table only: summary rows.
    sim::SweepResult result =
        session.submit(spec, on_result, sim::RowDetail::summary);
    // Stats go to stderr so stdout carries only the header and the
    // table, which the CI smoke check diffs across worker counts and
    // trace settings. The numbers come from the run's telemetry — the
    // same values --metrics-json dumps — so they exist in exactly one
    // place.
    const sim::SweepTelemetry &telemetry = result.telemetry();
    std::fprintf(stderr, "memoized replay: %zu of %zu scenario(s)\n",
                 telemetry.replayed, telemetry.scenarios);
    obs_writer.setMetricsDocument(telemetry.toJson());
    std::fputs(result.formatTable().c_str(), stdout);
    std::printf("\ntotal simulated time: %.3f ms\n",
                result.totalSimulatedTime() * 1e3);

    for (const sim::ScenarioResult &r : result.rows())
        if (!r.verified)
            return 1;
    return 0;
}

int
runServe(const Options &opt)
{
    if (!opt.port_set)
        fatal("serve requires --port");
    if (opt.store_dir.empty())
        fatal("serve requires --store (a server without persistence "
              "would forget every capture on exit)");
    checkSweepFlagDeps(opt, "serve");
    if (opt.progress)
        fatal("--progress applies to client runs, not serve");

    // The ObsWriter flushes --trace-out/--metrics-json when serve
    // returns (after a stop-server drain) — how the CI smoke job
    // gets a validated server-side trace.
    ObsWriter obs_writer(opt);

    auto session = std::make_shared<sim::SweepSession>(
        sim::EngineOptions().withJobs(opt.jobs),
        store::openStore(opt.store_dir));
    service::SweepServer server(session,
                                static_cast<uint16_t>(opt.port));
    std::printf("serving sweeps on 127.0.0.1:%u (store %s, %u "
                "worker(s) per job)\n",
                server.port(), opt.store_dir.c_str(),
                session->jobs());
    std::fflush(stdout);
    server.run();
    std::printf("server drained, store %s has %zu entries\n",
                opt.store_dir.c_str(),
                session->storeHandle()->size());
    return 0;
}

int
runSubmit(const Options &opt)
{
    if (!opt.port_set)
        fatal("submit requires --port");
    checkSweepFlagDeps(opt, "submit");
    if (opt.jobs != 0)
        fatal("--jobs is chosen by the server; it does not apply to "
              "submit");
    if (!opt.store_dir.empty())
        fatal("--store does not apply to submit (the store lives "
              "with the server)");

    sim::SweepRequest request = requestFromOptions(opt);

    ObsWriter obs_writer(opt);
    service::SweepClient client(opt.host,
                                static_cast<uint16_t>(opt.port));
    service::SweepClient::JobResult job = client.submitJob(
        request, [&](const std::string &row) {
            if (opt.progress)
                std::fprintf(stderr, "progress: %s\n", row.c_str());
        });
    if (!job.ok)
        fatal("submit: ", job.error);

    // The metrics document is the server's telemetry for this job,
    // verbatim — so tools/check_trace.py asserts the same
    // engine/store counters a local --sweep would dump.
    obs_writer.setMetricsDocument(job.metrics_json);
    std::fputs(job.table.c_str(), stdout);
    return 0;
}

int
runStopServer(const Options &opt)
{
    if (!opt.port_set)
        fatal("stop-server requires --port");
    service::SweepClient client(opt.host,
                                static_cast<uint16_t>(opt.port));
    if (!client.shutdownServer())
        fatal("stop-server: no acknowledgement from ", opt.host, ":",
              opt.port);
    std::printf("server at %s:%u is draining\n", opt.host.c_str(),
                opt.port);
    return 0;
}

int
runTool(const Options &opt)
{
    if (opt.mode == Mode::serve)
        return runServe(opt);
    if (opt.mode == Mode::submit)
        return runSubmit(opt);
    if (opt.mode == Mode::stop_server)
        return runStopServer(opt);
    if (opt.sweep)
        return runSweep(opt);

    // Symmetric to runSweep's checks: sweep/service-only flags are
    // rejected, not silently ignored, outside --sweep.
    if (opt.jobs != 0)
        fatal("--jobs requires --sweep");
    if (!opt.nodes.empty())
        fatal("--nodes requires --sweep");
    if (!opt.vf.empty())
        fatal("--vf requires --sweep; use --vdd-scale/--freq-scale "
              "for a single run");
    if (opt.progress)
        fatal("--progress requires --sweep");
    if (!opt.store_dir.empty())
        fatal("--store requires --sweep (or the serve subcommand)");
    if (opt.port_set)
        fatal("--port applies to the serve/submit/stop-server "
              "subcommands");

    // Single runs observe too: spans from the simulator layers and a
    // plain registry dump (no sweep telemetry to report).
    ObsWriter obs_writer(opt);

    if (opt.list) {
        std::printf("available workloads:\n");
        for (auto &wl : workloads::makeAllWorkloads()) {
            std::printf("  %-14s %s (%s)\n", wl->name().c_str(),
                        wl->description().c_str(),
                        wl->origin().c_str());
        }
        return 0;
    }

    const sim::Scenario scenario = singleScenario(opt);
    const GpuConfig &cfg = scenario.config;
    if (opt.dump_config) {
        std::fputs(cfg.toXml().c_str(), stdout);
        return 0;
    }

    Simulator sim(cfg);
    if (opt.static_only) {
        std::printf("%s\n",
                    sim.powerModel().staticReport().format().c_str());
        std::printf("peak dynamic power: %.1f W\n",
                    sim.powerModel().peakDynamicPower());
        return 0;
    }

    bool tracing = !opt.trace_file.empty();
    sim::ScenarioResult result =
        sim::SimulationEngine(
            sim::EngineOptions().withTrace(tracing, opt.sample_us * 1e-6))
            .runScenario(scenario, sim);

    std::ofstream trace_out;
    std::vector<std::string> thermal_blocks;
    if (cfg.thermal.enabled)
        thermal_blocks = sim.powerModel().thermalBlocks().names;
    if (tracing) {
        trace_out.open(opt.trace_file);
        if (!trace_out)
            fatal("cannot open trace file '", opt.trace_file, "'");
        trace_out << "kernel,t0_s,t1_s,dynamic_w,static_w,dram_w";
        if (cfg.thermal.enabled) {
            trace_out << ",tmax_k";
            for (const std::string &name : thermal_blocks)
                trace_out << ",T_" << name << "_k";
            trace_out << ",T_heatsink_k";
        }
        trace_out << '\n';
    }

    std::printf("%s on %s (%u cores, %u nm", opt.workload.c_str(),
                cfg.name.c_str(), cfg.numCores(), cfg.tech.node_nm);
    if (!cfg.operatingPoint().isIdentity())
        std::printf(", %s: %.3f V, %.0f MHz shader",
                    cfg.operatingPoint().label().c_str(),
                    sim.powerModel().techNode().vdd,
                    cfg.clocks.shaderHz() / 1e6);
    std::printf(")\n\n");

    for (const sim::KernelResult &kr : result.kernels) {
        const KernelRun &run = kr.run;
        std::printf("kernel %-14s %9lu cycles %9.1f us  dyn %6.2f W  "
                    "total %6.2f W (card %6.2f W)\n",
                    kr.label.c_str(),
                    static_cast<unsigned long>(run.perf.cycles),
                    run.perf.time_s * 1e6, run.report.dynamicPower(),
                    run.report.totalPower(), run.card_w);
        if (run.thermal.enabled) {
            std::printf("  thermal: Tmax %.1f K (%s), heatsink "
                        "%.1f K%s%s\n",
                        run.thermal.t_max_k,
                        run.thermal.hottestBlock().c_str(),
                        run.thermal.heatsink_k,
                        run.thermal.throttled
                            ? strformat(", THROTTLED x%.3g",
                                        run.thermal.op.freq_scale)
                                  .c_str()
                            : "",
                        run.thermal.converged ? ""
                                              : ", THERMAL RUNAWAY");
        }
        if (tracing) {
            for (std::size_t i = 0; i < run.trace.size(); ++i) {
                const PowerSample &s = run.trace[i];
                trace_out << kr.label << ',' << s.t0 << ',' << s.t1
                          << ',' << s.dynamic_w << ',' << s.static_w
                          << ',' << s.dram_w;
                if (run.thermal.enabled &&
                    i < run.thermal.trace.size()) {
                    const ThermalSample &ts = run.thermal.trace[i];
                    // Die blocks only, consistent with the reported
                    // t_max_k (the dram block is last).
                    double tmax = 0.0;
                    for (std::size_t b = 0;
                         b + 1 < thermal_blocks.size(); ++b)
                        tmax = std::max(tmax, ts.temps_k[b]);
                    trace_out << ',' << tmax;
                    for (double t : ts.temps_k)
                        trace_out << ',' << t;
                }
                trace_out << '\n';
            }
        }
        if (opt.stats)
            std::fputs(run.perf.activity.format().c_str(), stdout);
    }

    std::printf("\nbenchmark total: %.3f ms, %.3f mJ, verification %s\n",
                result.time_s * 1e3, result.energy_j * 1e3,
                result.verified ? "PASS" : "FAIL");

    std::printf("\n%s", "power report of the last kernel:\n");
    // Re-evaluate for a compact chip-level view.
    std::printf("static %.2f W, area %.1f mm2, peak dynamic %.1f W\n",
                sim.powerModel().staticPower(), sim.powerModel().area(),
                sim.powerModel().peakDynamicPower());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runTool(parseArgs(argc, argv));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "gpusimpow: fatal: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gpusimpow: %s\n", e.what());
        return 1;
    }
}
