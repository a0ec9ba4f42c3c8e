/**
 * @file
 * perfbench: the end-to-end benchmark program of gpusimpow. It runs
 * one named workload through the public entry points only
 * (sim::SweepSession::submit, service::SweepServer and
 * SweepClient::submitJob, store::openStore), checks every job against
 * a store-less oracle, and prints one JSON document of raw
 * measurements; perfbench/run.py turns it into the metrics.
 *
 *   perfbench prepare --workload W --seed N --work-dir DIR
 *       untimed: oracle file, primed store, model error
 *   perfbench run --workload W --seed N --seconds S --trace 0|1
 *             --work-dir DIR
 *       the timed run, in a fresh process, against DIR's oracle
 *   perfbench plan --workload W --seed N     (print the job plan)
 *   perfbench self-test                      (the oracle catches
 *                                             perturbed rows)
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/strutil.hh"
#include "measure/validation.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "oracle.hh"
#include "plan.hh"
#include "power/chip_power.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/session.hh"
#include "store/store.hh"

namespace fs = std::filesystem;
using namespace gpusimpow;

namespace perfbench {
namespace {

/** Engine workers busy in every timed section: two per job for the
 *  one-client workloads, one per job for the service's two
 *  concurrent jobs. More than two would leave a shared 4-core host
 *  no headroom, and the figures would follow its other tenants. */
unsigned
timedJobs(const Plan &plan)
{
    return plan.workload == Workload::WarmService ? 1 : 2;
}

/** Workers of the untimed oracle, priming and model-error runs. */
constexpr unsigned untimed_jobs = 4;
/**
 * Set-up samples whose median is setup_s. Each follows an idle
 * pause: back to back, set-ups run several times faster than after
 * any pause, and a user starts a sweep from an idle process, not a
 * hot loop. They are taken in small rounds at least a second apart
 * between the timed jobs, because the host's speed drifts over
 * seconds and one burst would sample a single moment of it.
 */
constexpr std::size_t setup_samples = 101, setup_round = 8;
constexpr int setup_warmups = 10;
constexpr auto setup_pause = std::chrono::milliseconds(10);
constexpr double setup_round_gap_s = 1.0;

/** Passes of the traced section: a fixed count, so the per-pass
 *  counts of the per-layer figures repeat exactly between runs. */
int
tracedPasses(Workload w)
{
    switch (w) {
    case Workload::ColdSweep:
        return 1;
    case Workload::WarmService:
        return 3;
    case Workload::TracedThermal:
        return 5;
    }
    return 1;
}

double
nowS()
{
    return static_cast<double>(obs::monotonicNs()) * 1e-9;
}

/** User+system CPU of the whole process (every thread), s. */
double
cpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec +
                               ru.ru_stime.tv_usec) *
               1e-6;
}

/** Accumulates wall and CPU time over the segments it brackets, so
 *  oracle checks between jobs stay out of a pass's figures. */
struct Stopwatch
{
    double wall_s = 0.0, cpu_s = 0.0;
    double w0 = 0.0, c0 = 0.0;
    void start()
    {
        w0 = nowS();
        c0 = cpuS();
    }
    /** Stop; returns the segment's wall time. */
    double stop()
    {
        double dw = nowS() - w0;
        wall_s += dw;
        cpu_s += cpuS() - c0;
        return dw;
    }
};

/** Everything one timed section measured. */
struct Section
{
    struct Pass
    {
        double wall_s = 0.0, cpu_s = 0.0;
    };
    std::vector<Pass> passes;
    std::vector<double> job_s;
    /** Service only: submit to first streamed row. */
    std::vector<double> first_row_s;
    RowStats rows;
    obs::MetricsSnapshot counters;
    std::size_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    std::mutex mutex;

    /** Record one job; a non-empty `problem` makes it a failure. */
    void job(double latency_s, const std::string &problem,
             const RowStats &stats, double first_row = -1.0)
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++attempted;
        job_s.push_back(latency_s);
        if (first_row >= 0.0)
            first_row_s.push_back(first_row);
        rows.add(stats);
        if (!problem.empty()) {
            ++failed;
            if (failures.size() < 8)
                failures.push_back(problem);
        }
    }
};

/** A named zero-length span on the calling thread's trace track:
 *  marks which scenario a worker just finished, so run.py can
 *  attribute the capture spans before it. Names are interned
 *  because the tracer stores the pointer. */
void
markRow(const sim::ScenarioResult &r)
{
    static std::mutex mutex;
    static std::set<std::string> names;
    if (!obs::Tracer::enabled())
        return;
    const char *name;
    {
        std::lock_guard<std::mutex> lock(mutex);
        name = names.insert("bench/row/" + r.scenario.workload)
                   .first->c_str();
    }
    obs::Tracer::instance().record(name, obs::monotonicNs(), 0);
}

sim::EngineOptions
sessionOptions(const Plan &plan, unsigned jobs)
{
    return sim::EngineOptions().withJobs(jobs).withTrace(
        plan.traced, plan.sample_interval_s);
}

fs::path
oracleFile(const fs::path &work)
{
    return work / "oracle.txt";
}

fs::path
primedStore(const fs::path &work)
{
    return work / "primed-store";
}

std::size_t
dirBytes(const fs::path &dir)
{
    std::size_t bytes = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec))
        if (e.is_regular_file())
            bytes += e.file_size();
    return bytes;
}

// ------------------------------------------------------ untimed set-up

/** Oracle rows of every distinct request, from a cold, store-less
 *  session. The requests run concurrently: the oracle is off the
 *  clock, but not off the run's time budget. */
std::vector<JobOracle>
computeOracles(const Plan &plan)
{
    const std::size_t n = plan.distinct.size();
    sim::SweepSession session(sessionOptions(
        plan, std::max<unsigned>(1, untimed_jobs /
                                        static_cast<unsigned>(n))));
    std::vector<JobOracle> oracles(n);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    for (std::size_t j = 0; j < n; ++j)
        threads.emplace_back([&, j] {
            try {
                oracles[j] =
                    makeOracle(session.submit(plan.distinct[j].toSpec()));
            } catch (...) {
                errors[j] = std::current_exception();
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return oracles;
}

/**
 * Mean |relative error| of simulated vs measured total power (the
 * Fig. 6 method of measure::ValidationHarness) over the light
 * kernels on both GPUs, averaged over the plan's virtual boards.
 * The reference is the repo's virtual card, not silicon.
 */
double
modelErrorPct(const Plan &plan)
{
    sim::SweepSession session(
        sim::EngineOptions().withJobs(untimed_jobs).withTrace(true,
                                                              20e-6));
    sim::SweepResult result = session.submit(lightRequest().toSpec());
    double sum = 0.0;
    unsigned n = 0;
    for (const std::string &gpu : gpuPresets()) {
        GpuConfig cfg =
            sim::SweepRequest().withGpus(gpu).toSpec().configs.front();
        double model_static = power::GpuPowerModel(cfg).staticPower();
        for (uint64_t board : plan.board_seeds) {
            measure::ValidationHarness harness(cfg, model_static, board);
            // Kernels run several times in one workload are averaged
            // per label, as the paper does.
            std::map<std::string, std::pair<double, double>> label;
            for (const sim::ScenarioResult &row : result.rows()) {
                if (row.scenario.config.name != cfg.name)
                    continue;
                for (const sim::KernelResult &k : row.kernels) {
                    measure::KernelValidation v =
                        harness.validate(k.label, k.run, k.repeatable);
                    label[k.label].first += v.simTotal();
                    label[k.label].second += v.measTotal();
                }
            }
            for (const auto &[name, totals] : label) {
                sum += std::fabs(totals.first / totals.second - 1.0);
                ++n;
            }
        }
    }
    return n ? 100.0 * sum / n : 0.0;
}

// ------------------------------------------------------------ timed run

/** One workload's timed run against a prepared work directory. */
class TimedRun
{
  public:
    TimedRun(Plan plan, fs::path work)
        : _plan(std::move(plan)), _work(std::move(work))
    {
        std::ifstream in(oracleFile(_work), std::ios::binary);
        _oracles = readOracles(in);
        if (_oracles.size() != _plan.distinct.size())
            throw std::runtime_error("oracle file does not match plan");
    }

    /** Unrecorded set-ups, then the first round of recorded ones. */
    void startSetupSampling()
    {
        for (int i = 0; i < setup_warmups; ++i) {
            std::this_thread::sleep_for(setup_pause);
            setupOnce();
        }
        _sampling = true;
        setupRound();
    }

    /** A round of set-up samples, if one is due. */
    void setupRound()
    {
        if (!_sampling || nowS() - _last_round_s < setup_round_gap_s)
            return;
        for (std::size_t k = 0;
             k < setup_round && _setup_s.size() < setup_samples; ++k) {
            std::this_thread::sleep_for(setup_pause);
            _setup_s.push_back(setupOnce());
        }
        _last_round_s = nowS();
    }

    /** Stop sampling; tops the samples up to their full count. */
    const std::vector<double> &finishSetupSampling()
    {
        while (_setup_s.size() < setup_samples) {
            _last_round_s = -HUGE_VAL;
            setupRound();
        }
        _sampling = false;
        return _setup_s;
    }

    /**
     * Timed passes: exactly `passes` of them when non-zero, else
     * until `seconds` have elapsed (at least one).
     */
    void run(double seconds, int passes, Section &sec)
    {
        auto more = [&, t_end = nowS() + seconds] {
            return passes ? static_cast<int>(sec.passes.size()) < passes
                          : nowS() < t_end;
        };
        if (_plan.workload == Workload::WarmService)
            runService(more, sec);
        else
            runInProcess(more, sec);
    }

    /** On-disk bytes of the store the workload reads or writes. */
    std::size_t storeBytes() const
    {
        return _plan.workload == Workload::ColdSweep
                   ? _cold_store_bytes
                   : dirBytes(primedStore(_work));
    }

  private:
    /** One set-up: everything before the first job can start. */
    double setupOnce()
    {
        const int i = _setups++;
        fs::path dir = primedStore(_work);
        if (_plan.workload == Workload::ColdSweep) {
            dir = _work / strformat("setup-%d", i);
            fs::remove_all(dir);
        }
        double t0 = nowS();
        {
            auto session = std::make_shared<sim::SweepSession>(
                sessionOptions(_plan, timedJobs(_plan)),
                store::openStore(dir));
            std::unique_ptr<service::SweepServer> server;
            std::vector<std::unique_ptr<service::SweepClient>> clients;
            if (_plan.workload == Workload::WarmService) {
                server = std::make_unique<service::SweepServer>(session,
                                                                0);
                for (std::size_t c = 0; c < _plan.client_jobs.size(); ++c)
                    clients.push_back(
                        std::make_unique<service::SweepClient>(
                            "127.0.0.1", server->port()));
            }
            std::size_t scenarios = 0;
            for (const sim::SweepRequest &req : _plan.distinct)
                scenarios += req.toSpec().expand().size();
            if (scenarios == 0)
                throw std::runtime_error("empty plan");
        }
        double t = nowS() - t0;
        if (_plan.workload == Workload::ColdSweep)
            fs::remove_all(dir);
        return t;
    }

    /** cold_sweep and traced_thermal: one in-process client. */
    void runInProcess(const std::function<bool()> &more, Section &sec)
    {
        const bool cold = _plan.workload == Workload::ColdSweep;
        const obs::MetricsSnapshot before =
            obs::Registry::instance().snapshot();
        int pass = 0;
        do {
            // cold: a fresh, empty store; traced: the primed one,
            // reopened, under a fresh session that must read it.
            fs::path dir = primedStore(_work);
            if (cold) {
                dir = _work / strformat("cold-pass-%d", pass);
                fs::remove_all(dir);
            }
            Stopwatch sw;
            sw.start();
            std::unique_ptr<sim::SweepSession> session;
            {
                store::StoreHandle handle;
                {
                    GSP_TRACE_SPAN("bench/store_open");
                    handle = store::openStore(dir);
                }
                GSP_TRACE_SPAN("bench/session");
                session = std::make_unique<sim::SweepSession>(
                    sessionOptions(_plan, timedJobs(_plan)), handle);
            }
            sw.stop();
            for (std::size_t j : _plan.client_jobs.front()) {
                sw.start();
                std::string problem;
                sim::SweepResult result;
                try {
                    GSP_TRACE_SPAN("bench/submit");
                    result = session->submit(
                        _plan.distinct[j].toSpec(),
                        [](const sim::ScenarioResult &r, std::size_t,
                           std::size_t) { markRow(r); });
                } catch (const std::exception &e) {
                    problem = e.what();
                }
                double latency = sw.stop();
                if (problem.empty())
                    problem = checkRows(result, _oracles[j]);
                if (problem.empty() && !cold &&
                    result.telemetry().captured != 0)
                    problem = "a primed-store job ran a timing capture";
                sec.job(latency, problem, _oracles[j].stats);
                setupRound();
            }
            session.reset();
            sec.passes.push_back({sw.wall_s, sw.cpu_s});
            if (cold) {
                _cold_store_bytes = dirBytes(dir);
                fs::remove_all(dir);
            }
            ++pass;
        } while (more());
        sec.counters =
            obs::Registry::instance().snapshot().deltaFrom(before);
    }

    /** warm_service: two closed-loop clients against one server. */
    void runService(const std::function<bool()> &more, Section &sec)
    {
        auto session = std::make_shared<sim::SweepSession>(
            sessionOptions(_plan, timedJobs(_plan)),
            store::openStore(primedStore(_work)));
        service::SweepServer server(session, 0);
        std::thread server_thread([&server] { server.run(); });

        std::vector<std::unique_ptr<service::SweepClient>> clients(
            _plan.client_jobs.size());
        std::string connect_error;
        try {
            for (auto &c : clients)
                c = std::make_unique<service::SweepClient>(
                    "127.0.0.1", server.port());
        } catch (const std::exception &e) {
            connect_error = std::string("connection refused: ") +
                            e.what();
        }

        auto pass = [&](Section &into) {
            std::vector<std::thread> threads;
            for (std::size_t c = 0; c < clients.size(); ++c)
                threads.emplace_back([&, c] {
                    runClient(clients[c].get(), _plan.client_jobs[c],
                              connect_error, into);
                });
            for (std::thread &t : threads)
                t.join();
        };
        // One untimed but checked warm-up pass reads the primed store
        // into the server session's memory: a long-running server
        // pays that once, not per job.
        Section warmup;
        pass(warmup);
        sec.attempted += warmup.attempted;
        sec.failed += warmup.failed;
        sec.failures = warmup.failures;

        // A server handler closes its `service/job` span just after
        // the client has read `done`; let it, so every span lands on
        // the right side of the counter snapshots.
        auto settle = [] {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        };
        settle();
        const obs::MetricsSnapshot before =
            obs::Registry::instance().snapshot();
        while (connect_error.empty()) {
            double w0 = nowS(), c0 = cpuS();
            pass(sec);
            sec.passes.push_back({nowS() - w0, cpuS() - c0});
            setupRound();
            if (!more())
                break;
        }
        settle();
        sec.counters =
            obs::Registry::instance().snapshot().deltaFrom(before);

        clients.clear();
        server.stop();
        server_thread.join();
    }

    void runClient(service::SweepClient *client,
                   const std::vector<std::size_t> &jobs,
                   const std::string &connect_error, Section &sec)
    {
        for (std::size_t j : jobs) {
            const JobOracle &oracle = _oracles[j];
            if (!client) {
                sec.job(0.0, connect_error, oracle.stats);
                continue;
            }
            double t0 = nowS();
            double first_row = -1.0;
            std::size_t unverified = 0;
            service::SweepClient::JobResult r;
            std::string problem;
            try {
                GSP_TRACE_SPAN("bench/client_job");
                r = client->submitJob(
                    _plan.distinct[j], [&](const std::string &row) {
                        if (first_row < 0.0)
                            first_row = nowS() - t0;
                        if (row.find("[VERIFY FAIL]") != std::string::npos)
                            ++unverified;
                    });
            } catch (const std::exception &e) {
                problem = e.what();
            }
            double latency = nowS() - t0;
            if (problem.empty() && !r.ok)
                problem = "error frame: " + r.error;
            if (problem.empty() && unverified)
                problem = strformat("%zu rows failed verification",
                                    unverified);
            if (problem.empty() && r.rows != oracle.digests.size())
                problem = strformat("%zu rows streamed, expected %zu",
                                    r.rows, oracle.digests.size());
            if (problem.empty())
                problem = checkTable(r.table, oracle);
            sec.job(latency, problem, oracle.stats, first_row);
        }
    }

    Plan _plan;
    fs::path _work;
    std::vector<JobOracle> _oracles;
    std::size_t _cold_store_bytes = 0;
    std::vector<double> _setup_s;
    int _setups = 0;
    bool _sampling = false;
    double _last_round_s = -HUGE_VAL;
};

// ------------------------------------------------------------- JSON out

std::string
num(double v)
{
    return std::isfinite(v) ? strformat("%.17g", v) : "null";
}

std::string
list(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + num(v[i]);
    return out + "]";
}

std::string
sectionJson(const Section &s)
{
    std::vector<double> wall, cpu;
    for (const Section::Pass &p : s.passes) {
        wall.push_back(p.wall_s);
        cpu.push_back(p.cpu_s);
    }
    std::string counters;
    for (const auto &[name, value] : s.counters.counters)
        counters += strformat("%s\"%s\":%llu", counters.empty() ? "" : ",",
                              jsonEscape(name).c_str(),
                              static_cast<unsigned long long>(value));
    std::string failures;
    for (const std::string &f : s.failures)
        failures += (failures.empty() ? "\"" : ",\"") + jsonEscape(f) +
                    "\"";
    const RowStats &r = s.rows;
    return "{\"pass_wall_s\":" + list(wall) +
           ",\"pass_cpu_s\":" + list(cpu) + ",\"job_s\":" + list(s.job_s) +
           ",\"first_row_s\":" + list(s.first_row_s) +
           ",\"attempted\":" + strformat("%zu", s.attempted) +
           ",\"failed\":" + strformat("%zu", s.failed) +
           ",\"failures\":[" + failures + "]" +
           ",\"rows\":{\"rows\":" + num(r.rows) +
           ",\"cycles\":" + num(r.cycles) +
           ",\"issued_insts\":" + num(r.issued_insts) +
           ",\"variant_intervals\":" + num(r.variant_intervals) +
           ",\"thermal_iters\":" + num(r.thermal_iters) +
           ",\"thermal_solves\":" + num(r.thermal_solves) + "}" +
           ",\"counters\":{" + counters + "}}";
}

// ------------------------------------------------------------ commands

struct Args
{
    std::string command;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("missing command");
    Args a;
    a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::stoull(value);
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else if (flag == "--trace")
            a.trace = value == "1";
        else if (flag == "--work-dir")
            a.work_dir = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if ((a.command == "prepare" || a.command == "run") &&
        a.work_dir.empty())
        throw std::invalid_argument(a.command + " needs --work-dir");
    return a;
}

/** Phase times go to stderr, for tuning the run length. */
class PhaseLog
{
  public:
    void operator()(const char *what)
    {
        double t = nowS();
        std::fprintf(stderr, "perfbench: %s %.2f s\n", what, t - _t);
        _t = t;
    }

  private:
    double _t = nowS();
};

int
prepareCommand(const Args &a)
{
    Plan plan = makePlan(parseWorkload(a.workload), a.seed);
    fs::path work = a.work_dir;
    fs::remove_all(work);
    fs::create_directories(work);
    PhaseLog phase;

    {
        std::ofstream out(oracleFile(work), std::ios::binary);
        writeOracles(out, computeOracles(plan));
        if (!out.flush())
            throw std::runtime_error("cannot write the oracle file");
    }
    if (plan.workload != Workload::ColdSweep) {
        // One scenario per snapshot key primes the whole power-axes
        // space: node, supply and cooling are power-only axes.
        sim::SweepSession primer(sessionOptions(plan, untimed_jobs),
                                 store::openStore(primedStore(work)));
        primer.submit(lightRequest().toSpec());
    }
    phase("oracle and priming");
    double model_err = modelErrorPct(plan);
    phase("model error");
    std::printf("{\"model_err_pct\":%s}\n", num(model_err).c_str());
    return 0;
}

int
runCommand(const Args &a)
{
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("run needs --seconds > 0");
    Plan plan = makePlan(parseWorkload(a.workload), a.seed);
    PhaseLog phase;
    TimedRun bench(plan, a.work_dir);

    // Trace mode adds a traced section after the untraced one, so the
    // tracing overhead is measured in one process.
    bench.startSetupSampling();
    Section untraced;
    bench.run(a.trace ? a.seconds / 2 : a.seconds, 0, untraced);
    const std::vector<double> setup = bench.finishSetupSampling();
    phase("timed section and set-up samples");

    std::string traced_json = "null";
    if (a.trace) {
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.setCapacity(1u << 17);
        tracer.clear();
        tracer.setEnabled(true);
        Section traced;
        bench.run(0.0, tracedPasses(plan.workload), traced);
        tracer.setEnabled(false);
        phase("traced section");
        fs::path trace_file = fs::path(a.work_dir) / "trace.json";
        std::ofstream out(trace_file);
        tracer.writeChromeTrace(out);
        traced_json = sectionJson(traced);
        traced_json.pop_back();
        traced_json += strformat(",\"trace_file\":\"%s\",\"dropped\":%zu}",
                                 jsonEscape(trace_file.string()).c_str(),
                                 tracer.droppedEvents());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"setup_s\":%s,"
                "\"untraced\":%s,\"traced\":%s,"
                "\"peak_rss_kb\":%ld,\"store_bytes\":%zu,"
                "\"workers_per_job\":%u}\n",
                workloadName(plan.workload),
                static_cast<unsigned long long>(a.seed),
                list(setup).c_str(), sectionJson(untraced).c_str(),
                traced_json.c_str(), ru.ru_maxrss, bench.storeBytes(),
                timedJobs(plan));
    return 0;
}

/** The oracle must catch a one-ulp change in any reported double,
 *  an unverified row and a changed service table byte; plans must
 *  be seed-deterministic. */
int
selfTest()
{
    int bad = 0;
    auto expect = [&bad](bool ok, const char *what) {
        std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
        bad += !ok;
    };

    sim::SweepSession session(sim::EngineOptions().withJobs(1));
    sim::SweepResult result =
        session.submit(sim::SweepRequest()
                           .withGpus("gt240")
                           .withWorkloads("matmul")
                           .withNodes("40,28")
                           .withCoolings("stock")
                           .toSpec());
    JobOracle oracle = makeOracle(result);
    expect(checkRows(result, oracle).empty(), "identical rows pass");
    expect(checkTable(result.formatTable(), oracle).empty(),
           "identical table passes");

    auto caught = [&](const std::function<void(sim::ScenarioResult &)>
                          &edit) {
        sim::SweepResult copy(result.size());
        for (sim::ScenarioResult row : result.rows()) {
            if (row.scenario.index == 1)
                edit(row);
            copy.set(std::move(row));
        }
        return !checkRows(copy, oracle).empty();
    };
    expect(caught([](sim::ScenarioResult &r) {
               r.energy_j = std::nextafter(r.energy_j, HUGE_VAL);
           }),
           "one-ulp energy change is caught");
    expect(caught([](sim::ScenarioResult &r) {
               double &w =
                   r.kernels.front().run.report.gpu.runtime_dynamic_w;
               w = std::nextafter(w, HUGE_VAL);
           }),
           "one-ulp power-tree change is caught");
    expect(caught([](sim::ScenarioResult &r) {
               r.kernels.front().run.thermal.iterations += 1;
           }),
           "thermal iteration change is caught");
    expect(caught([](sim::ScenarioResult &r) { r.verified = false; }),
           "unverified row is caught");
    std::string table = result.formatTable();
    table[table.size() / 2] ^= 1;
    expect(!checkTable(table, oracle).empty(),
           "changed table byte is caught");

    std::stringstream file;
    writeOracles(file, {oracle, oracle});
    std::vector<JobOracle> back = readOracles(file);
    expect(back.size() == 2 && back[1].digests == oracle.digests &&
               back[1].table == oracle.table &&
               back[1].stats.cycles == oracle.stats.cycles,
           "oracle file round-trips");

    for (Workload w : {Workload::ColdSweep, Workload::WarmService,
                       Workload::TracedThermal}) {
        expect(describePlan(makePlan(w, 7)) ==
                   describePlan(makePlan(w, 7)),
               "same seed, same plan");
        expect(describePlan(makePlan(w, 7)) !=
                   describePlan(makePlan(w, 8)),
               "another seed, another plan");
    }
    return bad ? 1 : 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    try {
        Args a = parseArgs(argc, argv);
        if (a.command == "prepare")
            return prepareCommand(a);
        if (a.command == "run")
            return runCommand(a);
        if (a.command == "plan") {
            std::fputs(describePlan(makePlan(parseWorkload(a.workload),
                                             a.seed))
                           .c_str(),
                       stdout);
            return 0;
        }
        if (a.command == "self-test")
            return selfTest();
        throw std::invalid_argument("unknown command " + a.command);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
