/**
 * @file
 * The differential matrix: every fast path that serves a sweep row
 * must equal full simulation bit for bit. It runs over every
 * registered workload on one chip per ctest entry (gt240, gtx580) and
 * six modes: no thermal, a cooling × DVFS axis with steady solves,
 * the throttling governor untraced and traced, and traced 1 us
 * sampling with and without transient thermal. Each leg's rows are
 * compared with the reference leg (jobs 4, kernel rows, on a cold
 * store) through the one row comparator, tests/row_text.hh:
 *
 *   leg          differs from the reference           compares
 *   oracle       runScenario on a fresh Simulator      kernel rows
 *   jobs 1       one worker, summary rows first        kernel rows
 *   summary      RowDetail::summary rows               summary, table
 *   warm store   a new session on the same store       kernel rows
 *   service      a loopback SweepServer                table bytes
 *
 * Each leg's schedule is asserted too: one capture per snapshot key,
 * none on the warm store, governed scenarios never replayed (the
 * throttle mode's reference runs them as full-simulation units on
 * the run's shared models, four workers at a time). The
 * heavy captures (mergesort, backprop, kmeans) run only in the legs
 * that replay them (reference, summary, warm store, service), and
 * only in the plain and traced thermal modes.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "common/strutil.hh"
#include "row_text.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/engine.hh"
#include "sim/request.hh"
#include "sim/session.hh"
#include "store/store.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::RowDetail;
using sim::Scenario;
using sim::ScenarioResult;
using sim::SweepRequest;
using sim::SweepResult;
using sim::SweepSession;
using sim::SweepSpec;
using test::rowText;
using test::sameText;

namespace {

struct Mode
{
    const char *name;
    /** The mode's axes; gpus and workloads are filled in per leg. */
    SweepRequest request;
    bool traced;
    /** Whether the heavy workloads ride along in the replaying legs. */
    bool heavy;
};

/** Test names and failure messages show the mode by name. */
void
PrintTo(const Mode &mode, std::ostream *os)
{
    *os << mode.name;
}

const Mode modes[] = {
    {"plain", SweepRequest().withNodes("40,28"), false, true},
    // The second operating point changes the clock (its own snapshot
    // key); each power model is shared by two coolings.
    {"cooling",
     SweepRequest().withVf("0.9:1,1:0.8").withCoolings("stock,liquid"),
     false, false},
    {"throttle",
     SweepRequest().withCoolings("constrained").withThrottle(true), false,
     false},
    {"traced_thermal",
     SweepRequest().withNodes("40,28").withCoolings("stock"), true, true},
    {"traced_plain", SweepRequest().withNodes("40,28"), true, false},
    // Governed kernels' trace rows: each clock the governor measures
    // is traced and marched from the kernel's entry state.
    {"traced_throttle",
     SweepRequest().withCoolings("constrained").withThrottle(true), true,
     false},
};

bool
isHeavy(const std::string &workload)
{
    return workload == "mergesort" || workload == "backprop" ||
           workload == "kmeans";
}

std::string
workloadList(bool heavy)
{
    std::string out;
    for (const std::string &w : workloads::listWorkloadNames()) {
        if (heavy || !isHeavy(w)) {
            if (!out.empty())
                out += ',';
            out += w;
        }
    }
    return out;
}

/** A unique store directory, removed on scope exit. */
struct ScopedDir
{
    std::filesystem::path path;

    explicit ScopedDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               strformat("gsp-diff-%s-%d", tag.c_str(), ::getpid()))
    {
        std::filesystem::remove_all(path);
    }

    ~ScopedDir() { std::filesystem::remove_all(path); }
};

uint64_t
bits(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/**
 * The leg's schedule: one capture per snapshot key and a replay for
 * every other replayable scenario (a warm store captures none),
 * governed scenarios always simulated in full, and an ungoverned run
 * building one power model per power-relevant configuration.
 */
void
expectSchedule(const SweepResult &r, const SweepSpec &spec,
               bool warm = false)
{
    std::size_t replayable = 0;
    std::set<std::string> keys, models;
    for (const Scenario &s : spec.expand()) {
        if (s.replayable()) {
            ++replayable;
            keys.insert(s.snapshotKey());
        }
        GpuConfig power_view = s.config;
        power_view.thermal = ThermalConfig{};
        models.insert(power_view.toXml());
    }
    const sim::SweepTelemetry &t = r.telemetry();
    // The governor builds a model per clock it probes.
    if (t.governed == 0) {
        EXPECT_EQ(t.metrics.counter("power/model_builds"), models.size());
    }
    const std::size_t captures = warm ? 0 : keys.size();
    EXPECT_EQ(t.governed, spec.size() - replayable);
    EXPECT_EQ(t.captured, captures);
    EXPECT_EQ(t.replayed, replayable - captures);
}

/** Kernel rows: one entry per kernel, and a card power equal to the
 *  report tree's, bit for bit. */
void
expectKernelShape(const SweepResult &r, bool traced)
{
    for (const ScenarioResult &row : r.rows()) {
        SCOPED_TRACE(row.scenario.label);
        ASSERT_GT(row.kernel_count, 0u);
        ASSERT_EQ(row.kernel_count, row.kernels.size());
        for (const sim::KernelResult &k : row.kernels) {
            const power::PowerReport &rep = k.run.report;
            EXPECT_EQ(bits(k.run.card_w),
                      bits(rep.totalPower() + rep.dram_w))
                << k.label;
            EXPECT_EQ(k.run.trace.empty(), !traced) << k.label;
        }
    }
}

class Differential
    : public ::testing::TestWithParam<std::tuple<std::string, Mode>>
{
};

TEST_P(Differential, EveryLegMatchesTheReference)
{
    const std::string &chip = std::get<0>(GetParam());
    const Mode &mode = std::get<1>(GetParam());
    EngineOptions opt = EngineOptions().withJobs(4);
    if (mode.traced)
        opt.withTrace(true, 1e-6);
    SweepRequest all = mode.request;
    all.withGpus(chip).withWorkloads(workloadList(mode.heavy));
    SweepRequest light = all;
    light.withWorkloads(workloadList(false));
    const SweepSpec spec = all.toSpec();
    const SweepSpec light_spec = light.toSpec();

    ScopedDir dir(chip + "-" + mode.name);
    SweepSession cold(opt, store::openStore(dir.path));
    const SweepResult reference = cold.submit(spec);
    expectSchedule(reference, spec);
    expectKernelShape(reference, mode.traced);

    // The mode must bite: thermal where a cooling axis is, and the
    // governor clamping somewhere.
    std::map<std::string, const ScenarioResult *> by_label;
    bool throttled = false;
    for (const ScenarioResult &row : reference.rows()) {
        by_label[row.scenario.label] = &row;
        EXPECT_EQ(row.thermal, !mode.request.coolings.empty())
            << row.scenario.label;
        throttled |= row.throttled;
    }
    EXPECT_EQ(throttled, mode.request.throttle);

    auto expectLeg = [&](const char *leg, const SweepResult &rows,
                         RowDetail detail) {
        SCOPED_TRACE(leg);
        for (const ScenarioResult &row : rows.rows()) {
            auto it = by_label.find(row.scenario.label);
            ASSERT_NE(it, by_label.end()) << row.scenario.label;
            EXPECT_TRUE(sameText(rowText(row, detail),
                                 rowText(*it->second, detail)))
                << row.scenario.label;
            EXPECT_EQ(row.kernels.empty(), detail == RowDetail::summary)
                << row.scenario.label;
        }
    };

    // Summary rows, replayed from the session.
    SweepResult summary = cold.submit(spec, {}, RowDetail::summary);
    expectLeg("summary", summary, RowDetail::summary);
    EXPECT_EQ(summary.formatTable(), reference.formatTable());

    // A new session on the same store: every snapshot from disk.
    {
        SweepSession warm(opt, store::openStore(dir.path));
        SweepResult rows = warm.submit(spec);
        expectSchedule(rows, spec, true);
        EXPECT_EQ(rows.telemetry().metrics.counter(
                      "sim/timing_model_builds"),
                  rows.telemetry().governed);
        expectLeg("warm store", rows, RowDetail::kernels);
    }

    // The service, over a session on the same store.
    {
        auto session = std::make_shared<SweepSession>(
            opt, store::openStore(dir.path));
        service::SweepServer server(session, 0);
        std::thread runner([&] { server.run(); });
        service::SweepClient::JobResult job =
            service::SweepClient("127.0.0.1", server.port())
                .submitJob(all);
        server.stop();
        runner.join();
        ASSERT_TRUE(job.ok) << job.error;
        EXPECT_EQ(job.rows, spec.size());
        EXPECT_EQ(job.table, reference.formatTable());
        EXPECT_NE(job.metrics_json.find("\"captured\":0"),
                  std::string::npos);
    }

    // One worker, summary rows first: they capture, kernel rows replay.
    {
        SweepSession serial(EngineOptions(opt).withJobs(1));
        SweepResult first = serial.submit(light_spec, {}, RowDetail::summary);
        expectSchedule(first, light_spec);
        expectLeg("jobs 1 summary", first, RowDetail::summary);
        expectLeg("jobs 1", serial.submit(light_spec), RowDetail::kernels);
    }

    // The oracle: each scenario on a fresh Simulator of its own,
    // strided over four threads.
    const std::vector<Scenario> scenarios = light_spec.expand();
    SweepResult oracle(scenarios.size());
    const sim::SimulationEngine engine(opt);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < scenarios.size(); i += 4)
                oracle.set(engine.runScenario(scenarios[i]));
        });
    for (std::thread &t : threads)
        t.join();
    expectLeg("oracle", oracle, RowDetail::kernels);
}

std::string
paramName(const ::testing::TestParamInfo<Differential::ParamType> &info)
{
    return std::get<0>(info.param) + "_" + std::get<1>(info.param).name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, Differential,
                         ::testing::Combine(::testing::Values("gt240",
                                                              "gtx580"),
                                            ::testing::ValuesIn(modes)),
                         paramName);

} // namespace
