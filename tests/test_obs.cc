/**
 * @file
 * Tests of the observability layer: span-tracer ring semantics
 * (wraparound, drop accounting, concurrent emission), metrics
 * registry arithmetic and snapshot determinism, Chrome-trace JSON
 * well-formedness, the engine's byte-identity contract with tracing
 * on or off at any worker count, the capture/replay span nesting of
 * a work unit, sweep telemetry against the
 * engine's asserted counts, and the Logger level's thread-safety
 * (this suite runs in the TSan CI job).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "row_text.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::SweepResult;
using sim::SweepSession;
using sim::SweepSpec;
using sim::SweepTelemetry;

namespace {

/**
 * Minimal JSON validity checker (objects, arrays, strings, numbers,
 * true/false/null) — enough to prove the exporters emit well-formed
 * documents without pulling in a JSON library.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : _s(text) {}

    bool valid()
    {
        skipWs();
        return value() && (skipWs(), _pos == _s.size());
    }

  private:
    bool value()
    {
        if (_pos >= _s.size())
            return false;
        switch (_s[_pos]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++_pos; // '{'
        skipWs();
        if (peek() == '}') { ++_pos; return true; }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++_pos;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++_pos; continue; }
            if (peek() == '}') { ++_pos; return true; }
            return false;
        }
    }

    bool array()
    {
        ++_pos; // '['
        skipWs();
        if (peek() == ']') { ++_pos; return true; }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++_pos; continue; }
            if (peek() == ']') { ++_pos; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++_pos;
        while (_pos < _s.size() && _s[_pos] != '"') {
            if (_s[_pos] == '\\') {
                if (_pos + 1 >= _s.size())
                    return false;
                ++_pos;
            }
            ++_pos;
        }
        if (_pos >= _s.size())
            return false;
        ++_pos; // closing quote
        return true;
    }

    bool number()
    {
        std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        while (_pos < _s.size() &&
               (std::isdigit(static_cast<unsigned char>(_s[_pos])) ||
                _s[_pos] == '.' || _s[_pos] == 'e' || _s[_pos] == 'E' ||
                _s[_pos] == '+' || _s[_pos] == '-'))
            ++_pos;
        return _pos > start;
    }

    bool literal(const char *word)
    {
        std::string w(word);
        if (_s.compare(_pos, w.size(), w) != 0)
            return false;
        _pos += w.size();
        return true;
    }

    char peek() const { return _pos < _s.size() ? _s[_pos] : '\0'; }

    void skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\n' ||
                _s[_pos] == '\t' || _s[_pos] == '\r'))
            ++_pos;
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

/** Quiesce the tracer and start a fresh enabled window. */
void
resetTracer(std::size_t capacity = 1u << 12)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(false);
    tracer.clear();
    tracer.setCapacity(capacity);
    tracer.setEnabled(true);
}

/** Small sweep with a power-only axis so replay groups form: 1
 *  config x 2 nodes x 2 workloads = 4 scenarios, 2 timing-unique. */
SweepSpec
memoSweep()
{
    SweepSpec spec;
    GpuConfig small = GpuConfig::gt240();
    small.clusters = 2;
    spec.configs = {small};
    spec.tech_nodes = {40u, 28u};
    spec.workloads = {"vectoradd", "matmul"};
    return spec;
}

SweepResult
runWithJobs(const SweepSpec &spec, unsigned jobs)
{
    EngineOptions opt;
    opt.jobs = jobs;
    return SweepSession(opt).submit(spec);
}

} // namespace

TEST(Tracer, DisabledSpansRecordNothing)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(false);
    tracer.clear();
    {
        GSP_TRACE_SPAN("test/disabled");
        GSP_TRACE_SPAN("test/disabled_too");
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
}

TEST(Tracer, RecordsSpansAndFoldsWallTimeIntoRegistry)
{
    resetTracer();
    obs::Tracer &tracer = obs::Tracer::instance();
    uint64_t span_ns_before =
        obs::Registry::instance().snapshot().counter(
            "span/test/unit_ns");
    {
        GSP_TRACE_SPAN("test/unit");
    }
    tracer.setEnabled(false);
    EXPECT_EQ(tracer.eventCount(), 1u);
    // Span end folded the duration into span/<name>_ns.
    EXPECT_GE(obs::Registry::instance().snapshot().counter(
                  "span/test/unit_ns"),
              span_ns_before);
    tracer.clear();
}

TEST(Tracer, RingWrapsKeepingNewestAndCountsDrops)
{
    resetTracer(4);
    obs::Tracer &tracer = obs::Tracer::instance();
    for (int i = 0; i < 10; ++i) {
        GSP_TRACE_SPAN("test/wrap");
    }
    tracer.setEnabled(false);
    EXPECT_EQ(tracer.eventCount(), 4u);
    EXPECT_EQ(tracer.droppedEvents(), 6u);
    std::string json = tracer.exportChromeTrace();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    tracer.clear();
}

TEST(Tracer, ClearResetsThreadBuffers)
{
    resetTracer();
    obs::Tracer &tracer = obs::Tracer::instance();
    {
        GSP_TRACE_SPAN("test/before_clear");
    }
    EXPECT_EQ(tracer.eventCount(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
    // The thread re-registers transparently after a clear.
    {
        GSP_TRACE_SPAN("test/after_clear");
    }
    tracer.setEnabled(false);
    EXPECT_EQ(tracer.eventCount(), 1u);
    tracer.clear();
}

TEST(Tracer, ConcurrentEmissionFromEightThreads)
{
    constexpr unsigned n_threads = 8;
    constexpr int spans_per_thread = 500;
    resetTracer(1u << 12);
    obs::Tracer &tracer = obs::Tracer::instance();

    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t) {
        pool.emplace_back([t]() {
            obs::Tracer::instance().labelThread(
                "emitter-" + std::to_string(t));
            for (int i = 0; i < spans_per_thread; ++i) {
                GSP_TRACE_SPAN("test/concurrent");
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    tracer.setEnabled(false);
    EXPECT_EQ(tracer.eventCount(), n_threads * spans_per_thread);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
    std::string json = tracer.exportChromeTrace();
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("emitter-0"), std::string::npos);
    EXPECT_NE(json.find("emitter-7"), std::string::npos);
    tracer.clear();
}

TEST(Tracer, ChromeTraceShapeIsPerfettoLoadable)
{
    resetTracer();
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.labelThread("main-test");
    {
        GSP_TRACE_SPAN("test/outer");
        GSP_TRACE_SPAN("test/inner");
    }
    tracer.setEnabled(false);
    std::string json = tracer.exportChromeTrace();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"test/outer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"test/inner\""), std::string::npos);
    EXPECT_NE(json.find("main-test"), std::string::npos);
    tracer.clear();
}

TEST(Metrics, CounterGaugeHistogramBasics)
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &c = reg.counter("test/counter", "test counter");
    uint64_t base = c.value();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), base + 42);
    // Same name returns the same instrument.
    EXPECT_EQ(&reg.counter("test/counter"), &c);

    obs::Gauge &g = reg.gauge("test/gauge", "test gauge");
    g.set(-7);
    EXPECT_EQ(g.value(), -7);

    obs::Histogram &h = reg.histogram("test/hist", "test histogram");
    h.record(0);
    h.record(1);
    h.record(3);
    h.record(1000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1004u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.bucket(0), 1u);  // zeros
    EXPECT_EQ(h.bucket(1), 1u);  // [1, 2)
    EXPECT_EQ(h.bucket(2), 1u);  // [2, 4)
    EXPECT_EQ(h.bucket(10), 1u); // [512, 1024)
}

TEST(Metrics, SnapshotIsDeterministicAndSorted)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.counter("test/det_b").add(2);
    reg.counter("test/det_a").add(1);

    obs::MetricsSnapshot s1 = reg.snapshot();
    obs::MetricsSnapshot s2 = reg.snapshot();
    ASSERT_EQ(s1.counters.size(), s2.counters.size());
    for (std::size_t i = 0; i < s1.counters.size(); ++i) {
        EXPECT_EQ(s1.counters[i].first, s2.counters[i].first);
        EXPECT_EQ(s1.counters[i].second, s2.counters[i].second);
    }
    // Name-sorted capture order.
    for (std::size_t i = 1; i < s1.counters.size(); ++i)
        EXPECT_LT(s1.counters[i - 1].first, s1.counters[i].first);
    EXPECT_EQ(s1.toJson(), s2.toJson());
    EXPECT_TRUE(JsonChecker(s1.toJson()).valid()) << s1.toJson();
}

TEST(Metrics, DeltaFromSubtractsCountersAndHistograms)
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &c = reg.counter("test/delta_counter");
    obs::Histogram &h = reg.histogram("test/delta_hist");

    obs::MetricsSnapshot before = reg.snapshot();
    c.add(5);
    h.record(16);
    h.record(17);
    obs::MetricsSnapshot delta = reg.snapshot().deltaFrom(before);

    EXPECT_EQ(delta.counter("test/delta_counter"), 5u);
    EXPECT_EQ(delta.counter("test/absent"), 0u);
    bool found = false;
    for (const auto &hv : delta.histograms) {
        if (hv.name != "test/delta_hist")
            continue;
        found = true;
        EXPECT_EQ(hv.count, 2u);
        EXPECT_EQ(hv.sum, 33u);
    }
    EXPECT_TRUE(found);
}

TEST(Engine, ByteIdenticalWithTracingOnAndOff)
{
    SweepSpec spec = memoSweep();
    obs::Tracer &tracer = obs::Tracer::instance();

    for (unsigned jobs : {1u, 8u}) {
        tracer.setEnabled(false);
        tracer.clear();
        SweepResult off = runWithJobs(spec, jobs);
        resetTracer();
        SweepResult on = runWithJobs(spec, jobs);
        tracer.setEnabled(false);
        tracer.clear();
        // Spans observe, they never steer: results are bitwise equal
        // with tracing on or off at any worker count.
        test::expectSameRows(off, on);
    }
}

TEST(Engine, CaptureSpansHoldNoReplay)
{
    // A unit's capture only captures: each kernel of each
    // timing-unique unit is replayed once, by the unit's replay group
    // (the captured scenario included), outside engine/capture.
    resetTracer();
    SweepResult result = runWithJobs(memoSweep(), 1);
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(false);
    std::istringstream trace(tracer.exportChromeTrace());
    tracer.clear();

    // One event per line; ts and dur are microseconds printed with
    // three decimals, read back here as exact nanoseconds.
    auto field = [](const std::string &line, const std::string &key) {
        std::size_t at = line.find(key);
        return at == std::string::npos ? std::string()
                                       : line.substr(at + key.size());
    };
    auto ns = [&](const std::string &line, const std::string &key) {
        std::string v = field(line, key);
        std::size_t dot = v.find('.');
        return std::stoull(v.substr(0, dot)) * 1000 +
               std::stoull(v.substr(dot + 1, 3));
    };
    struct Span
    {
        std::string name;
        uint64_t t0_ns, t1_ns;
    };
    std::vector<Span> spans;
    for (std::string line; std::getline(trace, line);) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        std::string name = field(line, "\"name\":\"");
        uint64_t t0 = ns(line, "\"ts\":");
        spans.push_back({name.substr(0, name.find('"')), t0,
                         t0 + ns(line, "\"dur\":")});
    }
    std::size_t replays = 0;
    for (const Span &r : spans) {
        if (r.name != "sim/replay")
            continue;
        ++replays;
        for (const Span &c : spans)
            EXPECT_FALSE(c.name == "engine/capture" && c.t0_ns <= r.t0_ns &&
                         r.t1_ns <= c.t1_ns)
                << "sim/replay at " << r.t0_ns << " ns runs inside "
                << "engine/capture";
    }
    std::size_t unit_kernels = 0;
    for (const sim::ScenarioResult &row : result.rows())
        if (row.scenario.config.tech.node_nm == 40)
            unit_kernels += row.kernel_count;
    EXPECT_GT(unit_kernels, 0u);
    EXPECT_EQ(replays, unit_kernels);
}

TEST(Engine, TelemetryMatchesEngineCounts)
{
    SweepSpec spec = memoSweep(); // 4 scenarios, 2 timing-unique
    SweepResult result = runWithJobs(spec, 2);
    const SweepTelemetry &tel = result.telemetry();

    EXPECT_EQ(tel.scenarios, result.size());
    EXPECT_EQ(tel.scenarios, 4u);
    EXPECT_EQ(tel.captured, 2u);
    EXPECT_EQ(tel.replayed, 2u);
    EXPECT_EQ(tel.governed, 0u);
    EXPECT_EQ(tel.workers, 2u);
    EXPECT_GT(tel.wall_s, 0.0);

    // The registry delta agrees with the engine's asserted counts
    // (this test runs its engine alone, so the window is clean).
    EXPECT_EQ(tel.metrics.counter("engine/scenarios"), tel.scenarios);
    EXPECT_EQ(tel.metrics.counter("engine/scenarios_captured"),
              tel.captured);
    EXPECT_EQ(tel.metrics.counter("engine/scenarios_replayed"),
              tel.replayed);
    EXPECT_EQ(tel.metrics.counter("engine/batch_groups"), 2u);
    // One Simulator per scenario, and a cycle-level GPU only for the
    // units that captured: a governed member would re-capture its
    // clamps on its unit's GPU.
    EXPECT_EQ(tel.metrics.counter("engine/simulator_builds"),
              tel.scenarios);
    EXPECT_EQ(tel.metrics.counter("sim/timing_model_builds"),
              tel.captured);

    std::string json = tel.toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"schema\":\"gpusimpow-metrics-1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sweep\":{\"scenarios\":4,\"captured\":2,"
                        "\"replayed\":2,\"governed\":0"),
              std::string::npos);
}

TEST(Engine, TelemetryDefaultsForHandBuiltTables)
{
    SweepResult table(3);
    EXPECT_EQ(table.telemetry().scenarios, 0u);
    EXPECT_EQ(table.telemetry().replayed, 0u);
    EXPECT_TRUE(JsonChecker(table.telemetry().toJson()).valid());
}

TEST(Logger, LevelIsSafeUnderConcurrentSetAndEmit)
{
    Logger &logger = Logger::instance();
    LogLevel entry = logger.level();

    // Toggle between Quiet and Warn while other threads emit Debug
    // messages: Debug is filtered at both levels, so the test is
    // silent — but the old non-atomic level made this a data race
    // (caught by the TSan job this suite runs in).
    std::atomic<bool> stop{false};
    std::thread toggler([&]() {
        for (int i = 0; i < 2000; ++i)
            logger.setLevel(i % 2 ? LogLevel::Warn : LogLevel::Quiet);
        stop.store(true);
    });
    std::vector<std::thread> emitters;
    for (int t = 0; t < 3; ++t) {
        emitters.emplace_back([&]() {
            while (!stop.load())
                logger.emit(LogLevel::Debug, "test", "concurrent");
        });
    }
    toggler.join();
    for (std::thread &t : emitters)
        t.join();

    logger.setLevel(entry);
    SUCCEED();
}
