/**
 * @file
 * Seeded mutation fuzzers for every parser of untrusted bytes: activity
 * snapshots and their ChipActivity records, store entries, sweep
 * requests, wire frames and the config XML reader.
 *
 * Each corpus input is cut at every line boundary and then mutated by
 * bit flips, byte inserts and deletes, token duplication and digit
 * runs long enough to overflow a u64. Every mutant must end in a clean
 * error (FatalError, or a rejection the API reports) or in a valid
 * parse, never in a crash, a hang or a sanitizer report. A mutant that
 * parses must also be a fixed point of its own serializer. The seed
 * and the mutant counts are fixed, so any failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "config/gpu_config.hh"
#include "config/xml.hh"
#include "obs/metrics.hh"
#include "service/protocol.hh"
#include "sim/request.hh"
#include "sim/session.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "store/store.hh"

using namespace gpusimpow;

namespace {

constexpr uint64_t fuzz_seed = 20261017;
/** Random mutants per corpus input, on top of its line cuts. */
constexpr int mutants_per_input = 400;
/** Fewer for the golden anchors, which no parser accepts anyway. */
constexpr int golden_mutants = 20;

/** Feed `fn` every mutant of `text`: each line-boundary cut, then
 *  `count` random single mutations. */
void
forEachMutant(const std::string &text, SplitMix64 &rng, int count,
              const std::function<void(const std::string &)> &fn)
{
    for (std::size_t nl = text.find('\n'); nl != std::string::npos;
         nl = text.find('\n', nl + 1)) {
        fn(text.substr(0, nl));
        fn(text.substr(0, nl + 1));
    }
    auto at = [&](std::size_t size) {
        return static_cast<std::size_t>(rng.nextBounded(size + 1));
    };
    for (int i = 0; i < count; ++i) {
        std::string m = text;
        std::size_t pos = at(m.size());
        switch (rng.nextBounded(6)) {
          case 0: // bit flip
            if (pos < m.size())
                m[pos] = static_cast<char>(m[pos] ^ (1 << rng.nextBounded(8)));
            break;
          case 1: // byte insert, biased toward the bytes that matter
            m.insert(pos, 1, "0 \n-x.9p"[rng.nextBounded(8)]);
            break;
          case 2: // delete a short run
            m.erase(pos, 1 + rng.nextBounded(4));
            break;
          case 3: { // duplicate the token under pos
            std::size_t begin = m.find_last_of(" \n", pos);
            begin = begin == std::string::npos ? 0 : begin + 1;
            std::size_t end = m.find_first_of(" \n", begin);
            end = end == std::string::npos ? m.size() : end;
            m.insert(begin, m.substr(begin, end - begin) + " ");
            break;
          }
          case 4: // digit run past 2^64-1, prefixed to a token
            m.insert(pos, std::string(20 + rng.nextBounded(20), '9'));
            break;
          default: // truncation at an arbitrary byte
            m.resize(pos);
            break;
        }
        fn(m);
    }
}

/** Run one parse: true when it succeeds, false on a clean FatalError.
 *  Any other exception escaping a parser fails the test. */
bool
parses(const std::string &input, const std::function<void()> &parse)
{
    try {
        parse();
        return true;
    } catch (const FatalError &) {
        return false;
    } catch (const std::exception &e) {
        ADD_FAILURE() << "parser leaked " << e.what() << " on input:\n"
                      << input;
        return false;
    }
}

/** Snapshot parse: a mutant that parses is a serialize() fixed point. */
void
checkSnapshot(const std::string &text)
{
    ActivitySnapshot snap;
    if (!parses(text, [&] { snap = ActivitySnapshot::parse(text); }))
        return;
    const std::string once = snap.serialize();
    EXPECT_EQ(ActivitySnapshot::parse(once).serialize(), once);
}

void
checkChipActivity(const std::string &text)
{
    perf::ChipActivity act;
    if (!parses(text, [&] {
            TextCursor in(text);
            act = perf::ChipActivity::parse(in);
        }))
        return;
    std::ostringstream out;
    act.serialize(out);
    const std::string once = out.str();
    TextCursor again(once);
    std::ostringstream twice;
    perf::ChipActivity::parse(again).serialize(twice);
    EXPECT_EQ(twice.str(), once);
}

void
checkRequest(const std::string &text)
{
    sim::SweepRequest req;
    if (!parses(text, [&] { req = sim::SweepRequest::parse(text); }))
        return;
    const std::string once = req.serialize();
    EXPECT_EQ(sim::SweepRequest::parse(once).serialize(), once);
}

void
checkXml(const std::string &text)
{
    parses(text, [&] { xml::parse(text); });
    parses(text, [&] { GpuConfig::fromXml(text); });
}

/** A small traced snapshot, freshly captured: one workload with a
 *  sampling period coarse enough to keep a handful of samples. */
const ActivitySnapshot &
tracedSnapshot()
{
    static const ActivitySnapshot snap = [] {
        sim::Scenario scenario;
        scenario.config = GpuConfig::gt240();
        scenario.workload = "vectoradd";
        sim::EngineOptions opt;
        opt.with_trace = true;
        opt.sample_interval_s = 5e-6;
        sim::SweepSession session(opt);
        Simulator sim(scenario.config);
        ActivitySnapshot captured;
        session.runScenario(scenario, sim, &captured);
        return captured;
    }();
    return snap;
}

/** The golden anchors: text the parsers must reject cleanly. */
std::vector<std::string>
goldenCorpus()
{
    std::filesystem::path dir =
        std::filesystem::path(GPUSIMPOW_SOURCE_DIR) / "tests" / "golden";
    std::vector<std::filesystem::path> paths;
    for (const auto &de : std::filesystem::directory_iterator(dir))
        paths.push_back(de.path());
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> texts;
    for (const auto &p : paths) {
        std::ifstream in(p, std::ios::binary);
        texts.emplace_back(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }
    EXPECT_FALSE(texts.empty());
    return texts;
}

struct QuietLogs
{
    QuietLogs() { Logger::instance().setLevel(LogLevel::Quiet); }
    ~QuietLogs() { Logger::instance().setLevel(LogLevel::Warn); }
};

/** A store directory of this process, removed on scope exit. */
struct ScopedDir
{
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        strformat("gsp-fuzz-store-%d", static_cast<int>(::getpid()));

    ScopedDir() { std::filesystem::remove_all(path); }
    ~ScopedDir() { std::filesystem::remove_all(path); }
};

} // namespace

TEST(FuzzParsers, SnapshotText)
{
    const ActivitySnapshot &snap = tracedSnapshot();
    ASSERT_FALSE(snap.kernels.empty());
    ASSERT_FALSE(snap.kernels[0].samples.empty());
    const std::string text = snap.serialize();
    ASSERT_EQ(ActivitySnapshot::parse(text).serialize(), text);
    SplitMix64 rng(fuzz_seed);
    forEachMutant(text, rng, mutants_per_input, checkSnapshot);
    for (const std::string &golden : goldenCorpus())
        forEachMutant(golden, rng, golden_mutants, checkSnapshot);
}

TEST(FuzzParsers, ChipActivityRecord)
{
    std::ostringstream record;
    tracedSnapshot().kernels.at(0).perf.activity.serialize(record);
    SplitMix64 rng(fuzz_seed + 1);
    forEachMutant(record.str(), rng, mutants_per_input,
                  checkChipActivity);
    for (const std::string &golden : goldenCorpus())
        forEachMutant(golden, rng, golden_mutants, checkChipActivity);
}

TEST(FuzzParsers, StoreEntry)
{
    QuietLogs quiet;
    ScopedDir scoped;
    const std::filesystem::path &dir = scoped.path;
    const std::string key = "vectoradd#fuzz";
    std::filesystem::path entry;
    std::string text;
    {
        store::SweepStore store(dir);
        ASSERT_TRUE(store.put(key, tracedSnapshot()));
        for (const auto &de : std::filesystem::directory_iterator(dir))
            if (de.path().extension() == ".entry")
                entry = de.path();
        std::ifstream in(entry, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(text.empty());
    SplitMix64 rng(fuzz_seed + 2);
    // Each mutant is written at the key's entry name and fetched: a
    // snapshot that round-trips, or a miss counted once as corrupt.
    obs::Counter &corrupt =
        obs::Registry::instance().counter("store/corrupt");
    store::SweepStore store(dir);
    forEachMutant(text, rng, mutants_per_input,
                  [&](const std::string &m) {
        {
            std::ofstream out(entry, std::ios::binary | std::ios::trunc);
            out << m;
        }
        const uint64_t corrupt0 = corrupt.value();
        if (auto snap = store.fetch(key)) {
            const std::string once = snap->serialize();
            EXPECT_EQ(ActivitySnapshot::parse(once).serialize(), once);
            EXPECT_EQ(corrupt.value(), corrupt0);
        } else {
            EXPECT_EQ(corrupt.value() - corrupt0, 1u);
        }
    });
}

TEST(FuzzParsers, SweepRequest)
{
    sim::SweepRequest request = sim::SweepRequest()
                                    .withGpus("gt240,gtx580")
                                    .withWorkloads("vectoradd,matmul")
                                    .withNodes("40,28")
                                    .withVf("0.9:0.8,1:1")
                                    .withCoolings("stock,liquid")
                                    .withAmbient(300.0)
                                    .withTLimit(360.0)
                                    .withThrottle(true);
    request.config_xml = GpuConfig::gt240().toXml();
    SplitMix64 rng(fuzz_seed + 3);
    forEachMutant(request.serialize(), rng, mutants_per_input,
                  checkRequest);
    for (const std::string &golden : goldenCorpus())
        forEachMutant(golden, rng, golden_mutants, checkRequest);
}

TEST(FuzzParsers, WireFrames)
{
    // Record a frame stream as the service writes it.
    int rec[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, rec), 0);
    ASSERT_TRUE(service::writeFrame(
        rec[0], "job", sim::SweepRequest().withNodes("40").serialize()));
    ASSERT_TRUE(service::writeFrame(rec[0], "row", "gt240 vectoradd 1"));
    ASSERT_TRUE(service::writeFrame(rec[0], "done", ""));
    ::close(rec[0]);
    std::string stream;
    char chunk[4096];
    for (ssize_t n; (n = ::read(rec[1], chunk, sizeof(chunk))) > 0;)
        stream.append(chunk, static_cast<std::size_t>(n));
    ::close(rec[1]);
    ASSERT_FALSE(stream.empty());

    SplitMix64 rng(fuzz_seed + 4);
    forEachMutant(stream, rng, mutants_per_input,
                  [&](const std::string &m) {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        // The stream fits the socket buffer, so it is written whole
        // before the reader starts; closing makes the end an EOF.
        ASSERT_EQ(::write(fds[0], m.data(), m.size()),
                  static_cast<ssize_t>(m.size()));
        ::close(fds[0]);
        service::FrameReader reader(fds[1]);
        service::Frame frame;
        std::string err;
        // Each successful read consumes a frame, so the stream bounds
        // the loop; a parser that stops consuming fails here.
        std::size_t frames = 0;
        while (reader.read(frame, err))
            ASSERT_LE(++frames, m.size()) << "reader stopped consuming";
        ::close(fds[1]);
    });
}

TEST(FuzzParsers, ConfigXml)
{
    for (const GpuConfig &cfg : {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        const std::string text = cfg.toXml();
        ASSERT_NO_THROW(GpuConfig::fromXml(text));
        SplitMix64 rng(fuzz_seed + 5);
        forEachMutant(text, rng, mutants_per_input, checkXml);
    }
}
