/**
 * @file
 * Seeded mutation fuzzers for every parser of untrusted bytes: store
 * entries (the binary snapshot record), sweep requests, wire frames
 * and the config XML reader.
 *
 * Each text corpus input is cut at every line boundary and then
 * mutated by bit flips, byte inserts and deletes, token duplication
 * and digit runs long enough to overflow a u64. A store record is cut
 * at every byte, its bits flipped and its words set to lengths and
 * counts up to 2^64-1, each also with the checksum recomputed so the
 * decoder's own checks are reached. Every mutant must end in a clean
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

/** Decode a store record under `key`, which must never throw: a
 *  record of the key must re-encode to the same bytes (the decoder
 *  accepts one encoding per snapshot), and a rejected one must say
 *  where it failed. Returns what the decoder found. */
store::EntryMatch
checkEntry(const std::string &bytes, const std::string &key)
{
    ActivitySnapshot snap;
    std::string reason;
    store::EntryMatch found = store::EntryMatch::corrupt;
    try {
        found = store::decodeEntry(bytes, key, &snap, reason);
    } catch (const std::exception &e) {
        ADD_FAILURE() << "entry decoder threw " << e.what();
        return store::EntryMatch::corrupt;
    }
    if (found == store::EntryMatch::this_key) {
        EXPECT_EQ(store::encodeEntry(key, snap), bytes);
    } else if (found == store::EntryMatch::corrupt) {
        EXPECT_TRUE(reason.find("byte offset ") != std::string::npos ||
                    reason.find("size ") == 0)
            << reason;
    }
    return found;
}

/** `body` sealed with its checksum, as the encoder ends a record. */
std::string
sealed(std::string body)
{
    const uint64_t sum = store::hashBytes(body);
    for (int i = 0; i < 8; ++i)
        body += static_cast<char>(sum >> (8 * i));
    return body;
}

/** `entry` with its checksum recomputed after a change to its body. */
std::string
resealed(const std::string &entry)
{
    return sealed(entry.substr(0, entry.size() - 8));
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

TEST(FuzzParsers, StoreEntry)
{
    const std::string key = "vectoradd#fuzz";
    const ActivitySnapshot &snap = tracedSnapshot();
    ASSERT_FALSE(snap.kernels.empty());
    ASSERT_FALSE(snap.kernels[0].samples.empty());
    const std::string entry = store::encodeEntry(key, snap);
    ASSERT_EQ(checkEntry(entry, key), store::EntryMatch::this_key);
    EXPECT_EQ(checkEntry(entry, "another key"),
              store::EntryMatch::other_key);
    const std::size_t words = entry.size() / 8;

    // Truncation at every byte, and at every word with the checksum
    // recomputed, so the decoder's own bounds see the short record.
    for (std::size_t n = 0; n < entry.size(); ++n) {
        EXPECT_EQ(checkEntry(entry.substr(0, n), key),
                  store::EntryMatch::corrupt)
            << n;
        if (n % 8 == 0 && n > 0) {
            EXPECT_EQ(checkEntry(sealed(entry.substr(0, n - 8)), key),
                      store::EntryMatch::corrupt)
                << n;
        }
    }

    // Single-bit flips: every bit of the leading words (the header,
    // the first kernel and its activity's counts), then random ones,
    // each as written (the checksum catches it) and resealed.
    SplitMix64 rng(fuzz_seed);
    auto flipped = [&](std::size_t bit) {
        std::string m = entry;
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
        return m;
    };
    std::vector<std::size_t> bits;
    for (std::size_t bit = 0; bit < std::min<std::size_t>(words, 40) * 64;
         ++bit)
        bits.push_back(bit);
    for (int i = 0; i < 2 * mutants_per_input; ++i)
        bits.push_back(rng.nextBounded((entry.size() - 8) * 8));
    for (std::size_t bit : bits) {
        const std::string m = flipped(bit);
        EXPECT_EQ(checkEntry(m, key), store::EntryMatch::corrupt) << bit;
        checkEntry(resealed(m), key);
    }

    // Lengths and counts up to 2^64-1 in every leading word and in
    // random ones, resealed.
    std::vector<std::size_t> at;
    for (std::size_t w = 3; w < std::min<std::size_t>(words - 1, 160); ++w)
        at.push_back(w);
    for (int i = 0; i < mutants_per_input / 2; ++i)
        at.push_back(3 + rng.nextBounded(words - 4));
    for (std::size_t w : at)
        for (uint64_t v : {~uint64_t{0}, ~uint64_t{0} - 7, uint64_t{1} << 63,
                           uint64_t{1} << 32, uint64_t{1} << 20,
                           (uint64_t{1} << 20) + 1,
                           static_cast<uint64_t>(words)}) {
            std::string m = entry;
            for (int i = 0; i < 8; ++i)
                m[w * 8 + i] = static_cast<char>(v >> (8 * i));
            checkEntry(resealed(m), key);
        }

    // An entry of the earlier text format, and the golden anchors.
    EXPECT_EQ(checkEntry("gpusimpow-store-entry v2\nkey " +
                             std::to_string(key.size()) +
                             " fnv1a 0000000000000000\n" + key + "\n",
                         key),
              store::EntryMatch::corrupt);
    for (const std::string &golden : goldenCorpus())
        forEachMutant(golden, rng, golden_mutants,
                      [&](const std::string &m) { checkEntry(m, key); });
}

TEST(FuzzParsers, StoreFetchCountsEveryRejection)
{
    // Through the store: each mutant written at the key's entry name
    // and fetched is a snapshot that round-trips, or a miss counted
    // once as corrupt.
    QuietLogs quiet;
    ScopedDir scoped;
    const std::string key = "vectoradd#fuzz";
    const std::string entry = store::encodeEntry(key, tracedSnapshot());
    store::SweepStore store(scoped.path);
    ASSERT_TRUE(store.put(key, tracedSnapshot()));
    std::filesystem::path path;
    for (const auto &de : std::filesystem::directory_iterator(scoped.path))
        if (de.path().extension() == ".entry")
            path = de.path();
    obs::Counter &corrupt =
        obs::Registry::instance().counter("store/corrupt");
    SplitMix64 rng(fuzz_seed + 2);
    for (int i = 0; i < mutants_per_input / 4; ++i) {
        std::string m = entry;
        const std::size_t bit = rng.nextBounded(entry.size() * 8);
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
        if (i % 2)
            m = resealed(m);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << m;
        }
        const uint64_t corrupt0 = corrupt.value();
        if (auto fetched = store.fetch(key)) {
            EXPECT_EQ(store::encodeEntry(key, *fetched), m);
            EXPECT_EQ(corrupt.value(), corrupt0);
        } else {
            EXPECT_EQ(corrupt.value() - corrupt0, 1u);
        }
    }
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
