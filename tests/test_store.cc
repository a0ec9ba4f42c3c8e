/**
 * @file
 * Tests of the persistent snapshot store and the SweepSession built
 * on top of it: round-trip persistence across reopen, the durability
 * contract (torn and truncated entries are skipped, never fatal),
 * the advisory manifest, and the session-level in-flight dedupe that
 * keeps two concurrent jobs from capturing the same scenario.
 * Warm-store rows against a fresh run are test_differential's
 * warm-store leg.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "sim/engine.hh"
#include "sim/session.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "store/store.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::SweepResult;
using sim::SweepSession;
using sim::SweepSpec;
using store::SweepStore;

namespace {

/** A unique store directory per test, removed on scope exit. */
struct ScopedDir
{
    std::filesystem::path path;

    explicit ScopedDir(const std::string &tag)
    {
        static std::size_t counter = 0;
        path = std::filesystem::temp_directory_path() /
               strformat("gsp-test-%s-%zu", tag.c_str(), counter++);
        std::filesystem::remove_all(path);
    }

    ~ScopedDir() { std::filesystem::remove_all(path); }
};

/** A small synthetic snapshot — enough structure to make a payload
 *  whose round trip is meaningful, cheap enough for tight loops. */
ActivitySnapshot
makeSnapshot(const std::string &workload, unsigned scale)
{
    ActivitySnapshot snap;
    snap.workload = workload;
    snap.scale = scale;
    snap.verified = true;
    KernelSnapshot k;
    k.label = workload + "_kernel";
    k.perf.cycles = 1234 + scale;
    k.perf.instructions = 5678;
    k.perf.time_s = 0.25;
    snap.kernels.push_back(std::move(k));
    return snap;
}

/** The one .entry file in a store directory; fails the test when the
 *  count differs. */
std::filesystem::path
onlyEntryFile(const std::filesystem::path &dir)
{
    std::vector<std::filesystem::path> entries;
    for (const auto &de : std::filesystem::directory_iterator(dir))
        if (de.path().extension() == ".entry")
            entries.push_back(de.path());
    EXPECT_EQ(entries.size(), 1u);
    return entries.empty() ? std::filesystem::path() : entries.front();
}

/** Power-only sweep over one workload: one snapshot key, several
 *  replayable variants. */
SweepSpec
powerOnlySweep()
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.tech_nodes = {40u, 28u};
    spec.workloads = {"vectoradd"};
    return spec;
}

} // namespace

TEST(Store, PutFetchRoundTripSurvivesReopen)
{
    ScopedDir dir("roundtrip");
    ActivitySnapshot snap = makeSnapshot("vectoradd", 3);
    const std::string key = "vectoradd#node=40";
    {
        SweepStore store(dir.path);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_FALSE(store.contains(key));
        EXPECT_EQ(store.fetch(key), nullptr);
        ASSERT_TRUE(store.put(key, snap));
        EXPECT_TRUE(store.contains(key));
        EXPECT_EQ(store.size(), 1u);
        auto fetched = store.fetch(key);
        ASSERT_NE(fetched, nullptr);
        EXPECT_EQ(fetched->serialize(), snap.serialize());
    }
    // A second process opening the same directory sees the entry.
    SweepStore reopened(dir.path);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.corruptAtOpen(), 0u);
    auto fetched = reopened.fetch(key);
    ASSERT_NE(fetched, nullptr);
    EXPECT_EQ(fetched->serialize(), snap.serialize());
    EXPECT_EQ(fetched->workload, "vectoradd");
    EXPECT_EQ(fetched->scale, 3u);
}

TEST(Store, PutReplacesPreviousEntryForKey)
{
    ScopedDir dir("replace");
    SweepStore store(dir.path);
    const std::string key = "k";
    ASSERT_TRUE(store.put(key, makeSnapshot("vectoradd", 1)));
    ASSERT_TRUE(store.put(key, makeSnapshot("vectoradd", 9)));
    EXPECT_EQ(store.size(), 1u);
    auto fetched = store.fetch(key);
    ASSERT_NE(fetched, nullptr);
    EXPECT_EQ(fetched->scale, 9u);
}

TEST(Store, TruncatedEntryIsSkippedAtOpenNeverFatal)
{
    ScopedDir dir("torn");
    const std::string good_key = "good";
    {
        SweepStore store(dir.path);
        ASSERT_TRUE(store.put("doomed", makeSnapshot("matmul", 2)));
        std::filesystem::path victim = onlyEntryFile(dir.path);
        ASSERT_TRUE(store.put(good_key, makeSnapshot("vectoradd", 1)));
        // Tear the first entry mid-payload, as a crash between write
        // and rename never could but a disk error still can.
        std::error_code ec;
        std::filesystem::resize_file(
            victim, std::filesystem::file_size(victim) / 2, ec);
        ASSERT_FALSE(ec);
    }
    SweepStore reopened(dir.path);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.corruptAtOpen(), 1u);
    EXPECT_FALSE(reopened.contains("doomed"));
    ASSERT_NE(reopened.fetch(good_key), nullptr);
}

TEST(Store, GarbageEntryAndStrayTempFileAreTolerated)
{
    ScopedDir dir("garbage");
    {
        SweepStore store(dir.path);
        ASSERT_TRUE(store.put("good", makeSnapshot("vectoradd", 1)));
    }
    // A crash mid-put leaves a temp file; a corrupted file system
    // leaves arbitrary bytes under the .entry suffix. Neither may
    // break loading.
    {
        std::ofstream tmp(dir.path / "crashed.put-0.tmp");
        tmp << "partial entry the crash never renamed";
    }
    {
        std::ofstream bad(dir.path / "ebadbadbadbadbad.entry");
        bad << "not a store entry at all\n";
    }
    SweepStore reopened(dir.path);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.corruptAtOpen(), 1u);
    ASSERT_NE(reopened.fetch("good"), nullptr);
}

TEST(Store, ChecksumMismatchDropsEntryAtFetch)
{
    ScopedDir dir("tamper");
    SweepStore store(dir.path);
    ASSERT_TRUE(store.put("k", makeSnapshot("vectoradd", 1)));
    std::filesystem::path entry = onlyEntryFile(dir.path);
    // Corrupt the payload after the store indexed it: flip bytes in
    // the middle of the file, keeping the framing lengths intact.
    {
        std::fstream f(entry, std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(entry) / 2));
        f << "XXXX";
    }
    EXPECT_EQ(store.fetch("k"), nullptr);
    // The poisoned entry is dropped from the index, not retried.
    EXPECT_FALSE(store.contains("k"));
    EXPECT_EQ(store.size(), 0u);
}

TEST(Store, WrappedSectionLengthIsCorrupt)
{
    // A section length read as "-1" (or 2^64-1) must be corrupt. A
    // wrapping read made the end-of-section check overflow, so the
    // "section" swallowed the rest of the entry and, with that rest's
    // checksum in the header, the entry was indexed.
    auto fnv1a = [](const std::string &bytes) {
        unsigned long long h = 0xcbf29ce484222325ULL;
        for (unsigned char c : bytes)
            h = (h ^ c) * 0x100000001b3ULL;
        return h;
    };
    auto section = [&](const char *tag, const std::string &length,
                       const std::string &hashed) {
        return strformat("%s %s fnv1a %016llx\n", tag, length.c_str(),
                         fnv1a(hashed));
    };
    const std::string magic = SweepStore::entry_magic;
    const std::string payload = makeSnapshot("vectoradd", 1).serialize();
    const std::string end_line = "end " + magic + "\n";
    const std::string snapshot =
        section("snapshot", std::to_string(payload.size()), payload) +
        payload + "\n";
    const std::string key_section = section("key", "1", "k") + "k\n";
    // Control: the same framing with true lengths loads.
    {
        ScopedDir dir("wrapped");
        std::filesystem::create_directories(dir.path);
        std::ofstream(dir.path / "e0.entry", std::ios::binary)
            << magic << "\n" << key_section << "result r\n" << snapshot
            << end_line;
        SweepStore store(dir.path);
        EXPECT_EQ(store.size(), 1u);
        EXPECT_NE(store.fetch("k"), nullptr);
    }
    for (const char *length : {"-1", "18446744073709551615"}) {
        const std::string key_tail = "result r\n" + snapshot + end_line;
        const std::string wrapped_key =
            magic + "\n" + section("key", length, key_tail) + key_tail;
        const std::string wrapped_snapshot =
            magic + "\n" + key_section + "result r\n" +
            section("snapshot", length, end_line) + end_line;
        for (const std::string &text : {wrapped_key, wrapped_snapshot}) {
            ScopedDir dir("wrapped");
            std::filesystem::create_directories(dir.path);
            std::ofstream(dir.path / "e0.entry", std::ios::binary)
                << text;
            SweepStore store(dir.path);
            EXPECT_EQ(store.size(), 0u) << text;
            EXPECT_EQ(store.corruptAtOpen(), 1u) << text;
        }
    }
}

TEST(Store, ManifestIsAdvisoryAndRegenerated)
{
    ScopedDir dir("manifest");
    {
        SweepStore store(dir.path);
        ASSERT_TRUE(store.put("k", makeSnapshot("vectoradd", 1)));
    }
    std::filesystem::path manifest = dir.path / "manifest";
    ASSERT_TRUE(std::filesystem::exists(manifest));
    {
        std::ifstream in(manifest);
        std::string first_line;
        std::getline(in, first_line);
        EXPECT_EQ(first_line, SweepStore::manifest_magic);
    }
    // The manifest is advisory: deleting it must not lose entries.
    std::filesystem::remove(manifest);
    SweepStore reopened(dir.path);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_TRUE(std::filesystem::exists(manifest));
}

TEST(Store, EmptyStoreWritesItsManifestWithTheFirstPut)
{
    ScopedDir dir("manifest_empty");
    std::filesystem::path manifest = dir.path / "manifest";
    {
        SweepStore store(dir.path);
        EXPECT_FALSE(std::filesystem::exists(manifest));
        ASSERT_TRUE(store.put("k", makeSnapshot("vectoradd", 1)));
        EXPECT_TRUE(std::filesystem::exists(manifest));
    }
    // A manifest whose entries are all gone is rewritten at open, so
    // it stops listing them.
    for (const auto &de : std::filesystem::directory_iterator(dir.path)) {
        if (de.path().extension() == ".entry")
            std::filesystem::remove(de.path());
    }
    SweepStore reopened(dir.path);
    EXPECT_EQ(reopened.size(), 0u);
    std::ifstream in(manifest);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, std::string(SweepStore::manifest_magic) + "\n");
}

TEST(Session, ConcurrentIdenticalJobsCaptureOnce)
{
    ScopedDir dir("dedupe");
    SweepSpec spec = powerOnlySweep(); // one snapshot key

    auto session = std::make_shared<SweepSession>(
        EngineOptions().withJobs(2), store::openStore(dir.path));

    // Two clients race the same sweep through one session. The
    // in-flight dedupe must elect exactly one capturer; the other
    // job blocks on the claim and replays.
    SweepResult results[2];
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c)
        clients.emplace_back([&, c] {
            results[c] = session->submit(spec);
        });
    for (std::thread &t : clients)
        t.join();

    std::size_t captured = results[0].telemetry().captured +
                           results[1].telemetry().captured;
    std::size_t replayed = results[0].telemetry().replayed +
                           results[1].telemetry().replayed;
    EXPECT_EQ(captured, 1u); // one key, one capture across both jobs
    EXPECT_EQ(replayed, 2 * spec.size() - 1);
    EXPECT_EQ(results[0].formatTable(), results[1].formatTable());
    EXPECT_EQ(session->storeHandle()->size(), 1u);
}

TEST(Session, DedupeWorksWithoutAStore)
{
    SweepSpec spec = powerOnlySweep();
    auto session =
        std::make_shared<SweepSession>(EngineOptions().withJobs(2));

    SweepResult results[2];
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c)
        clients.emplace_back([&, c] {
            results[c] = session->submit(spec);
        });
    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(results[0].telemetry().captured +
                  results[1].telemetry().captured,
              1u);
    EXPECT_EQ(results[0].formatTable(), results[1].formatTable());
}

TEST(Session, RejectsIncoherentOptions)
{
    // The session owns the snapshot hooks.
    EngineOptions hooked;
    hooked.snapshot_source = [](const sim::Scenario &) {
        return nullptr;
    };
    EXPECT_THROW(SweepSession{hooked}, FatalError);
}

TEST(Session, StoreKeySeparatesTraceVariants)
{
    SweepSession plain{EngineOptions()};
    SweepSession traced(EngineOptions().withTrace(true, 1e-5));

    sim::Scenario scenario;
    scenario.config = GpuConfig::gt240();
    scenario.workload = "vectoradd";
    EXPECT_NE(plain.storeKey(scenario), traced.storeKey(scenario));

    // Same options, same scenario -> same content address.
    SweepSession plain2{EngineOptions()};
    EXPECT_EQ(plain.storeKey(scenario), plain2.storeKey(scenario));
}
