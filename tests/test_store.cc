/**
 * @file
 * Tests of the persistent snapshot store and the SweepSession built
 * on top of it: round-trip persistence across reopen, lookup by file
 * name (the hash-collision probe), the durability contract (torn,
 * truncated and foreign entries are counted misses, never fatal, and
 * the next put replaces them), two stores sharing one directory, and
 * the session-level in-flight dedupe that keeps two concurrent jobs
 * from capturing the same scenario (and frees a failed capture's
 * claim).
 * Warm-store rows against a fresh run are test_differential's
 * warm-store leg.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
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

/** The .entry files in a store directory. */
std::vector<std::filesystem::path>
entryFiles(const std::filesystem::path &dir)
{
    std::vector<std::filesystem::path> entries;
    for (const auto &de : std::filesystem::directory_iterator(dir))
        if (de.path().extension() == ".entry")
            entries.push_back(de.path());
    return entries;
}

/** The one .entry file in a store directory; fails the test when the
 *  count differs. */
std::filesystem::path
onlyEntryFile(const std::filesystem::path &dir)
{
    std::vector<std::filesystem::path> entries = entryFiles(dir);
    EXPECT_EQ(entries.size(), 1u);
    return entries.empty() ? std::filesystem::path() : entries.front();
}

/** FNV-1a 64 over a byte string, as the store hashes keys and
 *  sections. */
unsigned long long
fnv1a(const std::string &bytes)
{
    unsigned long long h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

/** The first name of `key`'s probe chain: where its entry lives
 *  unless another key's hash collides with it. */
std::filesystem::path
entryPath(const std::filesystem::path &dir, const std::string &key)
{
    return dir / strformat("e%016llx.entry", fnv1a(key));
}

/** A "<tag> <length> fnv1a <hash of hashed>" section header. */
std::string
sectionHeader(const char *tag, const std::string &length,
              const std::string &hashed)
{
    return strformat("%s %s fnv1a %016llx\n", tag, length.c_str(),
                     fnv1a(hashed));
}

/** A complete, valid entry for `key` in the given format: version 1
 *  carried a result record between the key and snapshot sections. */
std::string
renderEntry(const std::string &magic, const std::string &key,
            const std::string &payload, bool result_line = false)
{
    return magic + "\n" +
           sectionHeader("key", std::to_string(key.size()), key) + key +
           "\n" + (result_line ? "result r\n" : "") +
           sectionHeader("snapshot", std::to_string(payload.size()),
                         payload) +
           payload + "\nend " + magic + "\n";
}

uint64_t
corruptCount()
{
    return obs::Registry::instance().counter("store/corrupt").value();
}

/**
 * Write `bytes` at a key's entry path of a fresh store directory and
 * check the durability contract: opening the store counts nothing,
 * the fetch is a miss counted once as corrupt, never fatal, and a
 * later put of the key replaces the file in place and fetches back.
 */
void
expectCorruptMissThenRecovery(const std::string &bytes)
{
    ScopedDir dir("corrupt");
    const std::string key = "k";
    std::filesystem::create_directories(dir.path);
    std::ofstream(entryPath(dir.path, key), std::ios::binary) << bytes;

    // The directory is the index: opening the store reads no entry,
    // so the corrupt file is found by its key's fetch.
    const uint64_t corrupt0 = corruptCount();
    SweepStore store(dir.path);
    EXPECT_EQ(corruptCount(), corrupt0);
    EXPECT_EQ(store.fetch(key), nullptr) << bytes;
    EXPECT_EQ(corruptCount() - corrupt0, 1u) << bytes;

    ASSERT_TRUE(store.put(key, makeSnapshot("vectoradd", 7)));
    auto fetched = store.fetch(key);
    ASSERT_NE(fetched, nullptr);
    EXPECT_EQ(fetched->scale, 7u);
    EXPECT_EQ(onlyEntryFile(dir.path), entryPath(dir.path, key));
    EXPECT_EQ(corruptCount() - corrupt0, 1u);
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
        EXPECT_EQ(store.fetch(key), nullptr);
        ASSERT_TRUE(store.put(key, snap));
        EXPECT_EQ(onlyEntryFile(dir.path), entryPath(dir.path, key));
        auto fetched = store.fetch(key);
        ASSERT_NE(fetched, nullptr);
        EXPECT_EQ(fetched->serialize(), snap.serialize());
    }
    // A second process opening the same directory sees the entry.
    SweepStore reopened(dir.path);
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
    EXPECT_EQ(onlyEntryFile(dir.path), entryPath(dir.path, key));
    auto fetched = store.fetch(key);
    ASSERT_NE(fetched, nullptr);
    EXPECT_EQ(fetched->scale, 9u);
}

TEST(Store, HashCollisionProbesToTheNextName)
{
    // No two real keys are known to collide in 64 bits, so make one:
    // a valid entry of key A sitting at key B's first name is what B
    // would find after a collision.
    ScopedDir dir("collision");
    const std::string key_a = "A";
    const std::string key_b = "B";
    {
        SweepStore store(dir.path);
        ASSERT_TRUE(store.put(key_a, makeSnapshot("vectoradd", 1)));
        std::filesystem::copy_file(entryPath(dir.path, key_a),
                                   entryPath(dir.path, key_b));
        ASSERT_TRUE(store.put(key_b, makeSnapshot("matmul", 2)));
    }
    const std::filesystem::path probed =
        dir.path / strformat("e%016llx-1.entry", fnv1a(key_b));
    EXPECT_TRUE(std::filesystem::exists(probed));
    EXPECT_EQ(entryFiles(dir.path).size(), 3u);

    SweepStore reopened(dir.path);
    auto a = reopened.fetch(key_a);
    auto b = reopened.fetch(key_b);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->serialize(), makeSnapshot("vectoradd", 1).serialize());
    EXPECT_EQ(b->serialize(), makeSnapshot("matmul", 2).serialize());
}

TEST(Store, TruncatedEntryIsACorruptMissNeverFatal)
{
    // A tear mid-payload, as a crash between write and rename never
    // could but a disk error still can.
    const std::string whole =
        renderEntry(SweepStore::entry_magic, "k",
                    makeSnapshot("matmul", 2).serialize());
    expectCorruptMissThenRecovery(whole.substr(0, whole.size() / 2));
}

TEST(Store, GarbageEntryAndStrayTempFileAreTolerated)
{
    // A corrupted file system leaves arbitrary bytes under the .entry
    // suffix, and an entry of the older format (a result record
    // between the sections) fails the magic line: both are misses.
    expectCorruptMissThenRecovery("not a store entry at all\n");
    expectCorruptMissThenRecovery(
        renderEntry("gpusimpow-store-entry v1", "k",
                    makeSnapshot("vectoradd", 1).serialize(), true));

    // A crash mid-put leaves a temp file, which no lookup reads.
    ScopedDir dir("garbage");
    {
        SweepStore store(dir.path);
        ASSERT_TRUE(store.put("good", makeSnapshot("vectoradd", 1)));
    }
    std::ofstream(dir.path / ".put-1-0.tmp")
        << "partial entry the crash never renamed";
    SweepStore reopened(dir.path);
    ASSERT_NE(reopened.fetch("good"), nullptr);
}

TEST(Store, ChecksumMismatchIsAMissAtFetch)
{
    ScopedDir dir("tamper");
    SweepStore store(dir.path);
    ASSERT_TRUE(store.put("k", makeSnapshot("vectoradd", 1)));
    std::filesystem::path entry = onlyEntryFile(dir.path);
    // Flip bytes in the middle of the file, keeping the framing
    // lengths intact.
    {
        std::fstream f(entry, std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(entry) / 2));
        f << "XXXX";
    }
    const uint64_t corrupt0 = corruptCount();
    EXPECT_EQ(store.fetch("k"), nullptr);
    EXPECT_EQ(corruptCount() - corrupt0, 1u);
    ASSERT_TRUE(store.put("k", makeSnapshot("vectoradd", 2)));
    EXPECT_EQ(onlyEntryFile(dir.path), entry);
    ASSERT_NE(store.fetch("k"), nullptr);
}

TEST(Store, WrappedSectionLengthIsCorrupt)
{
    // A section length read as "-1" (or 2^64-1) must be corrupt. A
    // wrapping read made the end-of-section check overflow, so the
    // "section" swallowed the rest of the entry and, with that rest's
    // checksum in the header, the entry was accepted.
    const std::string magic = SweepStore::entry_magic;
    const std::string payload = makeSnapshot("vectoradd", 1).serialize();
    const std::string end_line = "end " + magic + "\n";
    const std::string snapshot =
        sectionHeader("snapshot", std::to_string(payload.size()),
                      payload) +
        payload + "\n";
    const std::string key_section = sectionHeader("key", "1", "k") + "k\n";
    // Control: the same framing with true lengths loads.
    {
        ScopedDir dir("wrapped");
        std::filesystem::create_directories(dir.path);
        const std::string text = magic + "\n" + key_section + snapshot +
                                 end_line;
        EXPECT_EQ(text, renderEntry(magic, "k", payload));
        std::ofstream(entryPath(dir.path, "k"), std::ios::binary)
            << text;
        SweepStore store(dir.path);
        EXPECT_NE(store.fetch("k"), nullptr);
    }
    for (const char *length : {"-1", "18446744073709551615"}) {
        const std::string key_tail = snapshot + end_line;
        const std::string wrapped_key =
            magic + "\n" + sectionHeader("key", length, key_tail) +
            key_tail;
        const std::string wrapped_snapshot =
            magic + "\n" + key_section +
            sectionHeader("snapshot", length, end_line) + end_line;
        expectCorruptMissThenRecovery(wrapped_key);
        expectCorruptMissThenRecovery(wrapped_snapshot);
    }
}

TEST(Store, TwoInstancesOnOneDirectoryLoseNoPut)
{
    // Two processes sharing one store are two instances on one
    // directory: each runs its puts on its own thread, and a third
    // instance must then find every key, with no put abandoned.
    obs::Counter &put_error =
        obs::Registry::instance().counter("store/put_error");
    const uint64_t put_error0 = put_error.value();
    constexpr int rounds = 20;
    constexpr unsigned puts_per_instance = 200;
    for (int round = 0; round < rounds; ++round) {
        ScopedDir dir("shared");
        SweepStore first(dir.path);
        SweepStore second(dir.path);
        std::vector<std::thread> writers;
        for (SweepStore *store : {&first, &second})
            writers.emplace_back([store, writer = writers.size()] {
                for (unsigned i = 0; i < puts_per_instance; ++i)
                    store->put(strformat("%zu/%u", writer, i),
                               makeSnapshot("vectoradd", i));
            });
        for (std::thread &t : writers)
            t.join();

        SweepStore reader(dir.path);
        std::size_t found = 0;
        for (std::size_t writer = 0; writer < writers.size(); ++writer)
            for (unsigned i = 0; i < puts_per_instance; ++i) {
                auto snap = reader.fetch(strformat("%zu/%u", writer, i));
                found += snap != nullptr && snap->scale == i;
            }
        ASSERT_EQ(found, writers.size() * puts_per_instance)
            << "round " << round;
    }
    EXPECT_EQ(put_error.value(), put_error0);
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
    EXPECT_EQ(entryFiles(dir.path).size(), 1u);
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

TEST(Session, FailedCaptureReleasesItsClaim)
{
    // A capture that throws must still drop its claim on the key, or
    // every later job needing that key would wait forever. Two jobs
    // submit the same unregistered workload to one session: each
    // either claims and fails, or waits for the other's claim, then
    // re-claims and fails.
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"no-such-workload"};
    auto session =
        std::make_shared<SweepSession>(EngineOptions().withJobs(1));

    struct Job
    {
        std::future<void> done;
        std::thread thread;
    };
    auto start = [&] {
        std::packaged_task<void()> task([session, spec] {
            session->submit(spec);
        });
        Job job{task.get_future(), {}};
        job.thread = std::thread(std::move(task));
        return job;
    };
    auto expectFails = [](Job job) {
        if (job.done.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
            // Left behind, so the failure is reported instead of
            // hanging in join().
            job.thread.detach();
            FAIL() << "a job waits on a claim nobody holds";
        }
        job.thread.join();
        EXPECT_THROW(job.done.get(), FatalError);
    };
    Job first = start();
    Job second = start();
    expectFails(std::move(first));
    expectFails(std::move(second));
    // Both failed: a third job re-claims the key.
    expectFails(start());
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
