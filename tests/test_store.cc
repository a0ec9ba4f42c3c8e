/**
 * @file
 * Tests of the persistent snapshot store and the SweepSession built
 * on top of it: round-trip persistence across reopen, lookup by file
 * name (the hash-collision probe), the binary entry record (its
 * layout, and every check the decoder makes: each rejected record is
 * a counted miss, never fatal, whose warning names the byte offset,
 * and the next put replaces it), two stores sharing one directory,
 * and the session-level in-flight dedupe that keeps two concurrent
 * jobs from capturing the same scenario (and frees a failed
 * capture's claim).
 * Warm-store rows against a fresh run are test_differential's
 * warm-store leg.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
#include "row_text.hh"
#include "sim/session.hh"
#include "sim/simulator.hh"
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

std::string
readBytes(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** The first name of `key`'s probe chain: where its entry lives
 *  unless another key's hash collides with it. */
std::filesystem::path
entryPath(const std::filesystem::path &dir, const std::string &key)
{
    return dir / strformat("e%016llx.entry",
                           static_cast<unsigned long long>(
                               store::hashBytes(key)));
}

/** An entry of the earlier text formats: a magic line, then "key" and
 *  "snapshot" sections framed by length and FNV-1a, then an end
 *  marker; version 1 also carried a result record between the
 *  sections. */
std::string
textEntry(const std::string &magic, const std::string &key,
          const std::string &payload, bool result_line = false)
{
    auto section = [](const char *tag, const std::string &bytes) {
        unsigned long long h = 0xcbf29ce484222325ULL;
        for (unsigned char c : bytes)
            h = (h ^ c) * 0x100000001b3ULL;
        return strformat("%s %zu fnv1a %016llx\n", tag, bytes.size(), h) +
               bytes + "\n";
    };
    return magic + "\n" + section("key", key) +
           (result_line ? "result r\n" : "") +
           section("snapshot", payload) + "end " + magic + "\n";
}

/** A store record written word by word in the layout store/entry.cc
 *  documents, independently of the codec. */
struct Record
{
    std::string bytes{store::entry_magic};

    Record &
    word(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes += static_cast<char>(v >> (8 * i));
        return *this;
    }
    Record &real(double v) { return word(std::bit_cast<uint64_t>(v)); }
    Record &
    text(const std::string &s)
    {
        word(s.size());
        bytes += s;
        bytes.append((8 - s.size() % 8) % 8, '\0');
        return *this;
    }
    /** The bytes with their checksum appended. */
    std::string
    sealed() const
    {
        Record r = *this;
        return r.word(store::hashBytes(bytes)).bytes;
    }
};

/** Byte offsets of the key-"k" records below: every record field is
 *  a word, the key and the workload "vectoradd" padded to 1 and 2. */
constexpr std::size_t scale_at = 64;
constexpr std::size_t flags_at = 72;
constexpr std::size_t kernel_count_at = 88;
constexpr std::size_t time_s_at = 136;
constexpr std::size_t core_count_at = 144;

/** Fields of a one-kernel, one-sample traced record, for the
 *  rejection tests to vary one at a time. */
struct Fields
{
    uint64_t scale = 1;
    uint64_t flags = 3; // with_trace | verified
    double interval = 0x1p-20;
    uint64_t kernels = 1; // a kernel body is written when > 0
    uint64_t kernel_flags = 3; // repeatable | with_trace
    double time_s = 0x1p-10;
    uint64_t cores = 2; // at most 2 cores' counters are written
    uint64_t core_fields = perf::core_activity_fields;
    uint64_t mem_fields = perf::mem_activity_fields;
    double elapsed = 0x1p-10;
    double t0 = 0x1p-21;
    double t1 = 0x1p-20;
};

/** Counters 100 * core + i, uncore 1000 + i, totals 7, 8, 9. */
void
addActivity(Record &r, const Fields &f, double elapsed)
{
    r.word(f.cores).word(1).word(f.core_fields).word(f.mem_fields);
    for (uint64_t c = 0; c < std::min<uint64_t>(f.cores, 2); ++c)
        for (uint64_t i = 0; i < perf::core_activity_fields; ++i)
            r.word(100 * c + i);
    for (uint64_t i = 0; i < perf::mem_activity_fields; ++i)
        r.word(1000 + i);
    r.word(42).word(7).word(8).word(9).real(elapsed);
}

/** The record of key "k" with `f`'s fields, sealed. */
std::string
record(const Fields &f)
{
    Record r;
    r.text("k").text("vectoradd").word(f.scale).word(f.flags);
    r.real(f.interval).word(f.kernels);
    if (f.kernels > 0) {
        r.text("k0").word(f.kernel_flags).word(1000).word(2000);
        r.real(f.time_s);
        addActivity(r, f, f.elapsed);
        r.word(1).real(f.t0).real(f.t1);
        addActivity(r, f, f.t1 - f.t0);
    }
    return r.sealed();
}

/** The snapshot record(Fields{}) holds. */
ActivitySnapshot
recordSnapshot()
{
    auto activity = [](double elapsed) {
        perf::ChipActivity a;
        a.cores.resize(2);
        for (uint64_t c = 0; c < 2; ++c) {
            uint64_t i = 0;
#define X(name) a.cores[c].name = 100 * c + i++;
            GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
        }
        uint64_t i = 0;
#define X(name) a.mem.name = 1000 + i++;
        GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
        a.cluster_busy_cycles = {42};
        a.gpu_busy_cycles = 7;
        a.blocks_dispatched = 8;
        a.shader_cycles = 9;
        a.elapsed_s = elapsed;
        return a;
    };
    const Fields f;
    ActivitySnapshot snap;
    snap.workload = "vectoradd";
    snap.with_trace = true;
    snap.sample_interval_s = f.interval;
    KernelSnapshot &k = snap.kernels.emplace_back();
    k.label = "k0";
    k.with_trace = true;
    k.perf.cycles = 1000;
    k.perf.instructions = 2000;
    k.perf.time_s = f.time_s;
    k.perf.activity = activity(f.elapsed);
    k.samples.push_back({f.t0, f.t1, activity(f.t1 - f.t0)});
    return snap;
}

/** `bytes` with the word at `offset` replaced and the checksum
 *  recomputed, so the decoder's own checks see the change. */
std::string
withWord(const std::string &bytes, std::size_t offset, uint64_t v)
{
    Record r;
    r.bytes = bytes.substr(0, bytes.size() - 8);
    for (int i = 0; i < 8; ++i)
        r.bytes[offset + i] = static_cast<char>(v >> (8 * i));
    return r.sealed();
}

uint64_t
corruptCount()
{
    return obs::Registry::instance().counter("store/corrupt").value();
}

/** Fetch `key` from `store` with stderr captured into `warnings`. */
std::shared_ptr<const ActivitySnapshot>
fetchCapturing(SweepStore &store, const std::string &key,
               std::string &warnings)
{
    std::ostringstream err;
    std::streambuf *saved = std::cerr.rdbuf(err.rdbuf());
    auto snap = store.fetch(key);
    std::cerr.rdbuf(saved);
    warnings = err.str();
    return snap;
}

/**
 * Write `bytes` at key "k"'s entry path of a fresh store directory and
 * check the durability contract: opening the store counts nothing,
 * the fetch is a miss counted once as corrupt, never fatal, whose
 * warning carries `reason`, and a later put of the key replaces the
 * file in place and fetches back.
 */
void
expectCorruptMissThenRecovery(const std::string &bytes,
                              const std::string &reason = "")
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
    std::string warnings;
    EXPECT_EQ(fetchCapturing(store, key, warnings), nullptr) << reason;
    EXPECT_EQ(corruptCount() - corrupt0, 1u) << reason;
    EXPECT_NE(warnings.find("(" + reason), std::string::npos)
        << "expected reason: " << reason << "\nwarning: " << warnings;

    ASSERT_TRUE(store.put(key, makeSnapshot("vectoradd", 7)));
    auto fetched = store.fetch(key);
    ASSERT_NE(fetched, nullptr);
    EXPECT_EQ(fetched->scale, 7u);
    EXPECT_EQ(onlyEntryFile(dir.path), entryPath(dir.path, key));
    EXPECT_EQ(corruptCount() - corrupt0, 1u);
}

/** Write `bytes` at key "k"'s entry path and fetch them back; null
 *  (and a failure) when the record is rejected. */
std::shared_ptr<const ActivitySnapshot>
fetchRecord(const std::string &bytes)
{
    ScopedDir dir("record");
    std::filesystem::create_directories(dir.path);
    std::ofstream(entryPath(dir.path, "k"), std::ios::binary) << bytes;
    SweepStore store(dir.path);
    std::string warnings;
    auto snap = fetchCapturing(store, "k", warnings);
    EXPECT_NE(snap, nullptr) << warnings;
    return snap;
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
        EXPECT_EQ(test::snapshotText(*fetched), test::snapshotText(snap));
    }
    // A second process opening the same directory sees the entry.
    SweepStore reopened(dir.path);
    auto fetched = reopened.fetch(key);
    ASSERT_NE(fetched, nullptr);
    EXPECT_EQ(test::snapshotText(*fetched), test::snapshotText(snap));
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
        dir.path / strformat("e%016llx-1.entry",
                             static_cast<unsigned long long>(
                                 store::hashBytes(key_b)));
    EXPECT_TRUE(std::filesystem::exists(probed));
    EXPECT_EQ(entryFiles(dir.path).size(), 3u);

    SweepStore reopened(dir.path);
    auto a = reopened.fetch(key_a);
    auto b = reopened.fetch(key_b);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(test::snapshotText(*a),
              test::snapshotText(makeSnapshot("vectoradd", 1)));
    EXPECT_EQ(test::snapshotText(*b),
              test::snapshotText(makeSnapshot("matmul", 2)));
}

TEST(Store, TruncatedEntryIsACorruptMissNeverFatal)
{
    // A tear mid-record, as a crash between write and rename never
    // could but a disk error still can: at a word boundary the
    // checksum no longer matches, elsewhere the size is no record's.
    const std::string whole =
        store::encodeEntry("k", makeSnapshot("matmul", 2));
    expectCorruptMissThenRecovery(whole.substr(0, whole.size() / 16 * 8),
                                  "checksum mismatch at byte offset");
    expectCorruptMissThenRecovery(whole.substr(0, whole.size() - 3),
                                  "size");
}

TEST(Store, GarbageEntryAndStrayTempFileAreTolerated)
{
    // A corrupted file system leaves arbitrary bytes under the .entry
    // suffix, and entries of the older text formats fail the magic:
    // all are misses.
    expectCorruptMissThenRecovery("not a store entry at all\n",
                                  "bad magic at byte offset 0");
    const std::string payload =
        test::snapshotText(makeSnapshot("vectoradd", 1));
    expectCorruptMissThenRecovery(
        textEntry("gpusimpow-store-entry v1", "k", payload, true),
        "bad magic at byte offset 0");
    expectCorruptMissThenRecovery(
        textEntry("gpusimpow-store-entry v2", "k", payload),
        "bad magic at byte offset 0");

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

TEST(Store, OlderFormatEntriesArePrunedByThePut)
{
    // A directory written before the current record keeps entries
    // under names no lookup reaches. Opening the store reads no file;
    // its first put deletes the regular files under entry names that
    // lack the record's magic, and nothing else.
    ScopedDir dir("prune");
    {
        SweepStore store(dir.path);
        ASSERT_TRUE(store.put("current", makeSnapshot("vectoradd", 1)));
    }
    const auto current = entryPath(dir.path, "current");
    const auto v2 = dir.path / "e7c328ce53ef7c34e.entry";
    const auto shorter = dir.path / "e00000000000000aa-1.entry";
    const auto tmp = dir.path / ".put-1-0.tmp";
    const auto unrelated = dir.path / "notes.txt";
    const auto subdir = dir.path / "e00000000000000bb.entry";
    std::ofstream(v2, std::ios::binary) << textEntry(
        "gpusimpow-store-entry v2", "k",
        test::snapshotText(makeSnapshot("vectoradd", 1)));
    std::ofstream(shorter, std::ios::binary) << "gpusimpow";
    std::ofstream(tmp) << "partial entry the crash never renamed";
    std::ofstream(unrelated) << "not the store's";
    std::filesystem::create_directory(subdir);

    obs::Counter &pruned =
        obs::Registry::instance().counter("store/pruned");
    const uint64_t pruned0 = pruned.value();
    SweepStore reopened(dir.path);
    EXPECT_TRUE(std::filesystem::exists(v2));
    ASSERT_TRUE(reopened.put("next", makeSnapshot("matmul", 2)));
    EXPECT_EQ(pruned.value() - pruned0, 2u);
    EXPECT_FALSE(std::filesystem::exists(v2));
    EXPECT_FALSE(std::filesystem::exists(shorter));
    EXPECT_TRUE(std::filesystem::exists(current));
    EXPECT_TRUE(std::filesystem::exists(tmp));
    EXPECT_TRUE(std::filesystem::exists(unrelated));
    EXPECT_TRUE(std::filesystem::is_directory(subdir));
    EXPECT_NE(reopened.fetch("current"), nullptr);
    EXPECT_NE(reopened.fetch("next"), nullptr);

    // Once per store instance: a later put leaves new files alone.
    std::ofstream(v2, std::ios::binary) << "gpusimpow";
    ASSERT_TRUE(reopened.put("last", makeSnapshot("matmul", 3)));
    EXPECT_EQ(pruned.value() - pruned0, 2u);
    EXPECT_TRUE(std::filesystem::exists(v2));
}

TEST(Store, ChecksumMismatchIsAMissAtFetch)
{
    ScopedDir dir("tamper");
    SweepStore store(dir.path);
    ASSERT_TRUE(store.put("k", makeSnapshot("vectoradd", 1)));
    std::filesystem::path entry = onlyEntryFile(dir.path);
    // Overwrite bytes in the middle of the file, keeping its size.
    {
        std::fstream f(entry, std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(entry) / 2));
        f << "XXXX";
    }
    const uint64_t corrupt0 = corruptCount();
    std::string warnings;
    EXPECT_EQ(fetchCapturing(store, "k", warnings), nullptr);
    EXPECT_NE(warnings.find("checksum mismatch"), std::string::npos)
        << warnings;
    EXPECT_EQ(corruptCount() - corrupt0, 1u);
    ASSERT_TRUE(store.put("k", makeSnapshot("vectoradd", 2)));
    EXPECT_EQ(onlyEntryFile(dir.path), entry);
    ASSERT_NE(store.fetch("k"), nullptr);
}

TEST(Store, OverlongLengthIsCorrupt)
{
    // A length of 2^64-1 (a -1 written as unsigned) must be caught by
    // the length bound, with a checksum that matches: a check whose
    // end-of-field sum wraps would read the rest of the record as the
    // field.
    const std::string good = record(Fields{});
    ASSERT_NE(fetchRecord(good), nullptr); // control
    const uint64_t huge = std::numeric_limits<uint64_t>::max();
    expectCorruptMissThenRecovery(
        withWord(good, 24, huge),
        "key length 18446744073709551615 overruns the record at byte "
        "offset 24");
    expectCorruptMissThenRecovery(
        withWord(good, 40, huge),
        "workload length 18446744073709551615 overruns the record at "
        "byte offset 40");
    expectCorruptMissThenRecovery(
        withWord(good, 96, huge - 6),
        "kernel label length 18446744073709551609 overruns the record at "
        "byte offset 96");
}

TEST(StoreEntry, LayoutIsTheDocumentedRecord)
{
    // The word-by-word reference record and the codec agree byte for
    // byte, and decode back to the snapshot they were written from.
    const ActivitySnapshot snap = recordSnapshot();
    EXPECT_EQ(store::encodeEntry("k", snap), record(Fields{}));
    auto fetched = fetchRecord(record(Fields{}));
    ASSERT_NE(fetched, nullptr);
    EXPECT_EQ(test::snapshotText(*fetched), test::snapshotText(snap));
}

TEST(StoreEntry, CapturedSnapshotRoundTripsBitExactly)
{
    // A real traced capture: every counter, cluster and sample of
    // every kernel, and every double's bits, survive the record.
    sim::Scenario scenario;
    scenario.config = GpuConfig::gt240();
    scenario.workload = "vectoradd";
    SweepSession session(EngineOptions().withTrace(true, 5e-6));
    Simulator sim(scenario.config);
    ActivitySnapshot captured;
    session.runScenario(scenario, sim, &captured);
    ASSERT_FALSE(captured.kernels.empty());
    ASSERT_FALSE(captured.kernels[0].samples.empty());

    ScopedDir dir("captured");
    SweepStore store(dir.path);
    ASSERT_TRUE(store.put("k", captured));
    auto fetched = store.fetch("k");
    ASSERT_NE(fetched, nullptr);
    EXPECT_TRUE(test::sameText(test::snapshotText(*fetched),
                               test::snapshotText(captured)));
    EXPECT_EQ(fetched->kernels[0].perf.activity.format(),
              captured.kernels[0].perf.activity.format());
    // Re-encoding the decoded snapshot gives the stored bytes back.
    EXPECT_EQ(store::encodeEntry("k", *fetched),
              readBytes(onlyEntryFile(dir.path)));
}

TEST(StoreEntry, RejectsGarbage)
{
    expectCorruptMissThenRecovery("not a snapshot",
                                  "bad magic at byte offset 0");
    std::string v9 = record(Fields{});
    v9[store::entry_magic.size() - 1] = '9';
    expectCorruptMissThenRecovery(v9, "bad magic at byte offset 0");
    // A -1 written as unsigned is a count far past any bound...
    Fields negative;
    negative.scale = std::numeric_limits<uint64_t>::max();
    expectCorruptMissThenRecovery(
        record(negative), strformat("scale 18446744073709551615 exceeds "
                                    "the 32-bit range at byte offset %zu",
                                    scale_at));
    // ...and absurd counts are rejected before they size anything.
    Fields absurd;
    absurd.kernels = 9999999999999999;
    expectCorruptMissThenRecovery(
        record(absurd), strformat("implausible kernel count "
                                  "9999999999999999 at byte offset %zu",
                                  kernel_count_at));
}

TEST(StoreEntry, RejectsOutOfRangeScale)
{
    // The 32-bit boundary itself is a legal scale...
    Fields f;
    f.scale = 4294967295u;
    auto snap = fetchRecord(record(f));
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->scale, 4294967295u);
    // ...but one past it must not truncate to 0.
    f.scale = 4294967296u;
    expectCorruptMissThenRecovery(record(f),
                                  "scale 4294967296 exceeds the 32-bit "
                                  "range");
}

TEST(StoreEntry, RejectsUndefinedFlagBits)
{
    Fields f;
    f.flags = 4;
    expectCorruptMissThenRecovery(
        record(f), strformat("snapshot flags 4 set an undefined bit at "
                             "byte offset %zu",
                             flags_at));
    Fields k;
    k.kernel_flags = 7;
    expectCorruptMissThenRecovery(record(k),
                                  "kernel flags 7 set an undefined bit");
}

TEST(StoreEntry, RejectsInvalidSampleInterval)
{
    for (double bad : {-0x1p-10, std::nan(""), HUGE_VAL}) {
        Fields f;
        f.interval = bad;
        expectCorruptMissThenRecovery(record(f), "sample_interval_s ");
    }
    // A traced snapshot sampled at 0 is self-contradictory; the same
    // interval on an untraced snapshot is the legal default.
    Fields traced;
    traced.kernels = 0;
    traced.interval = 0.0;
    expectCorruptMissThenRecovery(
        record(traced), "traced snapshot requires sample_interval_s > 0");
    Fields untraced = traced;
    untraced.flags = 2;
    auto snap = fetchRecord(record(untraced));
    ASSERT_NE(snap, nullptr);
    EXPECT_FALSE(snap->with_trace);
    EXPECT_TRUE(snap->verified);
}

TEST(StoreEntry, CorruptReasonsNameTheByteOffset)
{
    // A bad field deep in the record is located for the reader: the
    // warning names the offset of the word that failed.
    Fields f;
    f.time_s = -1.0;
    expectCorruptMissThenRecovery(
        record(f), strformat("time_s -1 is not a finite non-negative "
                             "time at byte offset %zu",
                             time_s_at));
    // A record that ends inside a kernel (with a checksum that
    // matches) names the end of the record.
    Record cut;
    cut.text("k").text("vectoradd").word(1).word(3).real(0x1p-20).word(1);
    cut.text("k0").word(3).word(1000).word(2000).real(0x1p-10);
    addActivity(cut, Fields{}, 0x1p-10);
    expectCorruptMissThenRecovery(
        cut.sealed(), strformat("truncated record at byte offset %zu",
                                cut.bytes.size()));
}

TEST(StoreEntry, RejectsInvalidSamplesAndTimes)
{
    // A sample interval running backwards (t1 < t0).
    Fields backwards;
    backwards.t0 = 0x1p+0;
    backwards.t1 = 0x1p-1;
    expectCorruptMissThenRecovery(record(backwards),
                                  "sample interval runs backwards");
    // Non-finite and negative sample bounds.
    Fields nan_t0;
    nan_t0.t0 = std::nan("");
    expectCorruptMissThenRecovery(record(nan_t0), "sample t0 ");
    Fields negative_t0;
    negative_t0.t0 = -0x1p-1;
    expectCorruptMissThenRecovery(record(negative_t0), "sample t0 ");
    // Negative kernel time_s.
    Fields negative_time;
    negative_time.time_s = -0x1p+0;
    expectCorruptMissThenRecovery(record(negative_time), "time_s ");
    // Non-finite activity elapsed_s.
    Fields infinite;
    infinite.elapsed = HUGE_VAL;
    expectCorruptMissThenRecovery(record(infinite),
                                  "elapsed_s inf is not a finite");
}

TEST(StoreEntry, RejectsSchemaMismatch)
{
    // A record of another build's counter lists is rejected, never
    // misassigned.
    Fields core;
    core.core_fields = 3;
    expectCorruptMissThenRecovery(
        record(core), strformat("activity schema mismatch: 3 core "
                                "counters, this build has %u",
                                perf::core_activity_fields));
    Fields mem;
    mem.mem_fields = 2;
    expectCorruptMissThenRecovery(
        record(mem), strformat("activity schema mismatch: 2 mem "
                               "counters, this build has %u",
                               perf::mem_activity_fields));
}

TEST(StoreEntry, RejectsImplausibleCounts)
{
    for (uint64_t n : {uint64_t{9999999999999999},
                       std::numeric_limits<uint64_t>::max() - 3}) {
        Fields f;
        f.cores = n;
        expectCorruptMissThenRecovery(
            record(f), strformat("implausible core count %llu at byte "
                                 "offset %zu",
                                 static_cast<unsigned long long>(n),
                                 core_count_at));
    }
}

TEST(StoreEntry, RejectsTrailingBytesAndDirtyPadding)
{
    const std::string good = record(Fields{});
    Record longer;
    longer.bytes = good.substr(0, good.size() - 8);
    longer.word(0);
    expectCorruptMissThenRecovery(
        longer.sealed(), strformat("trailing bytes at byte offset %zu",
                                   good.size() - 8));
    // The key "k" pads to a word with zeros; any other byte there is
    // corruption, so every accepted record has one encoding.
    Record dirty;
    dirty.bytes = good.substr(0, good.size() - 8);
    dirty.bytes[33] = 'x';
    expectCorruptMissThenRecovery(
        dirty.sealed(), "key padding is not zero at byte offset 24");
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
