#include "store/store.hh"

#include <algorithm>
#include <fstream>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace gpusimpow {
namespace store {

namespace {

/** The store's instrument set, registered once with descriptions. */
struct StoreMetrics
{
    obs::Counter &hit;
    obs::Counter &miss;
    obs::Counter &put;
    obs::Counter &put_error;
    obs::Counter &corrupt;
    obs::Gauge &entries;

    static StoreMetrics &instance()
    {
        obs::Registry &reg = obs::Registry::instance();
        static StoreMetrics m{
            reg.counter("store/hit",
                        "store fetches served from a persisted entry"),
            reg.counter("store/miss",
                        "store fetches with no entry for the key"),
            reg.counter("store/put", "snapshots persisted to the store"),
            reg.counter("store/put_error",
                        "store puts abandoned on I/O failure"),
            reg.counter("store/corrupt",
                        "entries skipped as corrupt at open or load"),
            reg.gauge("store/entries", "entries currently indexed"),
        };
        return m;
    }
};

/** FNV-1a over a byte span (keys embed newlines, never NUL). */
uint64_t
hashBytes(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One-line result record embedded in an entry: what the snapshot
 *  holds, for the manifest and human inspection — replay never reads
 *  it. Hex floats like every serialized value in the tree. */
std::string
resultRecord(const ActivitySnapshot &snap)
{
    double time_s = 0.0;
    for (const KernelSnapshot &k : snap.kernels)
        time_s += k.perf.time_s;
    return strformat("workload %s scale %u kernels %zu time_s %a "
                     "verified %d",
                     snap.workload.c_str(), snap.scale,
                     snap.kernels.size(), time_s,
                     snap.verified ? 1 : 0);
}

/**
 * Render one entry file: a line-oriented header around two
 * length-and-checksum framed byte sections (key, snapshot payload).
 * The trailing end marker makes truncation detectable even when the
 * snapshot section happens to parse.
 */
std::string
renderEntry(const std::string &key, const std::string &result,
            const std::string &payload)
{
    std::string out;
    out.reserve(key.size() + payload.size() + 256);
    out += SweepStore::entry_magic;
    out += '\n';
    out += strformat("key %zu fnv1a %016llx\n", key.size(),
                     static_cast<unsigned long long>(hashBytes(key)));
    out += key;
    out += '\n';
    out += "result ";
    out += result;
    out += '\n';
    out += strformat("snapshot %zu fnv1a %016llx\n", payload.size(),
                     static_cast<unsigned long long>(
                         hashBytes(payload)));
    out += payload;
    out += '\n';
    out += "end ";
    out += SweepStore::entry_magic;
    out += '\n';
    return out;
}

/** Parsed fields of a validated entry file: views into its text. */
struct ParsedEntry
{
    std::string_view key;
    std::string_view result;
    std::string_view payload;
};

/** Parse a "<tag> <nbytes> fnv1a <hex>" section header followed by
 *  the framed bytes; false on any mismatch. */
bool
takeSection(TextCursor &in, std::string_view tag,
            std::string_view &bytes)
{
    std::string_view header;
    if (!in.line(header))
        return false;
    TextCursor hs(header);
    uint64_t nbytes = 0;
    uint64_t want = 0;
    return hs.next() == tag && TextCursor::parseU64(hs.next(), nbytes) &&
           hs.next() == "fnv1a" &&
           TextCursor::parseU64(hs.next(), want, 16) &&
           in.bytes(nbytes, bytes) && hashBytes(bytes) == want;
}

/** Validate and decompose one entry file; false (with a reason) on
 *  any corruption — the caller skips and reports, never aborts. */
bool
parseEntry(std::string_view text, ParsedEntry &entry,
           std::string &reason)
{
    TextCursor in(text);
    std::string_view line;
    if (!in.line(line) || line != SweepStore::entry_magic) {
        reason = "bad magic";
        return false;
    }
    if (!takeSection(in, "key", entry.key)) {
        reason = "bad key section";
        return false;
    }
    if (!in.line(line) || !startsWith(line, "result ")) {
        reason = "bad result record";
        return false;
    }
    entry.result = line.substr(7);
    if (!takeSection(in, "snapshot", entry.payload)) {
        reason = "bad snapshot section";
        return false;
    }
    if (!in.line(line) || !startsWith(line, "end ") ||
        line.substr(4) != SweepStore::entry_magic) {
        reason = "missing end marker";
        return false;
    }
    return true;
}

/** Read a whole regular file into one buffer; false on I/O error. */
bool
readFile(const std::filesystem::path &path, std::string &out)
{
    // Sized from the opened stream, so a concurrent rename-into-place
    // cannot mix two files; a directory or FIFO is no entry at all.
    // `out` is left empty on failure.
    out.clear();
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec))
        return false;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return false;
    std::streamoff size = in.tellg();
    if (size < 0)
        return false;
    out.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(out.data(), size);
    if (in.gcount() == size)
        return true;
    out.clear();
    return false;
}

/** Write bytes to a temp file in the target's directory and rename
 *  into place — the atomicity half of the durability contract. */
bool
writeFileAtomic(const std::filesystem::path &path,
                const std::filesystem::path &tmp,
                const std::string &bytes)
{
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out)
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace

SweepStore::SweepStore(std::filesystem::path dir) : _dir(std::move(dir))
{
    GSP_TRACE_SPAN("store/open");
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    if (ec)
        fatal("store: cannot create directory ", _dir.string(), ": ",
              ec.message());
    std::lock_guard<std::mutex> lock(_mutex);
    scanLocked();
    // A fresh, empty store has nothing to index: its manifest comes
    // with the first put, which keeps opening one to a directory
    // creation and a scan. A manifest already present is regenerated
    // even when no entry survived the scan, so it never lists one.
    if (!_entries.empty() || std::filesystem::exists(_dir / "manifest", ec))
        rewriteManifestLocked();
    StoreMetrics::instance().entries.set(
        static_cast<int64_t>(_entries.size()));
}

void
SweepStore::scanLocked()
{
    StoreMetrics &m = StoreMetrics::instance();
    // Sorted paths make the duplicate-key winner below deterministic
    // for a freshly opened store.
    std::vector<std::filesystem::path> paths;
    for (const auto &de : std::filesystem::directory_iterator(_dir)) {
        if (de.path().extension() == ".entry")
            paths.push_back(de.path());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::filesystem::path &path : paths) {
        std::string text;
        ParsedEntry parsed;
        std::string reason = "unreadable";
        if (!readFile(path, text) ||
            !parseEntry(text, parsed, reason)) {
            warn("store: skipping corrupt entry ", path.string(), " (",
                 reason, ")");
            ++_corrupt_at_open;
            m.corrupt.add(1);
            continue;
        }
        Entry e;
        e.path = path;
        e.result = parsed.result;
        // Last writer wins on duplicate keys (two files can only
        // carry one key after an interrupted rewrite).
        _entries[std::string(parsed.key)] = std::move(e);
    }
}

std::filesystem::path
SweepStore::pathForLocked(const std::string &key) const
{
    std::string base = strformat(
        "e%016llx", static_cast<unsigned long long>(hashBytes(key)));
    for (std::size_t probe = 0;; ++probe) {
        std::filesystem::path candidate =
            _dir / (probe == 0
                        ? base + ".entry"
                        : strformat("%s-%zu.entry", base.c_str(),
                                    probe));
        bool taken = false;
        for (const auto &kv : _entries) {
            if (kv.first != key && kv.second.path == candidate) {
                taken = true; // 64-bit FNV collision: probe onward
                break;
            }
        }
        if (!taken)
            return candidate;
    }
}

std::shared_ptr<const ActivitySnapshot>
SweepStore::fetch(const std::string &key)
{
    GSP_TRACE_SPAN("store/fetch");
    StoreMetrics &m = StoreMetrics::instance();
    std::filesystem::path path;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _entries.find(key);
        if (it == _entries.end()) {
            m.miss.add(1);
            return nullptr;
        }
        path = it->second.path;
    }

    std::string text;
    ParsedEntry parsed;
    std::string reason = "unreadable";
    if (readFile(path, text) && parseEntry(text, parsed, reason) &&
        parsed.key == key) {
        try {
            auto snap = std::make_shared<ActivitySnapshot>(
                ActivitySnapshot::parse(parsed.payload));
            m.hit.add(1);
            return snap;
        } catch (const FatalError &e) {
            reason = e.what();
        }
    } else if (parsed.key != key && reason == "unreadable" &&
               !text.empty()) {
        reason = "key mismatch";
    }

    // Checksummed framing passed at open but the entry no longer
    // loads (deleted file, torn rewrite, schema drift): drop it from
    // the index and treat the fetch as a miss.
    warn("store: dropping corrupt entry ", path.string(), " (", reason,
         ")");
    m.corrupt.add(1);
    m.miss.add(1);
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _entries.find(key);
    if (it != _entries.end() && it->second.path == path) {
        _entries.erase(it);
        rewriteManifestLocked();
        m.entries.set(static_cast<int64_t>(_entries.size()));
    }
    return nullptr;
}

bool
SweepStore::put(const std::string &key, const ActivitySnapshot &snapshot)
{
    GSP_TRACE_SPAN("store/put");
    StoreMetrics &m = StoreMetrics::instance();
    const std::string payload = snapshot.serialize();
    const std::string result = resultRecord(snapshot);
    const std::string bytes = renderEntry(key, result, payload);

    std::lock_guard<std::mutex> lock(_mutex);
    std::filesystem::path path = pathForLocked(key);
    std::filesystem::path tmp =
        _dir / strformat(".put-%zu.tmp", _tmp_counter++);
    if (!writeFileAtomic(path, tmp, bytes)) {
        warn("store: failed to persist entry ", path.string(),
             " — continuing without it");
        m.put_error.add(1);
        return false;
    }
    Entry e;
    e.path = std::move(path);
    e.result = result;
    _entries[key] = std::move(e);
    m.put.add(1);
    rewriteManifestLocked();
    m.entries.set(static_cast<int64_t>(_entries.size()));
    return true;
}

void
SweepStore::rewriteManifestLocked()
{
    // Advisory index for humans and tooling: the entry files are the
    // source of truth (open() rebuilds the index from them), so a
    // stale manifest can mislead a reader but never the store.
    std::string text;
    text += manifest_magic;
    text += '\n';
    for (const auto &kv : _entries) {
        text += kv.second.path.filename().string();
        text += ' ';
        text += kv.second.result;
        text += '\n';
    }
    std::filesystem::path manifest = _dir / "manifest";
    std::filesystem::path tmp =
        _dir / strformat(".manifest-%zu.tmp", _tmp_counter++);
    if (!writeFileAtomic(manifest, tmp, text))
        warn("store: failed to rewrite manifest in ", _dir.string());
}

bool
SweepStore::contains(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.find(key) != _entries.end();
}

std::size_t
SweepStore::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

StoreHandle
openStore(const std::filesystem::path &dir)
{
    return std::make_shared<SweepStore>(dir);
}

} // namespace store
} // namespace gpusimpow
