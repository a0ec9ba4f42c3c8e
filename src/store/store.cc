#include "store/store.hh"

#include <atomic>
#include <fstream>
#include <string_view>
#include <system_error>
#include <utility>

#include <unistd.h>

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
                        "fetches that found a corrupt entry (a miss)"),
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

/**
 * Render one entry file: a line-oriented header around two
 * length-and-checksum framed byte sections (key, snapshot payload).
 * The trailing end marker makes truncation detectable even when the
 * snapshot section happens to parse.
 */
std::string
renderEntry(const std::string &key, const std::string &payload)
{
    std::string out;
    out.reserve(key.size() + payload.size() + 256);
    out += SweepStore::entry_magic;
    out += '\n';
    out += strformat("key %zu fnv1a %016llx\n", key.size(),
                     static_cast<unsigned long long>(hashBytes(key)));
    out += key;
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
 *  any corruption — the caller reports a miss, never aborts. */
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
    // cannot mix two files. `out` is left empty on failure.
    out.clear();
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

/** Temp-file sequence shared by every store instance of the process;
 *  with the pid in the name, two stores on one directory (in one
 *  process or two) never write the same temp file. */
std::atomic<std::size_t> tmp_counter{0};

/** Name of the `probe`-th file of `key`'s chain in `dir`: a 64-bit
 *  FNV collision moves the later key to `-1`, `-2`, ... */
std::filesystem::path
probePath(const std::filesystem::path &dir, const std::string &key,
          std::size_t probe)
{
    const unsigned long long hash = hashBytes(key);
    return dir / (probe == 0 ? strformat("e%016llx.entry", hash)
                             : strformat("e%016llx-%zu.entry", hash,
                                         probe));
}

/** What one name of a key's probe chain holds. */
enum class Probe
{
    missing,   ///< no file: the end of the chain
    corrupt,   ///< a file that fails validation (`reason` says why)
    other_key, ///< a valid entry of a colliding key: probe onward
    this_key,  ///< a valid entry of the key (`parsed` views `text`)
};

/** Read and classify the file at one probe name of `key`'s chain. */
Probe
readProbe(const std::filesystem::path &path, const std::string &key,
          std::string &text, ParsedEntry &parsed, std::string &reason)
{
    std::error_code ec;
    const std::filesystem::file_type type =
        std::filesystem::status(path, ec).type();
    if (type == std::filesystem::file_type::not_found)
        return Probe::missing;
    // A directory or FIFO under an entry name is no entry at all.
    reason = "unreadable";
    if (type != std::filesystem::file_type::regular ||
        !readFile(path, text) || !parseEntry(text, parsed, reason))
        return Probe::corrupt;
    return parsed.key == key ? Probe::this_key : Probe::other_key;
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
}

std::shared_ptr<const ActivitySnapshot>
SweepStore::fetch(const std::string &key)
{
    GSP_TRACE_SPAN("store/fetch");
    StoreMetrics &m = StoreMetrics::instance();
    std::string text;
    ParsedEntry parsed;
    std::string reason;
    for (std::size_t probe = 0;; ++probe) {
        const std::filesystem::path path = probePath(_dir, key, probe);
        const Probe found = readProbe(path, key, text, parsed, reason);
        if (found == Probe::other_key)
            continue;
        if (found == Probe::missing) {
            m.miss.add(1);
            return nullptr;
        }
        if (found == Probe::this_key) {
            try {
                auto snap = std::make_shared<ActivitySnapshot>(
                    ActivitySnapshot::parse(parsed.payload));
                m.hit.add(1);
                return snap;
            } catch (const FatalError &e) {
                reason = e.what();
            }
        }
        // Torn write, disk error, an older entry format or schema
        // drift: the fetch is a miss, and the put of the recaptured
        // snapshot takes this name back.
        warn("store: corrupt entry ", path.string(), " (", reason,
             "), read as a miss");
        m.corrupt.add(1);
        m.miss.add(1);
        return nullptr;
    }
}

bool
SweepStore::put(const std::string &key, const ActivitySnapshot &snapshot)
{
    GSP_TRACE_SPAN("store/put");
    StoreMetrics &m = StoreMetrics::instance();
    const std::string bytes = renderEntry(key, snapshot.serialize());
    const std::filesystem::path tmp =
        _dir / strformat(".put-%ld-%zu.tmp",
                         static_cast<long>(::getpid()),
                         tmp_counter.fetch_add(1));

    std::lock_guard<std::mutex> lock(_mutex);
    // The first name that is free, holds this key or is corrupt.
    std::string text;
    ParsedEntry parsed;
    std::string reason;
    std::filesystem::path path;
    for (std::size_t probe = 0;; ++probe) {
        path = probePath(_dir, key, probe);
        if (readProbe(path, key, text, parsed, reason) !=
            Probe::other_key)
            break;
    }
    if (!writeFileAtomic(path, tmp, bytes)) {
        warn("store: failed to persist entry ", path.string(),
             " — continuing without it");
        m.put_error.add(1);
        return false;
    }
    m.put.add(1);
    return true;
}

StoreHandle
openStore(const std::filesystem::path &dir)
{
    return std::make_shared<SweepStore>(dir);
}

} // namespace store
} // namespace gpusimpow
