#include "store/store.hh"

#include <atomic>
#include <fstream>
#include <optional>
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
    obs::Counter &pruned;

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
            reg.counter("store/pruned",
                        "older-format entry files deleted by a put"),
        };
        return m;
    }
};

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
 *  hash collision moves the later key to `-1`, `-2`, ... */
std::filesystem::path
probePath(const std::filesystem::path &dir, const std::string &key,
          std::size_t probe)
{
    const unsigned long long hash = hashBytes(key);
    return dir / (probe == 0 ? strformat("e%016llx.entry", hash)
                             : strformat("e%016llx-%zu.entry", hash,
                                         probe));
}

/** True when the file at `path` starts with entry_magic (false when
 *  it is shorter or cannot be opened). */
bool
startsWithMagic(const std::filesystem::path &path)
{
    std::string head(entry_magic.size(), '\0');
    std::ifstream in(path, std::ios::binary);
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
    return in && head == entry_magic;
}

/**
 * Delete the regular files under entry names in `dir` that do not
 * start with entry_magic, and count them in `store/pruned`. Such a
 * file is an older format, named by another hash: no lookup reaches
 * it, so it would only accumulate. It ends no probe chain early
 * either, since a put takes over a corrupt name.
 */
void
pruneOlderFormats(const std::filesystem::path &dir)
{
    std::size_t pruned = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        std::error_code file_ec;
        if (name.starts_with('e') && name.ends_with(".entry") &&
            it->is_regular_file(file_ec) && !startsWithMagic(it->path()) &&
            std::filesystem::remove(it->path(), file_ec))
            ++pruned;
    }
    StoreMetrics::instance().pruned.add(pruned);
}

/** Read and decode the file at one probe name of `key`'s chain
 *  (the snapshot too, when `snapshot` is not null); nullopt when no
 *  file is there, the end of the chain. */
std::optional<EntryMatch>
readProbe(const std::filesystem::path &path, const std::string &key,
          ActivitySnapshot *snapshot, std::string &reason)
{
    std::error_code ec;
    const std::filesystem::file_type type =
        std::filesystem::status(path, ec).type();
    if (type == std::filesystem::file_type::not_found)
        return std::nullopt;
    // A directory or FIFO under an entry name is no entry at all.
    std::string bytes;
    if (type != std::filesystem::file_type::regular ||
        !readFile(path, bytes)) {
        reason = "unreadable";
        return EntryMatch::corrupt;
    }
    return decodeEntry(bytes, key, snapshot, reason);
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
    std::string reason;
    for (std::size_t probe = 0;; ++probe) {
        const std::filesystem::path path = probePath(_dir, key, probe);
        auto snap = std::make_shared<ActivitySnapshot>();
        const std::optional<EntryMatch> found =
            readProbe(path, key, snap.get(), reason);
        if (found == EntryMatch::other_key)
            continue;
        if (!found) {
            m.miss.add(1);
            return nullptr;
        }
        if (found == EntryMatch::this_key) {
            m.hit.add(1);
            return snap;
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
    const std::string bytes = encodeEntry(key, snapshot);
    const std::filesystem::path tmp =
        _dir / strformat(".put-%ld-%zu.tmp",
                         static_cast<long>(::getpid()),
                         tmp_counter.fetch_add(1));

    std::lock_guard<std::mutex> lock(_mutex);
    // Pruning waits for the first put: only a store that is written
    // to grows, and opening one to read it reads no file.
    if (!_pruned) {
        pruneOlderFormats(_dir);
        _pruned = true;
    }
    // The first name that is free, holds this key or is corrupt.
    std::string reason;
    std::filesystem::path path;
    for (std::size_t probe = 0;; ++probe) {
        path = probePath(_dir, key, probe);
        if (readProbe(path, key, nullptr, reason) !=
            EntryMatch::other_key)
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
