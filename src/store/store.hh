/**
 * @file
 * Persistent content-addressed store of phase-1 activity snapshots —
 * the durable extension of the engine's in-run memo cache. Entries
 * are keyed by the scenario's snapshot key (timing fingerprint +
 * workload identity, extended with the trace options that shape the
 * snapshot payload); the payload is the existing versioned hex-float
 * snapshot text plus a small result record, so a warm store answers
 * any sweep over power-only axes without a single timing capture —
 * across process lifetimes, not just within one run.
 *
 * Durability contract: entries are written to a temp file in the
 * store directory and atomically renamed into place, so a reader (or
 * a reopened store) never observes a partial entry — a crash mid-put
 * loses at most the entry being written. Loading is corruption
 * tolerant: entries failing the magic, length, or checksum
 * validation are skipped and reported (warn + `store/corrupt`
 * counter), never fatal. See docs/sweep_service.md.
 */

#ifndef GPUSIMPOW_STORE_STORE_HH
#define GPUSIMPOW_STORE_STORE_HH

#include <cstddef>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/snapshot.hh"

namespace gpusimpow {
namespace store {

/**
 * On-disk snapshot store over one directory. Thread-safe: the engine
 * sinks snapshots from worker threads and the service fetches on
 * behalf of concurrent jobs against the same instance.
 */
class SweepStore
{
  public:
    /** File format magic of one entry (version-bumped on change). */
    static constexpr const char *entry_magic =
        "gpusimpow-store-entry v1";
    /** Manifest header line. */
    static constexpr const char *manifest_magic =
        "gpusimpow-store-manifest v1";

    /**
     * Open (creating the directory if needed) and index every valid
     * entry; corrupt entries are skipped and reported. fatal() only
     * when the directory itself cannot be created or read.
     */
    explicit SweepStore(std::filesystem::path dir);

    /**
     * Load the snapshot stored under `key`, or nullptr on a miss.
     * An entry that fails validation at load time is dropped from
     * the index (and reported) rather than surfacing an error.
     */
    std::shared_ptr<const ActivitySnapshot>
    fetch(const std::string &key);

    /**
     * Persist a snapshot under `key` (atomic write + rename),
     * replacing any previous entry. Returns false (after a warn) on
     * I/O failure — a store put must never abort the sweep that
     * produced the snapshot.
     */
    bool put(const std::string &key, const ActivitySnapshot &snapshot);

    /** True when an entry for `key` is indexed. */
    bool contains(const std::string &key) const;

    /** Indexed entry count. */
    std::size_t size() const;

    /** Entries skipped as corrupt when the store was opened. */
    std::size_t corruptAtOpen() const { return _corrupt_at_open; }

    const std::filesystem::path &dir() const { return _dir; }

  private:
    struct Entry
    {
        std::filesystem::path path;
        /** One-line result record, for the manifest. */
        std::string result;
    };

    void scanLocked();
    void rewriteManifestLocked();
    std::filesystem::path pathForLocked(const std::string &key) const;

    std::filesystem::path _dir;
    mutable std::mutex _mutex;
    std::map<std::string, Entry> _entries;
    std::size_t _corrupt_at_open = 0;
    std::size_t _tmp_counter = 0;
};

/** Shared ownership of one open store — what SweepSession and the
 *  service hold (the single store instance is the dedupe point). */
using StoreHandle = std::shared_ptr<SweepStore>;

/** Open a store directory and wrap it in a handle. */
StoreHandle openStore(const std::filesystem::path &dir);

} // namespace store
} // namespace gpusimpow

#endif // GPUSIMPOW_STORE_STORE_HH
