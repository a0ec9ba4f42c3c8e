/**
 * @file
 * Persistent content-addressed store of phase-1 activity snapshots —
 * the durable extension of SweepSession's in-memory snapshot cache.
 * Entries are keyed by the scenario's snapshot key (timing
 * fingerprint + workload identity, extended with the trace options
 * that shape the snapshot payload); each entry file is one binary
 * record of its key and snapshot (store/entry.cc), so a warm store
 * answers any sweep over power-only axes without a single timing
 * capture — across process lifetimes, not just within one run.
 *
 * The directory is the only index: a key's entry is found by its
 * file name (the key's hashBytes(), plus a probe suffix after a hash
 * collision), so opening a store reads no entry and the store keeps
 * no per-key state in memory. The first put of an open store deletes
 * the files under entry names that lack the record's magic: entries
 * of an older format, named by another hash, which no lookup
 * reaches. Processes may share one directory.
 *
 * Durability contract: entries are written to a temp file in the
 * store directory and atomically renamed into place, so a reader (or
 * another process) never observes a partial entry — a crash mid-put
 * loses at most the entry being written. Loading is corruption
 * tolerant: an entry failing any check of the record (magic, size,
 * checksum, lengths, counts, schema, times) is a miss, reported
 * (warn + `store/corrupt` counter) and replaced by the next put of
 * its key, never fatal. See docs/sweep_service.md.
 */

#ifndef GPUSIMPOW_STORE_STORE_HH
#define GPUSIMPOW_STORE_STORE_HH

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "sim/snapshot.hh"

namespace gpusimpow {
namespace store {

/**
 * On-disk snapshot store over one directory. Thread-safe: a session
 * puts and fetches snapshots from worker threads, on behalf of
 * concurrent jobs against the same instance.
 */
class SweepStore
{
  public:
    /**
     * Open a store, creating the directory if needed; no entry is
     * read. fatal() only when the directory cannot be created.
     */
    explicit SweepStore(std::filesystem::path dir);

    /**
     * Load the snapshot stored under `key`, or nullptr on a miss.
     * An entry that fails validation is reported and read as a miss
     * rather than surfacing an error.
     */
    std::shared_ptr<const ActivitySnapshot>
    fetch(const std::string &key);

    /**
     * Persist a snapshot under `key` (atomic write + rename),
     * replacing any previous or corrupt entry of the key; the first
     * put of this instance also deletes older-format entry files
     * (counted in `store/pruned`). Returns false (after a warn) on
     * I/O failure — a store put must never abort the sweep that
     * produced the snapshot.
     */
    bool put(const std::string &key, const ActivitySnapshot &snapshot);

  private:
    std::filesystem::path _dir;
    /** Serializes puts, so two keys never take one probe name. */
    std::mutex _mutex;
    /** A put has pruned older-format files (guarded by _mutex). */
    bool _pruned = false;
};

/** Shared ownership of one open store — what SweepSession and the
 *  service hold (the session that holds it is the dedupe point). */
using StoreHandle = std::shared_ptr<SweepStore>;

/** Open a store directory and wrap it in a handle. */
StoreHandle openStore(const std::filesystem::path &dir);

// The entry record, the one snapshot codec (store/entry.cc; layout
// in docs/sweep_service.md).

/** The record's first bytes; bump the version on any layout change. */
inline constexpr std::string_view entry_magic = "gpusimpow-store-entry v3";

/** The store's one hash, of entry file names (the key) and of the
 *  record (its checksum): four lanes of xxHash64's round over
 *  little-endian words, folded with the byte length. */
uint64_t hashBytes(std::string_view bytes);

std::string encodeEntry(std::string_view key,
                        const ActivitySnapshot &snapshot);

/** What a record read under a key holds. */
enum class EntryMatch { corrupt, other_key, this_key };

/** Decode a record read under `key`, never throwing: the snapshot
 *  (into `snapshot`, unless null) only for this_key; a corrupt
 *  record's `reason` names the byte offset of the failing field. */
EntryMatch decodeEntry(std::string_view bytes, std::string_view key,
                       ActivitySnapshot *snapshot, std::string &reason);

} // namespace store
} // namespace gpusimpow

#endif // GPUSIMPOW_STORE_STORE_HH
