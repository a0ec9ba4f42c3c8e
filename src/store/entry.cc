/**
 * @file
 * The store entry record: the magic, the key (length, then the bytes
 * zero-padded to a word), the snapshot as snapshotRecord() lays it
 * out and the checksum, all little-endian 64-bit words. Each layout
 * function runs on a Writer to encode and on a Reader to decode and
 * check, so the two directions cannot drift apart.
 */

#include <bit>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "store/store.hh"

namespace gpusimpow {
namespace store {

namespace {

static_assert(std::endian::native == std::endian::little,
              "words are read and written in host order");
static_assert(entry_magic.size() % 8 == 0, "the magic is whole words");

// xxHash64's primes.
constexpr uint64_t p1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t p2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t p3 = 0x165667b19e3779f9ULL;
constexpr uint64_t p4 = 0x85ebca77c2b2ae63ULL;

/** Bound on every count (kernels, samples, cores, clusters): no real
 *  GPU or run is within orders of magnitude of it. */
constexpr uint64_t max_count = 1u << 20;
/** Fewest words of an activity record (no cores, no clusters). */
constexpr uint64_t min_activity_words = 4 + perf::mem_activity_fields + 4;

uint64_t
loadWord(const char *p)
{
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
}

uint64_t
mixRound(uint64_t lane, uint64_t word)
{
    return std::rotl(lane + word * p2, 31) * p1;
}

/** Encodes: appends every field as words. */
struct Writer
{
    std::string bytes{entry_magic};

    void word(uint64_t v) { bytes.append(reinterpret_cast<char *>(&v), 8); }
    void word32(unsigned v, const char *) { word(v); }
    void time(double v, const char *) { word(std::bit_cast<uint64_t>(v)); }
    void constant(uint64_t v, const char *) { word(v); }
    void flags(bool bit0, bool bit1, const char *) { word(bit0 | bit1 << 1); }
    template <typename T>
    void size(const std::vector<T> &v, const char *, uint64_t) { word(v.size()); }
    void
    text(std::string_view s, const char *)
    {
        word(s.size());
        bytes.append(s);
        bytes.append((8 - s.size() % 8) % 8, '\0');
    }
    template <typename... Why>
    void check(bool, Why &&...) {}
};

/**
 * Decodes: reads every field and checks it. The first failure (a
 * read past the end or a failed check) is kept, naming the byte
 * offset of the field read last; after it every read gives 0 and
 * every container is sized 0, so a decode ends without further
 * checks.
 */
class Reader
{
  public:
    Reader(std::string_view bytes, std::size_t pos) : _bytes(bytes), _pos(pos) {}

    const std::string &reason() const { return _reason; }

    void word(uint64_t &v) { v = next(); }
    void
    word32(unsigned &v, const char *what)
    {
        const uint64_t w = next();
        check(w <= UINT32_MAX, what, " ", w, " exceeds the 32-bit range");
        v = static_cast<unsigned>(w);
    }
    void
    time(double &v, const char *what)
    {
        v = std::bit_cast<double>(next());
        check(std::isfinite(v) && v >= 0.0, what, " ", v,
              " is not a finite non-negative time");
    }
    void
    constant(uint64_t v, const char *what)
    {
        const uint64_t w = next();
        check(w == v, "activity schema mismatch: ", w, " ", what,
              ", this build has ", v);
    }
    void
    flags(bool &bit0, bool &bit1, const char *what)
    {
        const uint64_t w = next();
        check(w <= 3, what, " ", w, " set an undefined bit");
        bit0 = w & 1;
        bit1 = w & 2;
    }
    /** A count of elements of at least `words` words each. */
    template <typename T>
    void
    size(std::vector<T> &v, const char *what, uint64_t words)
    {
        const uint64_t n = next();
        check(n <= max_count && n <= left() / 8 / words, "implausible ",
              what, " ", n);
        v.resize(_reason.empty() ? n : 0);
    }
    /** Length, then the bytes and their zero padding. */
    std::string_view
    view(const char *what)
    {
        const uint64_t n = next();
        if (n > left() || (n + 7) / 8 * 8 > left()) {
            check(false, what, " length ", n, " overruns the record");
            return {};
        }
        const std::string_view s = _bytes.substr(_pos, n);
        const std::string_view pad = _bytes.substr(_pos + n, (8 - n % 8) % 8);
        _pos += n + pad.size();
        check(pad.find_first_not_of('\0') == std::string_view::npos, what,
              " padding is not zero");
        return s;
    }
    void text(std::string &s, const char *what) { s = view(what); }
    /** True when the record decoded whole, every byte read. */
    bool
    end()
    {
        _field = _pos;
        check(left() == 0, "trailing bytes");
        return _reason.empty();
    }
    template <typename... Why>
    void
    check(bool ok, Why &&...why)
    {
        if (ok)
            return;
        if (_reason.empty())
            _reason = detail::concat(std::forward<Why>(why)...,
                                     " at byte offset ", _field);
        _pos = _bytes.size();
    }

  private:
    std::size_t left() const { return _bytes.size() - _pos; }

    uint64_t
    next()
    {
        _field = _pos;
        check(left() >= 8, "truncated record");
        if (left() < 8)
            return 0;
        _pos += 8;
        return loadWord(_bytes.data() + _field);
    }

    std::string_view _bytes;
    std::size_t _pos;
    /** Byte offset of the field read last. */
    std::size_t _field = 0;
    std::string _reason;
};

/** An activity record: counts, the schema's field counts, every
 *  counter in X-macro order, totals. */
template <typename IO, typename Activity>
void
activityRecord(IO &io, Activity &act)
{
    io.size(act.cores, "core count", perf::core_activity_fields);
    io.size(act.cluster_busy_cycles, "cluster count", 1);
    io.constant(perf::core_activity_fields, "core counters");
    io.constant(perf::mem_activity_fields, "mem counters");
    for (auto &c : act.cores) {
#define X(name) io.word(c.name);
        GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
    }
#define X(name) io.word(act.mem.name);
    GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
    for (auto &v : act.cluster_busy_cycles)
        io.word(v);
    io.word(act.gpu_busy_cycles);
    io.word(act.blocks_dispatched);
    io.word(act.shader_cycles);
    io.time(act.elapsed_s, "elapsed_s");
}

/** A snapshot: header, then per kernel its label, flags, timing,
 *  activity and samples. */
template <typename IO, typename Snapshot>
void
snapshotRecord(IO &io, Snapshot &snap)
{
    io.text(snap.workload, "workload");
    io.word32(snap.scale, "scale");
    io.flags(snap.with_trace, snap.verified, "snapshot flags");
    io.time(snap.sample_interval_s, "sample_interval_s");
    // An untraced snapshot carries no sampling period, but a traced
    // one sampled at 0 could never have produced its samples.
    io.check(!snap.with_trace || snap.sample_interval_s > 0.0,
             "traced snapshot requires sample_interval_s > 0");
    io.size(snap.kernels, "kernel count", 6 + min_activity_words);
    for (auto &k : snap.kernels) {
        io.text(k.label, "kernel label");
        io.flags(k.repeatable, k.with_trace, "kernel flags");
        io.word(k.perf.cycles);
        io.word(k.perf.instructions);
        io.time(k.perf.time_s, "time_s");
        activityRecord(io, k.perf.activity);
        io.size(k.samples, "sample count", 2 + min_activity_words);
        for (auto &s : k.samples) {
            io.time(s.t0, "sample t0");
            io.time(s.t1, "sample t1");
            io.check(s.t1 >= s.t0, "sample interval runs backwards (t0 ",
                     s.t0, ", t1 ", s.t1, ")");
            activityRecord(io, s.delta);
        }
    }
}

} // namespace

uint64_t
hashBytes(std::string_view bytes)
{
    uint64_t lane[4] = {p1 + p2, p2, 0, 0 - p1};
    const std::size_t words = bytes.size() / 8;
    std::size_t i = 0;
    // Whole blocks of four words first, so the lanes' multiplies
    // overlap.
    for (; i + 4 <= words; i += 4)
        for (std::size_t j = 0; j < 4; ++j)
            lane[j] = mixRound(lane[j], loadWord(&bytes[(i + j) * 8]));
    for (; i < words; ++i)
        lane[i % 4] = mixRound(lane[i % 4], loadWord(&bytes[i * 8]));
    if (const std::size_t tail = bytes.size() % 8) {
        char last[8] = {};
        std::memcpy(last, &bytes[words * 8], tail);
        lane[words % 4] = mixRound(lane[words % 4], loadWord(last));
    }
    uint64_t h = bytes.size();
    for (uint64_t l : lane)
        h = std::rotl(h ^ mixRound(0, l), 27) * p1 + p4;
    h = (h ^ (h >> 33)) * p2;
    h = (h ^ (h >> 29)) * p3;
    return h ^ (h >> 32);
}

std::string
encodeEntry(std::string_view key, const ActivitySnapshot &snapshot)
{
    GSP_TRACE_SPAN("snapshot/serialize");
    Writer out;
    out.text(key, "key");
    snapshotRecord(out, snapshot);
    out.word(hashBytes(out.bytes));
    return std::move(out.bytes);
}

EntryMatch
decodeEntry(std::string_view bytes, std::string_view key,
            ActivitySnapshot *snapshot, std::string &reason)
{
    auto corrupt = [&reason](std::string why) {
        reason = std::move(why);
        return EntryMatch::corrupt;
    };
    if (!bytes.starts_with(entry_magic))
        return corrupt("bad magic at byte offset 0");
    // The magic, a key length and the checksum at the least.
    if (bytes.size() % 8 != 0 || bytes.size() < entry_magic.size() + 16)
        return corrupt(detail::concat("size ", bytes.size(),
                                      " is not a whole record"));
    const std::size_t body = bytes.size() - 8;
    if (hashBytes(bytes.substr(0, body)) != loadWord(&bytes[body]))
        return corrupt(
            detail::concat("checksum mismatch at byte offset ", body));
    Reader in(bytes.substr(0, body), entry_magic.size());
    const std::string_view found = in.view("key");
    if (!in.reason().empty())
        return corrupt(in.reason());
    if (found != key)
        return EntryMatch::other_key;
    if (snapshot) {
        GSP_TRACE_SPAN("snapshot/parse");
        snapshotRecord(in, *snapshot);
        if (!in.end())
            return corrupt(in.reason());
    }
    return EntryMatch::this_key;
}

} // namespace store
} // namespace gpusimpow
