#include "sim/snapshot.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/trace.hh"

namespace gpusimpow {

namespace {

/** Format-compatibility tag; bump on any layout change. */
constexpr const char *snapshot_magic = "gpusimpow-activity-snapshot";
constexpr unsigned snapshot_version = 1;

/** Sanity bound on serialized counts (kernels, samples): keeps a
 *  corrupted record inside the malformed-record fatal() contract
 *  instead of feeding reserve() an absurd size. */
constexpr uint64_t max_record_count = 1u << 20;

uint64_t
readCount(TextCursor &in, const char *context)
{
    uint64_t n = in.u64(context);
    if (n > max_record_count)
        fatal("malformed record: implausible ", context, " ", n);
    return n;
}

/** Read a time-like quantity: a finite non-negative double. NaN,
 *  infinities, and negative spans are corruption — and they would
 *  silently poison every downstream duration and rate. */
double
readTimeToken(TextCursor &in, const char *context)
{
    double v = in.f64(context);
    if (!std::isfinite(v) || v < 0.0)
        fatal("malformed record: ", context, " ", v,
              " is not a finite non-negative time");
    return v;
}

/** Labels are serialized as the remainder of their line, so kernel
 *  names with unusual characters survive unharmed. */
std::string
readLabelLine(TextCursor &in)
{
    std::string_view rest;
    in.line(rest); // an unterminated last line is still a label
    return trim(rest);
}

void
serializeSample(std::ostream &out, const ActivitySample &s)
{
    out << "sample " << strformat("%a %a", s.t0, s.t1) << '\n';
    s.delta.serialize(out);
}

ActivitySample
parseSample(TextCursor &in)
{
    ActivitySample s;
    in.expect("sample");
    s.t0 = readTimeToken(in, "sample t0");
    s.t1 = readTimeToken(in, "sample t1");
    if (s.t1 < s.t0)
        fatal("malformed record: sample interval runs backwards "
              "(t0 ", s.t0, ", t1 ", s.t1, ")");
    s.delta = perf::ChipActivity::parse(in);
    return s;
}

void
serializeKernel(std::ostream &out, const KernelSnapshot &k)
{
    out << "kernel " << k.label << '\n';
    out << "flags " << (k.repeatable ? 1 : 0) << ' '
        << (k.with_trace ? 1 : 0) << '\n';
    out << "perf " << k.perf.cycles << ' ' << k.perf.instructions
        << ' ' << strformat("%a", k.perf.time_s) << '\n';
    k.perf.activity.serialize(out);
    out << "samples " << k.samples.size() << '\n';
    for (const ActivitySample &s : k.samples)
        serializeSample(out, s);
}

KernelSnapshot
parseKernel(TextCursor &in)
{
    KernelSnapshot k;
    in.expect("kernel");
    k.label = readLabelLine(in);
    in.expect("flags");
    k.repeatable = in.flag("repeatable flag");
    k.with_trace = in.flag("with_trace flag");
    in.expect("perf");
    k.perf.cycles = in.u64("cycles");
    k.perf.instructions = in.u64("instructions");
    k.perf.time_s = readTimeToken(in, "time_s");
    k.perf.activity = perf::ChipActivity::parse(in);
    in.expect("samples");
    uint64_t n_samples = readCount(in, "sample count");
    k.samples.reserve(n_samples);
    for (uint64_t i = 0; i < n_samples; ++i)
        k.samples.push_back(parseSample(in));
    return k;
}

/** Everything after the magic/version check; split out so parse()
 *  can annotate any fatal() with the cursor position. */
ActivitySnapshot
parseBody(TextCursor &in)
{
    ActivitySnapshot snap;
    in.expect("workload");
    snap.workload = readLabelLine(in);
    in.expect("scale");
    uint64_t scale = in.u64("scale");
    if (scale > UINT32_MAX)
        fatal("malformed record: scale ", scale,
              " exceeds the 32-bit range");
    snap.scale = static_cast<uint32_t>(scale);
    in.expect("with_trace");
    snap.with_trace = in.flag("with_trace flag");
    in.expect("sample_interval_s");
    snap.sample_interval_s =
        readTimeToken(in, "sample_interval_s");
    // An untraced snapshot legitimately carries no sampling period,
    // but a traced one sampled at 0 could never have produced its
    // samples — reject the contradiction.
    if (snap.with_trace && snap.sample_interval_s <= 0.0)
        fatal("malformed record: traced snapshot requires "
              "sample_interval_s > 0, got ", snap.sample_interval_s);
    in.expect("verified");
    snap.verified = in.flag("verified flag");
    in.expect("kernels");
    uint64_t n_kernels = readCount(in, "kernel count");
    snap.kernels.reserve(n_kernels);
    for (uint64_t i = 0; i < n_kernels; ++i)
        snap.kernels.push_back(parseKernel(in));
    return snap;
}

} // namespace

std::string
ActivitySnapshot::serialize() const
{
    GSP_TRACE_SPAN("snapshot/serialize");
    std::ostringstream out;
    out << snapshot_magic << " v" << snapshot_version << '\n';
    out << "workload " << workload << '\n';
    out << "scale " << scale << '\n';
    out << "with_trace " << (with_trace ? 1 : 0) << '\n';
    out << "sample_interval_s " << strformat("%a", sample_interval_s)
        << '\n';
    out << "verified " << (verified ? 1 : 0) << '\n';
    out << "kernels " << kernels.size() << '\n';
    for (const KernelSnapshot &k : kernels)
        serializeKernel(out, k);
    return out.str();
}

ActivitySnapshot
ActivitySnapshot::parse(std::string_view text)
{
    GSP_TRACE_SPAN("snapshot/parse");
    TextCursor in(text);
    try {
        in.expect(snapshot_magic);
        std::string_view version = in.token("snapshot version");
        // Built with += rather than operator+ to sidestep gcc 12's
        // spurious -Wrestrict on the inlined concatenation
        // (PR105329).
        std::string expected = "v";
        expected += std::to_string(snapshot_version);
        if (version != expected)
            fatal("unsupported snapshot version '", version,
                  "' (this build reads ", expected, ")");
        return parseBody(in);
    } catch (const FatalError &e) {
        // Re-throw with the cursor position, so a corrupt store entry
        // (or hand-edited snapshot) is diagnosable: a failed read
        // leaves the cursor just past the offending token.
        fatal(e.what(), " (snapshot text, ", in.where(), ")");
    }
}

} // namespace gpusimpow
