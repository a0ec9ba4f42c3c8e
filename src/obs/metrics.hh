/**
 * @file
 * Metrics registry of the observability layer: process-wide named
 * counters, gauges, and histograms (named instruments with
 * descriptions, grouped dumps), thread-safe by construction — engine
 * workers bump them concurrently, so every value is a relaxed atomic.
 *
 * Instruments are created on first use and live for the process;
 * callers cache the returned reference, so the hot path is one
 * relaxed atomic add with no lookup. Snapshots capture every
 * instrument in deterministic (name-sorted) order, subtract cleanly
 * (`deltaFrom`) so concurrent consumers can meter their own window,
 * and render to JSON for `--metrics-json`.
 *
 * Metric names are `layer/what[_unit]` — see docs/observability.md
 * for the registry of names the engine and simulator populate.
 */

#ifndef GPUSIMPOW_OBS_METRICS_HH
#define GPUSIMPOW_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gpusimpow {
namespace obs {

/** A named monotonically increasing event counter (thread-safe). */
class Counter
{
  public:
    Counter(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}

    /** Add n events (relaxed: counts, not synchronization). */
    void add(uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }
    uint64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

  private:
    std::string _name;
    std::string _desc;
    std::atomic<uint64_t> _value{0};
};

/** A named instantaneous value (thread-safe; last writer wins). */
class Gauge
{
  public:
    Gauge(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}

    void set(int64_t v) { _value.store(v, std::memory_order_relaxed); }
    int64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

  private:
    std::string _name;
    std::string _desc;
    std::atomic<int64_t> _value{0};
};

/**
 * A thread-safe histogram over non-negative integer samples with
 * power-of-two buckets: bucket b counts samples in [2^(b-1), 2^b)
 * (bucket 0 counts zeros), so one fixed layout covers batch-group
 * sizes and nanosecond latencies alike. Tracks count/sum/min/max
 * exactly; the buckets bound the distribution shape.
 */
class Histogram
{
  public:
    /** Buckets: zeros, then 63 power-of-two ranges. */
    static constexpr std::size_t num_buckets = 64;

    Histogram(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}

    /** Record one sample (relaxed atomics throughout). */
    void record(uint64_t value);

    uint64_t count() const
    {
        return _count.load(std::memory_order_relaxed);
    }
    uint64_t sum() const
    {
        return _sum.load(std::memory_order_relaxed);
    }
    /** Smallest recorded sample (0 when empty). */
    uint64_t min() const;
    /** Largest recorded sample (0 when empty). */
    uint64_t max() const
    {
        return _max.load(std::memory_order_relaxed);
    }
    uint64_t bucket(std::size_t b) const
    {
        return _buckets[b].load(std::memory_order_relaxed);
    }

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

  private:
    std::string _name;
    std::string _desc;
    std::atomic<uint64_t> _count{0};
    std::atomic<uint64_t> _sum{0};
    std::atomic<uint64_t> _min{UINT64_MAX};
    std::atomic<uint64_t> _max{0};
    std::array<std::atomic<uint64_t>, num_buckets> _buckets{};
};

/**
 * Deterministic capture of the registry: every instrument's value in
 * name-sorted order. Plain data — safe to copy, diff, and serialize
 * after the run that produced it.
 */
struct MetricsSnapshot
{
    struct HistValue
    {
        std::string name;
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t min = 0;
        uint64_t max = 0;
        /** Non-empty buckets as (bucket index, count). */
        std::vector<std::pair<unsigned, uint64_t>> buckets;
    };

    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<HistValue> histograms;

    /** Counter value by name; 0 when absent. */
    uint64_t counter(const std::string &name) const;

    /**
     * This snapshot minus an earlier one: counters and histogram
     * totals subtract (instruments born between the two keep their
     * full value); gauges and histogram min/max keep the current
     * reading, which has no meaningful difference.
     */
    MetricsSnapshot deltaFrom(const MetricsSnapshot &earlier) const;

    /** `"counters":{...},"gauges":{...},"histograms":{...}` — the
     *  body shared by toJson() and SweepTelemetry::toJson(). */
    std::string jsonBody() const;

    /** Standalone metrics JSON document. */
    std::string toJson() const;
};

/** The process-wide instrument registry. */
class Registry
{
  public:
    static Registry &instance();

    /** Create-or-fetch; the reference stays valid for the process.
     *  The description is set on first creation. */
    Counter &counter(const std::string &name,
                     const std::string &desc = "");
    Gauge &gauge(const std::string &name, const std::string &desc = "");
    Histogram &histogram(const std::string &name,
                         const std::string &desc = "");

    /** Fold a finished span into `span/<name>_ns` (called by the
     *  tracer; the per-phase wall-time totals of the metrics dump). */
    void addSpanTime(const char *span_name, uint64_t dur_ns);

    /** Capture every instrument, name-sorted. */
    MetricsSnapshot snapshot() const;

  private:
    Registry() = default;

    mutable std::mutex _mutex;
    // std::map: node-based (stable references across inserts) and
    // name-ordered, so snapshots are deterministic by construction.
    std::map<std::string, Counter> _counters;
    std::map<std::string, Gauge> _gauges;
    std::map<std::string, Histogram> _histograms;
};

} // namespace obs
} // namespace gpusimpow

#endif // GPUSIMPOW_OBS_METRICS_HH
