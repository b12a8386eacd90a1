#pragma once

/**
 * @file
 * Process-wide metrics registry: named atomic counters, gauges, and
 * log-linear-bucket HDR latency histograms.
 *
 * Design goals, in order:
 *
 *  1. The *record* path (Counter::add, Histogram::record) is lock-free
 *     and wait-free — one relaxed fetch_add on a pre-resolved slot.
 *     Callers resolve the slot once (function-local static reference)
 *     and never pay the registry lookup again.
 *  2. Snapshots are *mergeable*: a HistogramSnapshot taken per shard /
 *     per server instance merges into an aggregate whose percentiles
 *     are exactly what a single combined histogram would have reported
 *     (merge is a bucket-wise integer add, hence associative and
 *     commutative — the unit suite proves it).
 *  3. Percentile error is bounded by construction: buckets are
 *     log-linear with 32 sub-buckets per power of two, so any reported
 *     quantile is within one bucket width — a relative error of at
 *     most 1/32 ≈ 3.2% — of the recorded value. This is the classic
 *     HdrHistogram layout, sized for int64 nanosecond values.
 *
 * Naming convention: `chimera.<layer>.<name>`, e.g.
 * `chimera.serve.latency_seconds`, `chimera.plan.cache.memory_hits`.
 * See docs/OBSERVABILITY.md for the full catalogue.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chimera::obs
{

/** Monotonically increasing event count. Record path: one relaxed add. */
class Counter
{
public:
    void add(std::int64_t delta = 1) noexcept
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> value_{0};
};

/** Last-write-wins instantaneous value (queue depths, config knobs). */
class Gauge
{
public:
    void set(std::int64_t v) noexcept
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void add(std::int64_t delta) noexcept
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Log-linear HDR bucket layout shared by Histogram and its snapshots.
 *
 * Values are non-negative int64 (we record latencies as integer
 * nanoseconds). Layout: 32 sub-buckets per octave; values below 32
 * get exact unit buckets. For v >= 32 with k = floor(log2 v):
 *
 *     shift  = k - 5
 *     index  = shift * 32 + (v >> shift)       // in [32*(shift+1), ...)
 *
 * which is contiguous with the unit range (shift = 0 reproduces
 * index = v). Bucket `i` covers [lowerBound(i), upperBound(i)], a
 * width of 2^shift, i.e. at most value/32.
 */
struct HistogramLayout
{
    static constexpr int kSubBucketBits = 5;                ///< 32 sub-buckets/octave
    static constexpr std::int64_t kSubBuckets = std::int64_t{1} << kSubBucketBits;
    /// Highest index is for v = 2^62..2^63-1 (shift 57): 57*32 + 63.
    static constexpr int kBucketCount = 57 * 32 + 64;

    static int bucketIndex(std::int64_t value) noexcept;
    static std::int64_t lowerBound(int index) noexcept;
    static std::int64_t upperBound(int index) noexcept;
};

class Histogram;

/**
 * Immutable copy of a histogram's state. Cheap to merge; percentiles
 * are computed here (never on the live atomics) so a snapshot is a
 * consistent basis for p50/p99 lines even while recording continues.
 */
class HistogramSnapshot
{
public:
    HistogramSnapshot();

    /// Bucket-wise sum; associative and commutative.
    void merge(const HistogramSnapshot &other);

    std::int64_t count() const noexcept { return count_; }
    std::int64_t sum() const noexcept { return sum_; }
    std::int64_t min() const noexcept { return count_ > 0 ? min_ : 0; }
    std::int64_t max() const noexcept { return count_ > 0 ? max_ : 0; }
    double mean() const noexcept
    {
        return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
    }

    /**
     * Value at quantile @p q in [0, 1]: the upper bound of the bucket
     * holding the ceil(q * count)-th recorded value (0 when empty).
     * Guaranteed within one bucket width of the exact order statistic.
     */
    std::int64_t percentile(double q) const noexcept;

    /// Seconds-domain conveniences for nanosecond-valued histograms.
    double percentileSeconds(double q) const noexcept
    {
        return static_cast<double>(percentile(q)) * 1e-9;
    }
    double meanSeconds() const noexcept { return mean() * 1e-9; }
    double maxSeconds() const noexcept { return static_cast<double>(max()) * 1e-9; }

    std::int64_t bucketCount(int index) const noexcept { return counts_[static_cast<std::size_t>(index)]; }

private:
    friend class Histogram;

    std::array<std::int64_t, HistogramLayout::kBucketCount> counts_{};
    std::int64_t count_ = 0;
    std::int64_t sum_ = 0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
};

/**
 * Live HDR histogram. record() is lock-free: one bucket index
 * computation (a count-leading-zeros and a shift) plus four relaxed
 * atomic RMWs. Negative values clamp to 0; values are typically
 * integer nanoseconds (use recordSeconds for a double-seconds input).
 */
class Histogram
{
public:
    Histogram();

    void record(std::int64_t value) noexcept;

    void recordSeconds(double seconds) noexcept
    {
        record(seconds <= 0.0 ? 0 : static_cast<std::int64_t>(seconds * 1e9 + 0.5));
    }

    std::int64_t count() const noexcept
    {
        return count_.load(std::memory_order_relaxed);
    }

    /// Consistent-enough copy of the live state (buckets read relaxed).
    HistogramSnapshot snapshot() const;

private:
    std::array<std::atomic<std::int64_t>, HistogramLayout::kBucketCount> counts_;
    std::atomic<std::int64_t> count_{0};
    std::atomic<std::int64_t> sum_{0};
    std::atomic<std::int64_t> min_;
    std::atomic<std::int64_t> max_{-1};
};

/**
 * Named metric registry. Lookup (counter/gauge/histogram) takes a
 * mutex and returns a reference that stays valid for the registry's
 * lifetime — resolve once, record forever. `global()` is the
 * process-wide instance (intentionally leaked: metrics must outlive
 * static destructors); subsystems that need isolation (e.g. one
 * serve::Server per test) own their own Registry.
 */
class Registry
{
public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /// Current value of the counter @p name; throws std::out_of_range
    /// when no counter of that name exists (a misspelt read fails loud).
    std::int64_t counterValue(const std::string &name) const;

    /** JSON object keyed by metric name (histograms become objects). */
    std::string renderJson() const;

    static Registry &global();

private:
    friend std::string renderJson(const std::vector<const Registry *> &registries);

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** Render several registries into one JSON object (later keys win). */
std::string renderJson(const std::vector<const Registry *> &registries);

} // namespace chimera::obs
