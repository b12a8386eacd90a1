#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace chimera::obs
{

namespace
{

/// Shift amount for a value's octave (0 for the unit range).
int layoutShift(std::int64_t value) noexcept
{
    if (value < HistogramLayout::kSubBuckets)
        return 0;
    const int k = 63 - std::countl_zero(static_cast<std::uint64_t>(value));
    return k - HistogramLayout::kSubBucketBits;
}

} // namespace

int HistogramLayout::bucketIndex(std::int64_t value) noexcept
{
    if (value <= 0)
        return 0;
    const int shift = layoutShift(value);
    return shift * static_cast<int>(kSubBuckets) + static_cast<int>(value >> shift);
}

std::int64_t HistogramLayout::lowerBound(int index) noexcept
{
    if (index <= 0)
        return 0;
    // Indices [0, 64) are the shift-0 range (unit buckets plus the
    // first octave); each later block of 32 indices raises shift by 1.
    const int shift = std::max(0, index / static_cast<int>(kSubBuckets) - 1);
    const std::int64_t base = index - static_cast<std::int64_t>(shift) * kSubBuckets;
    return base << shift;
}

std::int64_t HistogramLayout::upperBound(int index) noexcept
{
    const int shift = std::max(0, index / static_cast<int>(kSubBuckets) - 1);
    return lowerBound(index) + (std::int64_t{1} << shift) - 1;
}

HistogramSnapshot::HistogramSnapshot() = default;

void HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    if (other.count_ > 0)
    {
        min_ = count_ > 0 ? std::min(min_, other.min_) : other.min_;
        max_ = count_ > 0 ? std::max(max_, other.max_) : other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

std::int64_t HistogramSnapshot::percentile(double q) const noexcept
{
    if (count_ <= 0)
        return 0;
    q = std::min(1.0, std::max(0.0, q));
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_))));
    std::int64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i)
    {
        seen += counts_[i];
        if (seen >= rank)
        {
            // Clamp to the observed max so p100 never exceeds it.
            return std::min(HistogramLayout::upperBound(static_cast<int>(i)), max_);
        }
    }
    return max_;
}

Histogram::Histogram() : min_(std::numeric_limits<std::int64_t>::max())
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
}

void Histogram::record(std::int64_t value) noexcept
{
    if (value < 0)
        value = 0;
    counts_[static_cast<std::size_t>(HistogramLayout::bucketIndex(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // min/max via CAS loops; contention is rare (only on new extremes).
    std::int64_t cur = min_.load(std::memory_order_relaxed);
    while (value < cur && !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed))
    {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (value > cur && !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed))
    {
    }
}

HistogramSnapshot Histogram::snapshot() const
{
    HistogramSnapshot snap;
    std::int64_t total = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i)
    {
        const std::int64_t c = counts_[i].load(std::memory_order_relaxed);
        snap.counts_[i] = c;
        total += c;
    }
    // Derive count from the buckets actually copied so the snapshot is
    // internally consistent even if records land mid-copy.
    snap.count_ = total;
    snap.sum_ = sum_.load(std::memory_order_relaxed);
    snap.min_ = min_.load(std::memory_order_relaxed);
    snap.max_ = max_.load(std::memory_order_relaxed);
    if (snap.count_ > 0 && snap.max_ < 0)
        snap.max_ = snap.min_;
    return snap;
}

Counter &Registry::counter(const std::string &name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &Registry::gauge(const std::string &name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &Registry::histogram(const std::string &name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::int64_t Registry::counterValue(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters_.at(name)->value();
}

namespace
{

std::string formatSeconds(double seconds)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9f", seconds);
    return buf;
}

/// Histograms named `*_seconds` hold nanosecond values and render in
/// the seconds domain; anything else (e.g. batch-size distributions)
/// renders its raw integer percentiles.
bool isSecondsHistogram(const std::string &name)
{
    static const std::string suffix = "_seconds";
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void appendJsonEntry(std::ostringstream &out, bool &first, const std::string &name,
                     const std::string &rendered)
{
    if (!first)
        out << ",";
    first = false;
    out << "\n  \"" << name << "\": " << rendered;
}

std::string histogramJson(const std::string &name, const HistogramSnapshot &snap)
{
    std::ostringstream out;
    if (isSecondsHistogram(name))
    {
        out << "{\"count\": " << snap.count()
            << ", \"p50_seconds\": " << formatSeconds(snap.percentileSeconds(0.50))
            << ", \"p90_seconds\": " << formatSeconds(snap.percentileSeconds(0.90))
            << ", \"p99_seconds\": " << formatSeconds(snap.percentileSeconds(0.99))
            << ", \"p999_seconds\": " << formatSeconds(snap.percentileSeconds(0.999))
            << ", \"mean_seconds\": " << formatSeconds(snap.meanSeconds())
            << ", \"max_seconds\": " << formatSeconds(snap.maxSeconds()) << "}";
        return out.str();
    }
    out << "{\"count\": " << snap.count() << ", \"p50\": " << snap.percentile(0.50)
        << ", \"p90\": " << snap.percentile(0.90) << ", \"p99\": " << snap.percentile(0.99)
        << ", \"p999\": " << snap.percentile(0.999) << ", \"max\": " << snap.max() << "}";
    return out.str();
}

} // namespace

std::string Registry::renderJson() const
{
    return obs::renderJson({this});
}

std::string renderJson(const std::vector<const Registry *> &registries)
{
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const Registry *reg : registries)
    {
        if (reg == nullptr)
            continue;
        const std::lock_guard<std::mutex> lock(reg->mutex_);
        for (const auto &[name, c] : reg->counters_)
            appendJsonEntry(out, first, name, std::to_string(c->value()));
        for (const auto &[name, g] : reg->gauges_)
            appendJsonEntry(out, first, name, std::to_string(g->value()));
        for (const auto &[name, h] : reg->histograms_)
            appendJsonEntry(out, first, name, histogramJson(name, h->snapshot()));
    }
    out << "\n}\n";
    return out.str();
}

Registry &Registry::global()
{
    // Leaked on purpose: metric references cached in function-local
    // statics must stay valid through static destruction.
    static Registry *instance = new Registry();
    return *instance;
}

} // namespace chimera::obs
