/**
 * @file
 * Unit tests for src/obs: the HDR histogram (bucket boundaries, merge
 * associativity, bounded percentile error), the metrics registry, and
 * the trace recorder (multi-threaded recording, JSON export, the
 * disabled fast path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace chimera::obs {
namespace {

// --- HistogramLayout -------------------------------------------------

TEST(ObsHistogram, BucketBoundariesRoundTrip)
{
    // Every value must land in a bucket whose [lower, upper] range
    // contains it. Sweep the interesting values: the exact unit range,
    // powers of two and their neighbours across the full int64 span.
    std::vector<std::int64_t> values;
    for (std::int64_t v = 0; v < 256; ++v) {
        values.push_back(v);
    }
    for (int k = 5; k < 63; ++k) {
        const std::int64_t p = std::int64_t{1} << k;
        values.push_back(p - 1);
        values.push_back(p);
        values.push_back(p + 1);
        if (k < 62) {
            values.push_back(p + p / 2); // mid-octave
        }
    }
    for (const std::int64_t v : values) {
        const int index = HistogramLayout::bucketIndex(v);
        ASSERT_GE(index, 0) << "value " << v;
        ASSERT_LT(index, HistogramLayout::kBucketCount) << "value " << v;
        EXPECT_LE(HistogramLayout::lowerBound(index), v)
            << "value " << v << " bucket " << index;
        EXPECT_GE(HistogramLayout::upperBound(index), v)
            << "value " << v << " bucket " << index;
    }
}

TEST(ObsHistogram, BucketIndicesAreMonotonic)
{
    // Indices never decrease as values grow (spot-check across scales).
    int last = -1;
    for (std::int64_t v = 0; v < 4096; ++v) {
        const int index = HistogramLayout::bucketIndex(v);
        EXPECT_GE(index, last) << "value " << v;
        last = index;
    }
    for (int k = 12; k < 62; ++k) {
        const int index =
            HistogramLayout::bucketIndex(std::int64_t{1} << k);
        EXPECT_GT(index, last) << "octave " << k;
        last = index;
    }
}

TEST(ObsHistogram, BucketWidthBoundsRelativeError)
{
    // Width <= value / 32 for v >= 32: the 1/32 relative error bound.
    for (const std::int64_t v :
         {std::int64_t{32}, std::int64_t{100}, std::int64_t{4097},
          std::int64_t{1} << 30, (std::int64_t{1} << 40) + 12345}) {
        const int index = HistogramLayout::bucketIndex(v);
        const std::int64_t width = HistogramLayout::upperBound(index) -
                                   HistogramLayout::lowerBound(index) + 1;
        EXPECT_LE(width, std::max<std::int64_t>(1, v / 32))
            << "value " << v;
    }
}

TEST(ObsHistogram, ExactBelowThirtyTwo)
{
    // The unit range is exact: one value per bucket.
    for (std::int64_t v = 0; v < 32; ++v) {
        const int index = HistogramLayout::bucketIndex(v);
        EXPECT_EQ(HistogramLayout::lowerBound(index), v);
        EXPECT_EQ(HistogramLayout::upperBound(index), v);
    }
}

// --- Histogram recording and snapshots -------------------------------

TEST(ObsHistogram, CountSumMinMax)
{
    Histogram h;
    h.record(10);
    h.record(500);
    h.record(3);
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count(), 3);
    EXPECT_EQ(snap.sum(), 513);
    EXPECT_EQ(snap.min(), 3);
    EXPECT_EQ(snap.max(), 500);
    EXPECT_DOUBLE_EQ(snap.mean(), 171.0);
}

TEST(ObsHistogram, EmptySnapshotIsZero)
{
    const HistogramSnapshot snap = Histogram().snapshot();
    EXPECT_EQ(snap.count(), 0);
    EXPECT_EQ(snap.min(), 0);
    EXPECT_EQ(snap.max(), 0);
    EXPECT_EQ(snap.percentile(0.5), 0);
    EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST(ObsHistogram, NegativeValuesClampToZero)
{
    Histogram h;
    h.record(-100);
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count(), 1);
    EXPECT_EQ(snap.min(), 0);
    EXPECT_EQ(snap.percentile(1.0), 0);
}

TEST(ObsHistogram, PercentileWithinOneBucketWidth)
{
    // 1e6 samples from a deterministic skewed distribution: every
    // reported percentile must sit within one bucket width (relative
    // error 1/32) of the exact order statistic.
    Histogram h;
    std::vector<std::int64_t> exact;
    exact.reserve(1000000);
    Rng rng(42);
    for (int i = 0; i < 1000000; ++i) {
        // Log-uniform-ish: spread over [1, ~1e9] so many octaves fill.
        const double u = rng.uniform();
        const auto v = static_cast<std::int64_t>(
            std::pow(10.0, 1.0 + 8.0 * u));
        h.record(v);
        exact.push_back(v);
    }
    std::sort(exact.begin(), exact.end());
    const HistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.count(), 1000000);
    for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
        const std::int64_t reported = snap.percentile(q);
        const auto rank = static_cast<std::size_t>(std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   std::ceil(q * static_cast<double>(exact.size())))));
        const std::int64_t truth = exact[rank - 1];
        // One bucket width at this magnitude.
        const std::int64_t slack =
            std::max<std::int64_t>(1, truth / 32 + 1);
        EXPECT_GE(reported, truth - slack) << "q=" << q;
        EXPECT_LE(reported, truth + slack) << "q=" << q;
    }
    EXPECT_EQ(snap.percentile(1.0), snap.max());
}

TEST(ObsHistogram, MergeMatchesCombinedRecording)
{
    // Merging shard snapshots must equal one histogram fed everything.
    Histogram a;
    Histogram b;
    Histogram combined;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const auto v =
            static_cast<std::int64_t>(rng.uniform() * 1e7);
        (i % 2 == 0 ? a : b).record(v);
        combined.record(v);
    }
    HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    const HistogramSnapshot reference = combined.snapshot();
    EXPECT_EQ(merged.count(), reference.count());
    EXPECT_EQ(merged.sum(), reference.sum());
    EXPECT_EQ(merged.min(), reference.min());
    EXPECT_EQ(merged.max(), reference.max());
    for (int i = 0; i < HistogramLayout::kBucketCount; ++i) {
        ASSERT_EQ(merged.bucketCount(i), reference.bucketCount(i))
            << "bucket " << i;
    }
}

TEST(ObsHistogram, MergeIsAssociative)
{
    Histogram ha;
    Histogram hb;
    Histogram hc;
    Rng rng(11);
    for (int i = 0; i < 3000; ++i) {
        ha.record(static_cast<std::int64_t>(rng.uniform() * 1e4));
        hb.record(static_cast<std::int64_t>(rng.uniform() * 1e6));
        hc.record(static_cast<std::int64_t>(rng.uniform() * 1e8));
    }
    // (a + b) + c
    HistogramSnapshot left = ha.snapshot();
    left.merge(hb.snapshot());
    left.merge(hc.snapshot());
    // a + (b + c)
    HistogramSnapshot bc = hb.snapshot();
    bc.merge(hc.snapshot());
    HistogramSnapshot right = ha.snapshot();
    right.merge(bc);
    EXPECT_EQ(left.count(), right.count());
    EXPECT_EQ(left.sum(), right.sum());
    EXPECT_EQ(left.min(), right.min());
    EXPECT_EQ(left.max(), right.max());
    for (int i = 0; i < HistogramLayout::kBucketCount; ++i) {
        ASSERT_EQ(left.bucketCount(i), right.bucketCount(i))
            << "bucket " << i;
    }
    for (const double q : {0.5, 0.99}) {
        EXPECT_EQ(left.percentile(q), right.percentile(q));
    }
}

TEST(ObsHistogram, RecordSecondsRoundsToNanos)
{
    Histogram h;
    h.recordSeconds(0.001); // 1 ms = 1e6 ns
    h.recordSeconds(-5.0); // clamps to 0
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count(), 2);
    EXPECT_EQ(snap.min(), 0);
    // Within one bucket width of 1e6 ns.
    EXPECT_NEAR(static_cast<double>(snap.max()), 1e6, 1e6 / 32.0);
    EXPECT_NEAR(snap.maxSeconds(), 1e-3, 1e-3 / 32.0);
}

TEST(ObsHistogram, ConcurrentRecordLosesNothing)
{
    Histogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i) {
                h.record(t * 1000 + (i % 97));
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    EXPECT_EQ(h.snapshot().count(), kThreads * kPerThread);
}

// --- Registry --------------------------------------------------------

TEST(ObsRegistry, ReturnsStableReferences)
{
    Registry registry;
    Counter &c1 = registry.counter("chimera.test.counter");
    Counter &c2 = registry.counter("chimera.test.counter");
    EXPECT_EQ(&c1, &c2);
    c1.add(3);
    EXPECT_EQ(c2.value(), 3);
    Histogram &h1 = registry.histogram("chimera.test.h_seconds");
    Histogram &h2 = registry.histogram("chimera.test.h_seconds");
    EXPECT_EQ(&h1, &h2);
    Gauge &g = registry.gauge("chimera.test.gauge");
    g.set(7);
    g.add(-2);
    EXPECT_EQ(g.value(), 5);
}

TEST(ObsRegistry, RenderJsonMergesRegistries)
{
    Registry a;
    Registry b;
    a.counter("chimera.test.only_a").add(1);
    b.counter("chimera.test.only_b").add(2);
    b.histogram("chimera.test.lat_seconds").recordSeconds(0.125);
    b.histogram("chimera.test.sizes").record(4);
    const std::string json = renderJson({&a, &b, nullptr});
    EXPECT_NE(json.find("\"chimera.test.only_a\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"chimera.test.only_b\": 2"), std::string::npos);
    // *_seconds histograms render in the seconds domain...
    EXPECT_NE(json.find("\"chimera.test.lat_seconds\": {\"count\": 1, "
                        "\"p50_seconds\": "),
              std::string::npos);
    // ...anything else renders raw integer percentiles.
    EXPECT_NE(json.find("\"chimera.test.sizes\": {\"count\": 1, "
                        "\"p50\": 4"),
              std::string::npos);
}

TEST(ObsRegistry, CounterValueReadsOnlyExistingCounters)
{
    Registry registry;
    registry.counter("chimera.test.hits").add(2);
    EXPECT_EQ(registry.counterValue("chimera.test.hits"), 2);
    // A misspelt name throws instead of reading as 0.
    EXPECT_THROW((void)registry.counterValue("chimera.test.hit"),
                 std::out_of_range);
}

TEST(ObsRegistry, GlobalIsSingleton)
{
    EXPECT_EQ(&Registry::global(), &Registry::global());
}

// --- TraceRecorder ---------------------------------------------------

TEST(ObsTrace, RecordsCompleteEventsWithArgs)
{
    TraceRecorder recorder;
    {
        Span span(&recorder, "test.span", "test");
        span.arg("i", std::int64_t{42})
            .arg("f", 2.5)
            .arg("s", std::string("hello \"quoted\"\n"));
    }
    recorder.instant("test.marker", "test", {{"k", std::int64_t{1}}});
    EXPECT_EQ(recorder.eventCount(), 2);
    const std::string json = recorder.toJson();
    EXPECT_NE(json.find("\"name\": \"test.span\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"i\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"f\": 2.5"), std::string::npos);
    // The string arg must be escaped, not raw.
    EXPECT_NE(json.find("hello \\\"quoted\\\"\\n"), std::string::npos);
    EXPECT_EQ(json.find('\r'), std::string::npos);
}

TEST(ObsTrace, SpanEndIsIdempotent)
{
    TraceRecorder recorder;
    Span span(&recorder, "test.span", "test");
    span.end();
    span.end(); // second end records nothing
    span.arg("late", std::int64_t{1}); // args after end are dropped
    EXPECT_EQ(recorder.eventCount(), 1);
}

TEST(ObsTrace, NullRecorderSpanIsNoop)
{
    Span span(nullptr, "test.span", "test");
    span.arg("k", std::int64_t{1});
    EXPECT_FALSE(span.enabled());
    span.end(); // must not crash
}

TEST(ObsTrace, MultiThreadedRecordingKeepsEveryEvent)
{
    TraceRecorder recorder;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&recorder, t] {
            recorder.nameThread("worker." + std::to_string(t));
            for (int i = 0; i < kPerThread; ++i) {
                Span span(&recorder, "test.op", "test");
                span.arg("t", std::int64_t{t}).arg("i", std::int64_t{i});
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    // + kThreads: nameThread records one metadata event per track.
    EXPECT_EQ(recorder.eventCount(), kThreads * (kPerThread + 1));
    EXPECT_EQ(recorder.droppedCount(), 0);
    const std::string json = recorder.toJson();
    // Thread-name metadata events for every worker track.
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_NE(json.find("worker." + std::to_string(t)),
                  std::string::npos);
    }
}

TEST(ObsTrace, ReadersSeeConsistentStateDuringRecording)
{
    // toJson while writers append: the snapshot must always be valid
    // JSON-shaped output over a prefix of the events, never a torn
    // read. (TSan runs this test too; see the CI filter.)
    TraceRecorder recorder;
    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> written{0};
    std::thread writer([&] {
        while (!stop.load()) {
            // Cap the volume: each toJson below is O(events), and an
            // unthrottled writer would make the reader loop quadratic.
            if (written.load() < 20000) {
                Span span(&recorder, "test.op", "test");
                span.arg("x", std::int64_t{1});
                written.fetch_add(1);
            } else {
                std::this_thread::yield();
            }
        }
    });
    while (written.load() == 0) {
        std::this_thread::yield();
    }
    for (int i = 0; i < 50; ++i) {
        const std::string json = recorder.toJson();
        EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    }
    stop.store(true);
    writer.join();
    EXPECT_GT(recorder.eventCount(), 0);
}

TEST(ObsTrace, SharedClockWithNowNanos)
{
    const std::int64_t before = nowNanos();
    TraceRecorder recorder;
    {
        Span span(&recorder, "test.span", "test");
    }
    const std::int64_t after = nowNanos();
    EXPECT_LE(before, after);
    // Timestamps in the export are microseconds on the same epoch.
    const std::string json = recorder.toJson();
    EXPECT_NE(json.find("\"ts\": "), std::string::npos);
}

} // namespace
} // namespace chimera::obs
