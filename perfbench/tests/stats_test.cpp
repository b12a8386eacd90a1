/**
 * @file
 * Tests of the benchmark's own statistics: the percentile support rule,
 * self time from nested spans, and open-loop lag accounting. Run with
 * `ctest` in the benchmark's build directory.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int gFailures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "stats_test.cpp:%d: FAILED: %s\n", line, what);
        ++gFailures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 + 1e-9 * std::fabs(b);
}

using namespace perfbench;

void
percentileRuleNeedsTenSamplesBeyond()
{
    EXPECT(samplesBeyond(1000, 99) == 10);
    EXPECT(percentileSupported(1000, 99));
    EXPECT(!percentileSupported(999, 99));
    EXPECT(percentileSupported(100, 90));
    EXPECT(!percentileSupported(99, 90));
    EXPECT(percentileSupported(20, 50));
    EXPECT(!percentileSupported(19, 50));
    EXPECT(samplesBeyond(0, 99) == 0);
}

void
percentilesAreNearestRank()
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i) {
        samples.push_back(i);
    }
    EXPECT(percentile(samples, 99) == 99.0);
    EXPECT(percentile(samples, 50) == 50.0);
    EXPECT(percentile(samples, 100) == 100.0);
    EXPECT(percentile(samples, 0) == 1.0);
    EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
    EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    EXPECT(median({}) == 0.0);
}

SpanRecord
span(std::int64_t id, std::int64_t parent, const char *name, std::int64_t start, std::int64_t end)
{
    SpanRecord s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start = start;
    s.end = end;
    return s;
}

void
selfTimeSubtractsTheUnionOfChildren()
{
    // bench.sweep [0,100] has three children: two overlap ([10,30] and
    // [20,50] cover 40 together) and one runs past the parent's end
    // (only [90,100] counts). exec.b holds a grandchild of 3.
    const std::vector<SpanRecord> spans = {
        span(1, 0, "bench.sweep", 0, 100),   span(2, 1, "exec.a", 10, 30),
        span(3, 1, "exec.b", 20, 50),        span(4, 1, "exec.c", 90, 120),
        span(5, 3, "kernels.micro", 25, 28),
    };
    const auto self = selfSecondsByLayer(spans);
    EXPECT(near(self.at("bench"), 50e-9));
    EXPECT(near(self.at("exec"), (20 + 27 + 30) * 1e-9));
    EXPECT(near(self.at("kernels"), 3e-9));
    EXPECT(layerOf("plan_io.serializePlan") == "plan_io");
    EXPECT(layerOf("bench") == "bench");
}

void
spansNestPerThreadAndExportAsPerfetto()
{
    SpanLog log(true);
    std::int64_t outerId = 0;
    {
        const Span outer(log, "bench.outer");
        outerId = outer.id();
        const Span inner(log, "exec.inner");
    }
    const Span sibling(log, "exec.explicit", outerId);
    const std::vector<SpanRecord> spans = log.spans();
    EXPECT(spans.size() == 2); // sibling is still open
    EXPECT(spans[0].name == "exec.inner" && spans[0].parent == outerId);
    EXPECT(spans[1].name == "bench.outer" && spans[1].parent == 0);
    EXPECT(spans[0].start >= spans[1].start && spans[0].end <= spans[1].end);
    const std::string json = perfettoJson(spans);
    EXPECT(json.find("\"traceEvents\"") != std::string::npos);
    EXPECT(json.find("\"ph\":\"X\"") != std::string::npos);
    EXPECT(json.find("\"cat\":\"exec\"") != std::string::npos);
    EXPECT(json.find("\"parent\":" + std::to_string(outerId)) != std::string::npos);

    SpanLog off(false);
    {
        const Span ignored(off, "exec.ignored");
        EXPECT(ignored.id() == 0);
    }
    EXPECT(off.spans().empty());
}

void
openLoopLatencyRunsFromTheDueTime()
{
    // Due every 10 ms; the generator stalls 40 ms after the first send,
    // then sends the three overdue requests at once, each answered 1 ms
    // after it went out. The fifth request is never answered.
    const std::vector<OpenLoopRequest> requests = {
        {0.00, 0.00, 0.001}, {0.01, 0.05, 0.051}, {0.02, 0.05, 0.051},
        {0.03, 0.05, 0.051}, {0.04, 0.05, -1.0},
    };
    const OpenLoopSummary s = summarizeOpenLoop(requests);
    EXPECT(s.answered == 4 && s.missing == 1);
    EXPECT(s.latency.size() == 4 && s.lag.size() == 5);
    EXPECT(near(s.latency[0], 0.001));
    EXPECT(near(s.latency[1], 0.041)); // the stall counts against the request
    EXPECT(near(s.latency[3], 0.021));
    EXPECT(near(s.lag[1], 0.04));
    EXPECT(near(s.lag[4], 0.01));
    EXPECT(near(percentile(s.lag, 100), 0.04));
    EXPECT(near(s.achievedRate, 4 / 0.051));
}

} // namespace

int
main()
{
    percentileRuleNeedsTenSamplesBeyond();
    percentilesAreNearestRank();
    selfTimeSubtractsTheUnionOfChildren();
    spansNestPerThreadAndExportAsPerfetto();
    openLoopLatencyRunsFromTheDueTime();
    if (gFailures == 0) {
        std::printf("perfbench stats tests passed\n");
    }
    return gFailures == 0 ? 0 : 1;
}
