#pragma once

/**
 * @file
 * Sample statistics of the benchmark: medians, nearest-rank
 * percentiles with the "ten samples beyond" support rule, and the
 * open-loop accounting that times each request from when it was due.
 */

#include <cstdint>
#include <vector>

namespace perfbench {

/** Median of @p samples (0 when empty). */
double median(std::vector<double> samples);

/**
 * Nearest-rank percentile: the smallest sample with at least p% of the
 * samples at or below it. @p p in [0, 100]; 0 when empty.
 */
double percentile(std::vector<double> samples, double p);

/** Samples strictly above the nearest-rank p-th percentile of @p n. */
std::int64_t samplesBeyond(std::int64_t n, double p);

/**
 * True when the p-th percentile of @p n samples has at least ten
 * samples beyond it, the least tail a reported percentile may rest on.
 */
bool percentileSupported(std::int64_t n, double p);

/** One request of an open-loop schedule, seconds on one clock. */
struct OpenLoopRequest
{
    double due = 0.0;   ///< when the schedule said to send it
    double sent = 0.0;  ///< when the generator actually sent it
    double done = -1.0; ///< response receipt; < 0 = never answered
};

/** What an open-loop phase measured. */
struct OpenLoopSummary
{
    /** done - due per answered request: a stall delays every later one. */
    std::vector<double> latency;
    /** sent - due per request: how late the generator itself ran. */
    std::vector<double> lag;
    std::int64_t answered = 0;
    std::int64_t missing = 0;
    /** Answered requests per second, first due time to last answer. */
    double achievedRate = 0.0;
};

OpenLoopSummary summarizeOpenLoop(const std::vector<OpenLoopRequest> &requests);

} // namespace perfbench
