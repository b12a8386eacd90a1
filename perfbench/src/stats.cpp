#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/** 1-based nearest rank of the p-th percentile among n samples. */
std::int64_t
nearestRank(std::int64_t n, double p)
{
    const auto rank =
        static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::int64_t>(rank, 1, n);
}

} // namespace

double
median(std::vector<double> samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    const std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                     samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1) {
        return upper;
    }
    const double lower = *std::max_element(samples.begin(),
                                           samples.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lower + upper);
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty()) {
        return 0.0;
    }
    const auto n = static_cast<std::int64_t>(samples.size());
    const auto index = static_cast<std::ptrdiff_t>(nearestRank(n, p) - 1);
    std::nth_element(samples.begin(), samples.begin() + index, samples.end());
    return samples[static_cast<std::size_t>(index)];
}

std::int64_t
samplesBeyond(std::int64_t n, double p)
{
    return n <= 0 ? 0 : n - nearestRank(n, p);
}

bool
percentileSupported(std::int64_t n, double p)
{
    return samplesBeyond(n, p) >= 10;
}

OpenLoopSummary
summarizeOpenLoop(const std::vector<OpenLoopRequest> &requests)
{
    OpenLoopSummary summary;
    double firstDue = 0.0;
    double lastDone = 0.0;
    for (const OpenLoopRequest &r : requests) {
        summary.lag.push_back(r.sent - r.due);
        if (r.done < 0.0) {
            ++summary.missing;
            continue;
        }
        summary.latency.push_back(r.done - r.due);
        firstDue = summary.answered == 0 ? r.due : std::min(firstDue, r.due);
        lastDone = summary.answered == 0 ? r.done : std::max(lastDone, r.done);
        ++summary.answered;
    }
    if (summary.answered > 0 && lastDone > firstDue) {
        summary.achievedRate = static_cast<double>(summary.answered) / (lastDone - firstDue);
    }
    return summary;
}

} // namespace perfbench
