#include "bench.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "stats.hpp"
#include "support/cpu_features.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

void
Results::set(const std::string &name, double value, const std::string &unit)
{
    metrics_[name] = Metric{value, unit};
}

bool
Results::check(bool ok, const std::string &subject, const char *what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (reportedFailures_ < 20) {
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s: %s\n", subject.c_str(), what);
            ++reportedFailures_;
        }
    }
    return ok;
}

const chimera::kernels::MicroKernel &
hostKernel()
{
    return chimera::kernels::MicroKernelRegistry::instance().select(chimera::detectSimdTier());
}

double
nowSeconds()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Setup::run()
{
    const double start = nowSeconds();
    setup_();
    lastEnd_ = nowSeconds();
    seconds_.push_back(lastEnd_ - start);
}

void
Setup::runIfDue()
{
    if (nowSeconds() - lastEnd_ >= kSetupInterval) {
        run();
    }
}

double
Setup::medianSeconds()
{
    while (seconds_.size() < kMinSetups) {
        run();
    }
    return median(seconds_);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void
runConcurrently(const std::vector<std::function<void()>> &jobs, int workers)
{
    std::mutex mutex;
    std::size_t next = 0;
    std::exception_ptr error;
    const auto drain = [&] {
        for (;;) {
            std::size_t job = 0;
            {
                const std::lock_guard<std::mutex> lock(mutex);
                if (next == jobs.size() || error) {
                    return;
                }
                job = next++;
            }
            try {
                jobs[job]();
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex);
                if (!error) {
                    error = std::current_exception();
                }
            }
        }
    };
    std::vector<std::thread> threads;
    for (int w = 1; w < workers; ++w) {
        threads.emplace_back(drain);
    }
    drain();
    for (std::thread &t : threads) {
        t.join();
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

void
reportTrace(const SpanLog &spans, Results &results)
{
    const std::vector<SpanRecord> records = spans.spans();
    const std::map<std::string, double> self = selfSecondsByLayer(records);
    double total = 0.0;
    for (const auto &[layer, seconds] : self) {
        total += seconds;
    }
    for (const auto &[layer, seconds] : self) {
        results.set("trace.self_frac." + layer, total > 0.0 ? seconds / total : 0.0, "ratio");
    }
    results.set("trace.spans", static_cast<double>(records.size()), "count");
}

void
probeLayers(const Context &ctx, std::vector<PlannedChain> &chains, SpanLog &spans,
            Results &results)
{
    const Span span(spans, "bench.probes");
    results.set("workers_mt", chimera::resolveThreadCount(ctx.workers), "count");
    probeKernelAndExec(ctx, 0.08 * ctx.seconds, spans, results);
    probePlanning(ctx, chains, 0.17 * ctx.seconds, spans, results);
    probeServe(ctx, 0.1 * ctx.seconds, spans, results);
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 finalizer over (seed, stream): distinct streams give
    // unrelated inputs, the same pair always the same ones.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
