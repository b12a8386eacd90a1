#pragma once

/**
 * @file
 * What every workload shares: the run context, the result ledger
 * (metrics plus the attempted / failed operation counts), and the
 * timing helpers. Every call into the program passes an explicit
 * worker count taken from the context; nothing here consults the
 * environment.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/chain.hpp"
#include "kernels/micro_kernel.hpp"
#include "plan/planner.hpp"
#include "spans.hpp"

namespace perfbench {

/** Everything a workload needs to know about its run. */
struct Context
{
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< measured time budget of the run
    bool trace = false;    ///< traced run: report per-layer metrics
    int workers = 1;       ///< min(4, nproc / 2): the multi-worker count
    std::string workdir;   ///< per-run temp directory (cwd of the run)
};

/** A reported metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics plus the operation ledger behind `attempted` / `failed`. */
class Results
{
  public:
    void set(const std::string &name, double value, const std::string &unit);

    /**
     * Counts one checked operation; a false @p ok is a failure, logged
     * as "<subject>: <what>".
     */
    bool check(bool ok, const std::string &subject, const char *what);

    const std::map<std::string, Metric> &metrics() const { return metrics_; }
    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }

  private:
    std::map<std::string, Metric> metrics_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    int reportedFailures_ = 0;
};

/** A chain a workload plans, the options it plans with, and the plan. */
struct PlannedChain
{
    std::string family; ///< e.g. gemm-softmax, conv, dsl
    chimera::ir::Chain chain{""};
    chimera::plan::PlannerOptions options; ///< search on one thread, no cache
    chimera::plan::ExecutionPlan plan;     ///< the cold plan of the chain
};

/** Planner budget of the fig5 benches: most of a Xeon-class per-core L2. */
constexpr double kCapacityBytes = 768.0 * 1024;

/** Widest micro-kernel the running CPU supports. */
const chimera::kernels::MicroKernel &hostKernel();

/** Seconds on the steady clock. */
double nowSeconds();

/**
 * The setup_s rule. The untraced run repeats the workload's set-up
 * throughout its passes, at most once per kSetupInterval, so set-up
 * meets the same host conditions as the passes rather than those of
 * the run's first second; setup_s is the median of at least kMinSetups
 * set-ups. Each set-up replaces the previous one's state.
 */
class Setup
{
  public:
    static constexpr double kSetupInterval = 0.5; ///< seconds between set-ups
    static constexpr std::size_t kMinSetups = 7;

    explicit Setup(std::function<void()> setup) : setup_(std::move(setup)) {}

    /** Runs and times one set-up. */
    void run();

    /** Runs one set-up if kSetupInterval passed since the last one. */
    void runIfDue();

    /** Median seconds of one set-up, after topping up to kMinSetups. */
    double medianSeconds();

  private:
    std::function<void()> setup_;
    std::vector<double> seconds_;
    double lastEnd_ = 0.0;
};

/** Peak resident set size of this process, MB. */
double peakRssMb();

/**
 * Runs @p jobs on up to @p workers threads and waits for all of them;
 * the first exception is rethrown after every thread has joined.
 */
void runConcurrently(const std::vector<std::function<void()>> &jobs, int workers);

/**
 * The traced run's trace metrics: the span count and each layer's
 * share of the summed self time.
 */
void reportTrace(const SpanLog &spans, Results &results);

/** Derives an independent seed for one input from the run seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * @name Layer probes
 * Every traced run ends with the same probes, so every workload reports
 * every per-layer metric: each layer's public functions timed from
 * outside on fixed inputs (the kernels, exec and serve probes) or on
 * the chains the workload plans (the plan probes).
 *  @{ */
void probeLayers(const Context &ctx, std::vector<PlannedChain> &chains, SpanLog &spans,
                 Results &results);
/** kernels.micro_gflops, kernels.block_matmul_gflops, exec.dispatch_us. */
void probeKernelAndExec(const Context &ctx, double budget, SpanLog &spans, Results &results);
/** plan.*, analysis.*, verify.*, plan_io.* and model.* over @p chains. */
void probePlanning(const Context &ctx, std::vector<PlannedChain> &chains, double budget,
                   SpanLog &spans, Results &results);
/** serve.protocol.*, serve.batcher.*, serve.gate.*, serve.exec_us.*. */
void probeServe(const Context &ctx, double budget, SpanLog &spans, Results &results);
/** @} */

/** @name Workloads (one process runs one of them)
 *  @{ */
Results runGemmChains(const Context &ctx, SpanLog &spans);
Results runConvChains(const Context &ctx, SpanLog &spans);
Results runPlanCorpus(const Context &ctx, SpanLog &spans);
Results runServeMixed(const Context &ctx, SpanLog &spans);
/** @} */

} // namespace perfbench
