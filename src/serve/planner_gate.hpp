#pragma once

/**
 * @file
 * Single-flight admission of serve requests into the plan cache.
 *
 * A daemon's cold start is a planning stampede: N identical requests
 * arrive before the first plan lands in the cache, and without
 * coordination every one of them would enumerate the same block orders.
 * The gate wraps the persistent PlanCache with per-fingerprint
 * single-flight: the first thread to miss becomes the leader and plans;
 * every other thread with the same fingerprint joins the flight and
 * waits for the leader's plan. Fingerprint *hits* never touch the
 * flight table — they return straight off the cache's fast path.
 *
 * Two plan flavors exist per compatibility class:
 *
 *  - the canonical slice plan: the batch == 1 chain, planned with the
 *    full inter-block search (this is the expensive, single-flighted
 *    one), and
 *  - derived batched plans: the batch == B chain with the b axis
 *    prepended to the canonical order and every canonical tile pinned
 *    (b tiles at 1), solved by the fixed-order planner. Pinning makes
 *    the per-slice block walk — and therefore the per-slice arithmetic
 *    — identical to the canonical plan's, which is what lets the
 *    batcher return bitwise-identical outputs whether a request ran
 *    alone or coalesced into a batch.
 */

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ir/builders.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"

namespace chimera::serve {

/** Gate configuration. */
struct PlannerGateOptions
{
    /** On-chip capacity for planning, bytes. */
    double capacityBytes = 768.0 * 1024;

    /**
     * Plan-cache directory: empty = PlanCache::defaultDirectory().
     * Pass "-" for a memory-only cache.
     */
    std::string cacheDir;

    /** Audit winning plans with the legality verifier. */
    bool verifyPlans = false;
};

/** Counters exposed through the daemon's stats document. */
struct PlannerGateStats
{
    int flightsLed = 0; ///< planner actually ran (once per cold key)
    int flightsJoined = 0; ///< waited on a concurrent leader's plan
    int derivedPlans = 0; ///< fixed-order batched derivations solved
    int certifiedPlans = 0; ///< plans served with an SB certificate
    int recertifiedPlans = 0; ///< pre-analyzer cache entries re-proven
    plan::PlanCacheStats cache; ///< underlying plan-cache counters
};

/** Single-flight planning front-end shared by all serve executors. */
class PlannerGate
{
  public:
    explicit PlannerGate(const PlannerGateOptions &options);

    /**
     * The canonical (batch == 1) plan for @p slice's compatibility
     * class. Cache hits are lock-free with respect to the flight
     * table; concurrent cold calls for one fingerprint plan exactly
     * once. Throws Error when no feasible plan exists.
     */
    plan::ExecutionPlan canonicalPlan(const ir::GemmChainConfig &slice);

    /**
     * The derived plan for the same class at total batch
     * @p totalBatch (> 1): canonical order with b outermost, canonical
     * tiles pinned, b tile 1. Also cached and single-flighted (the
     * fixed-order solve is cheap but not free).
     */
    plan::ExecutionPlan batchedPlan(const ir::GemmChainConfig &slice,
                                    std::int64_t totalBatch);

    PlannerGateStats stats() const;

    plan::PlanCache &cache() { return cache_; }

  private:
    struct Flight
    {
        bool done = false;
        plan::ExecutionPlan plan;
        std::exception_ptr error;
    };

    /**
     * Runs @p planFn under single-flight for the fingerprint of
     * (@p chain, @p po): the first caller plans, concurrent callers wait
     * and share the result (or the leader's exception). Before leading,
     * the cache is checked again under the flight lock, so a caller
     * whose miss raced a flight that has since finished (and stored its
     * plan) takes the stored plan instead of planning a second time.
     */
    plan::ExecutionPlan
    once(const ir::Chain &chain, const plan::PlannerOptions &po,
         const std::function<plan::ExecutionPlan()> &planFn);

    plan::PlannerOptions plannerOptions(const ir::Chain &chain) const;

    /**
     * Serves only plans carrying a valid SB01-SB04 safety certificate:
     * already-certified plans pass through (counted), uncertified ones
     * (pre-analyzer cache entries) get one re-certification attempt,
     * and plans the analyzer refutes raise Error with the violations —
     * the daemon refuses to serve what it cannot prove safe.
     */
    void ensureCertified(const ir::Chain &chain,
                         const plan::PlannerOptions &po,
                         plan::ExecutionPlan &plan);

    const PlannerGateOptions options_;
    plan::PlanCache cache_;

    mutable std::mutex flightMutex_;
    std::condition_variable flightDone_;
    std::map<std::string, std::shared_ptr<Flight>> flights_;
    /// Atomics, not mutex-guarded ints: stats() snapshots run on the
    /// stats/metrics path concurrently with planning flights, and must
    /// never contend with (or race against) the flight table.
    std::atomic<int> flightsLed_{0};
    std::atomic<int> flightsJoined_{0};
    std::atomic<int> derivedPlans_{0};
    std::atomic<int> certifiedPlans_{0};
    std::atomic<int> recertifiedPlans_{0};
};

/**
 * The batch == 1 canonical slice of @p config: identical m/n/k/l,
 * epilogue, scale and mask, name normalized. Two requests are
 * batch-compatible iff their canonical slices describe the same chain.
 */
ir::GemmChainConfig canonicalSlice(const ir::GemmChainConfig &config);

} // namespace chimera::serve
