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

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ir/builders.hpp"
#include "obs/metrics.hpp"
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

    /**
     * This gate's counters, the only place they are kept:
     * `chimera.serve.plans_led` (the planner ran, once per cold key),
     * `plans_joined` (waited on a concurrent leader's plan),
     * `derived_plans` (fixed-order batched derivations solved),
     * `certified_plans` (plans served with an SB certificate) and
     * `recertified_plans` (pre-analyzer cache entries re-proven). The
     * plan cache keeps its own, see PlanCache::registry().
     */
    const obs::Registry &registry() const { return registry_; }

    plan::PlanCache &cache() { return cache_; }
    const plan::PlanCache &cache() const { return cache_; }

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
    /// Registry counters, not mutex-guarded ints: the stats/metrics path
    /// reads them concurrently with planning flights, and must never
    /// contend with (or race against) the flight table.
    obs::Registry registry_;
    obs::Counter &flightsLed_;
    obs::Counter &flightsJoined_;
    obs::Counter &derivedPlans_;
    obs::Counter &certifiedPlans_;
    obs::Counter &recertifiedPlans_;
};

/**
 * The batch == 1 canonical slice of @p config: identical m/n/k/l,
 * epilogue, scale and mask, name normalized. Two requests are
 * batch-compatible iff their canonical slices describe the same chain.
 */
ir::GemmChainConfig canonicalSlice(const ir::GemmChainConfig &config);

} // namespace chimera::serve
