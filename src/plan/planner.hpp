#pragma once

/**
 * @file
 * The inter-block planner (Figure 3: "block decomposition" + "inter-block
 * reordering").
 *
 * For a chain it enumerates the I! block execution orders over the
 * reorderable axes (pinned kernel axes stay innermost), solves the tile
 * sizes for each order with the analytical model, and returns the order
 * with the minimal predicted data movement volume. A multi-level variant
 * plans one schedule per memory level (§IV-C), constraining inner-level
 * tiles to nest inside outer-level tiles.
 */

#include <map>
#include <string>
#include <vector>

#include "analysis/dependence.hpp"
#include "analysis/order_equivalence.hpp"
#include "analysis/static_safety.hpp"
#include "ir/chain.hpp"
#include "model/multilevel.hpp"
#include "solver/tile_solver.hpp"
#include "support/error.hpp"

namespace chimera::plan {

class PlanCache;

/** A fully decided block schedule for one memory level. */
struct ExecutionPlan
{
    /** Block execution order: all axes, outermost first. */
    std::vector<ir::AxisId> perm;

    /** Tile size per axis. */
    std::vector<std::int64_t> tiles;

    /**
     * Concurrency class per axis (indexed by AxisId), derived by the
     * dependence analysis when the plan is made and serialized in the
     * v2 plan document. The executors consult this table — not their
     * own judgment — to pick the block loops they distribute across
     * workers. Empty on hand-assembled plans; executors then analyze
     * fresh (see effectiveConcurrency).
     */
    std::vector<analysis::AxisConcurrency> concurrency;

    /**
     * Worker count the chunking below was solved for (1 = serial plan;
     * PlannerOptions::execThreads). Part of the plan fingerprint: a
     * plan chunked for 8 workers is never served to a 1-thread run.
     */
    int plannedThreads = 1;

    /**
     * Chunk grain per axis (indexed by AxisId): how many consecutive
     * blocks of a proven-parallel region axis one dispatch chunk
     * covers. Executors group that many blocks into one worker task
     * (serially, ascending) instead of dispatching raw blocks, which
     * bounds dispatch overhead on huge block grids while the planner's
     * refinement step guarantees enough chunks for plannedThreads
     * workers. Empty (or all 1) means one block per chunk — the
     * pre-thread-aware behavior.
     */
    std::vector<std::int64_t> parallelGrain;

    /**
     * Static-safety certificate (SB01-SB04) attached by the planner
     * when the analyzer proves the schedule safe over the configured
     * shape domain (PlannerOptions::safetyDomain). Serialized as the
     * v2 `safety:` document line when certified; default-constructed
     * (uncertified) on hand-assembled plans and documents without the
     * line.
     */
    analysis::SafetyCertificate safety;

    /**
     * Where the order search's candidates went (enumerated / filtered /
     * symmetry-pruned / dominance-pruned / solved). In memory only: the
     * plan document does not carry it, so plans loaded from a document
     * and fixed-order plans have all-zero stats.
     */
    analysis::SearchStats search;

    /** Algorithm-1 volume prediction for this plan, bytes. */
    double predictedVolumeBytes = 0.0;

    /** Peak on-chip footprint, bytes. */
    std::int64_t memUsageBytes = 0;

    /**
     * Number of candidates actually solved (executable-order filtering
     * happens before solving and is excluded; the debug log reports the
     * filtered count). 0 means the plan was served from the plan cache.
     */
    int candidatesExamined = 0;

    /** Wall time spent planning, seconds (§VI-E overhead experiment). */
    double planSeconds = 0.0;
};

/** Planner knobs. */
struct PlannerOptions
{
    /** On-chip capacity in bytes for the single-level constraint. */
    double memCapacityBytes = 0.0;

    /** Executor tile restrictions (micro-kernel multiples etc.). */
    solver::TileConstraints constraints;

    /** Hard cap on enumerated permutations (I! can grow quickly). */
    int maxPermutations = 40320;

    /** Forwarded to Algorithm 1. */
    model::ModelOptions model;

    /** Forwarded to the tile solver. */
    int solverSweeps = 6;

    /**
     * When true (default) only orders executable with single on-chip
     * intermediate regions are considered (see model::isExecutableOrder).
     */
    bool onlyExecutableOrders = true;

    /**
     * Search pruning (analysis/order_equivalence.hpp). Every mode is
     * exact — the chosen plan is bitwise identical to exhaustive
     * enumeration — so the mode is excluded from the cache key.
     */
    analysis::PruneMode prune = analysis::PruneMode::Dominance;

    /**
     * Threads for the (permutation -> tile solve) candidate loop:
     * >= 1 is exact, <= 0 defers to CHIMERA_THREADS / the hardware
     * count. The winner is reduced serially in enumeration order with
     * the same better-than predicate as the serial loop (ties break on
     * the earlier permutation), so the chosen plan is identical at
     * every thread count. Search-only: does NOT change the plan and is
     * excluded from the cache key (execThreads below is the knob that
     * changes what is planned).
     */
    int threads = 0;

    /**
     * Worker count the *executed* plan should scale to. With > 1 the
     * planner (a) clamps the capacity budget to each worker's share of
     * the topology's shared levels, (b) refines proven-parallel region
     * tiles until the parallel block grid has at least execThreads
     * chunks (preferring a worker-balanced multiple), and (c) emits the
     * chunk grain + thread count into the plan. 1 (default) reproduces
     * the thread-oblivious planner exactly. Part of the plan
     * fingerprint.
     */
    int execThreads = 1;

    /**
     * Core/cache topology for the thread-aware budgets (e.g.
     * hw::multicoreCpuTopology()). Shared levels clamp the per-worker
     * capacity to capacity / workers; an empty topology (default)
     * keeps memCapacityBytes as the only budget. Part of the plan
     * fingerprint when non-empty.
     */
    model::MachineModel topology;

    /**
     * Dispatch-grain target: the chunking step coarsens the parallel
     * grid to at most about chunksPerWorker * execThreads chunks so
     * huge block grids do not pay per-block dispatch overhead, while
     * refinement stops once the grid is a balanced multiple of the
     * worker count (or at least this many chunks per worker).
     */
    int chunksPerWorker = 4;

    /**
     * Shape-domain widening for the certificate: axis name -> maximum
     * extent. Each named axis is certified for extents [1, max]
     * instead of its concrete extent only (e.g. {"b", 4096} certifies
     * every batch size the serve batcher may derive). Empty (default)
     * certifies the concrete shape. Part of the cache key when
     * non-empty.
     */
    std::map<std::string, std::int64_t> safetyDomain;

    /**
     * Optional plan cache consulted before enumeration and updated with
     * the winning plan after (see plan_cache.hpp). The cache key covers
     * the chain structure and every plan-affecting option above except
     * threads (planning is deterministic at any thread count). nullptr
     * plans from scratch every call.
     */
    PlanCache *cache = nullptr;

    /**
     * Self-check every winning plan with verify::verifyExecutionPlan
     * before returning it (tile ranges, executability, capacity, and the
     * brute-force Algorithm-1 recount on small shapes); a failure throws
     * with the findings report. On by default in debug builds, off in
     * release (the checks cost one extra model evaluation per plan plus
     * the recount walk). Does not affect the cache key.
     */
#ifdef NDEBUG
    bool verify = false;
#else
    bool verify = true;
#endif
};

/**
 * Tile constraints applying the paper's alpha lower bound to every
 * reorderable axis (clamped to each extent): keeps tiles cache-line
 * friendly so free axes (e.g. T_N, T_K) do not collapse to width 1.
 */
solver::TileConstraints alphaConstraints(const ir::Chain &chain,
                                         std::int64_t alpha);

/**
 * Pins the axes whose blocking makes *no* order executable: when two
 * intermediates impose a cyclic ordering (axis x must be inner to axis
 * y and vice versa — e.g. l and p in a three-GEMM chain), the later
 * intermediate's region axis is fixed to its full extent so that
 * intermediate is held as a panel. Chains without cycles get no pins.
 */
solver::TileConstraints executabilityPins(const ir::Chain &chain);

/**
 * The concurrency table an executor must obey for @p plan: the plan's
 * own table when it carries one of the right arity (the normal case —
 * and deliberately also the tampered/mis-declared case, so the dynamic
 * race checker can observe what such a plan does), else a fresh
 * dependence analysis of (chain, tiles).
 */
std::vector<analysis::AxisConcurrency>
effectiveConcurrency(const ir::Chain &chain, const ExecutionPlan &plan);

/**
 * Runs the static safety analyzer on @p plan (under the options'
 * capacity/topology/safetyDomain) and attaches the certificate to it —
 * certified only when every SB rule proves. Used by the planner after
 * chunking and by serve::PlannerGate to re-certify cached plans stored
 * before certification existed. Returns the full analysis (violations
 * and per-rule timings).
 */
analysis::SafetyAnalysis certifyPlan(const ir::Chain &chain,
                                     const PlannerOptions &options,
                                     ExecutionPlan &plan);

/**
 * The candidate block orders planChain enumerates for @p chain under
 * @p options: every permutation of the reorderable axes (the
 * maxPermutations cap applied) with the pinned axes appended
 * innermost. @p truncated (optional) reports whether the cap cut the
 * enumeration short. Exported so the search verifier can replay the
 * exact search space (OE01-OE03).
 */
std::vector<std::vector<ir::AxisId>>
enumerateCandidateOrders(const ir::Chain &chain,
                         const PlannerOptions &options,
                         bool *truncated = nullptr);

/**
 * The tile constraints the order search actually solves under:
 * options.constraints plus the pinned-axis fixes and (when
 * onlyExecutableOrders) the executability pins. The order-equivalence
 * analyzer must be built against exactly these to reason about the
 * same candidate lattice as the solver.
 */
solver::TileConstraints searchConstraints(const ir::Chain &chain,
                                          const PlannerOptions &options);

/** Human-readable order string, e.g. "m,l,k,n". */
std::string orderString(const ir::Chain &chain,
                        const std::vector<ir::AxisId> &perm);

/**
 * Parses "m,l,k,n" into a full permutation (pinned axes appended);
 * throws on an unknown name or a repeated axis. Resolves names through
 * the plan-document binder's order binding (plan_io.cpp).
 */
std::vector<ir::AxisId> permFromOrderString(const ir::Chain &chain,
                                            const std::string &order);

/**
 * Thrown when no schedule of a chain fits the memory capacity: an input
 * error (the chain or the capacity is wrong), not a library fault. The
 * message names the chain and the capacity in bytes.
 */
class InfeasiblePlanError : public Error
{
  public:
    using Error::Error;
};

/**
 * Plans the best single-level schedule for @p chain.
 * Throws InfeasiblePlanError when no schedule fits the capacity.
 */
ExecutionPlan planChain(const ir::Chain &chain,
                        const PlannerOptions &options);

/**
 * Solves tiles for one pinned block order (no enumeration). Used by the
 * fixed-order (template-library-style) baseline and by sweeps that need
 * a specific order. Throws InfeasiblePlanError when the order does not
 * fit the capacity.
 */
ExecutionPlan planFixedOrder(const ir::Chain &chain,
                             const std::vector<ir::AxisId> &perm,
                             const PlannerOptions &options);

/** Result of multi-level planning: one schedule per machine level. */
struct MultiLevelPlan
{
    /** Schedules innermost-level first (aligned with MachineModel). */
    std::vector<model::LevelSchedule> levels;

    /** Eq. 2-3 evaluation of the planned schedules. */
    model::MultiLevelCost cost;

    double planSeconds = 0.0;
};

/**
 * Plans per-level schedules against @p machine (§IV-C). Levels are
 * planned outermost first; each inner level's tiles are constrained to
 * nest inside the enclosing level's tiles.
 */
MultiLevelPlan planChainMultiLevel(const ir::Chain &chain,
                                   const model::MachineModel &machine,
                                   const PlannerOptions &baseOptions);

} // namespace chimera::plan
