#include "plan/planner.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <unordered_set>

#include "analysis/dependence.hpp"
#include "ir/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan_cache.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/mathutil.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "verify/plan_verifier.hpp"

namespace chimera::plan {

using ir::AxisId;
using ir::Chain;

solver::TileConstraints
alphaConstraints(const Chain &chain, std::int64_t alpha)
{
    solver::TileConstraints constraints;
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const ir::Axis &axis = chain.axes()[static_cast<std::size_t>(a)];
        // Batch never needs a width floor: it is an outer dimension of
        // every tensor, so its tile does not affect line utilization.
        if (axis.reorderable && axis.name != "b") {
            constraints.minTile[a] = std::min(alpha, axis.extent);
        }
    }
    return constraints;
}

solver::TileConstraints
executabilityPins(const Chain &chain)
{
    // Region (R) and user (U) axis sets per intermediate, over free
    // multi-extent reorderable axes.
    struct Sets
    {
        std::vector<AxisId> region;
        std::vector<AxisId> users;
    };
    std::vector<Sets> sets;
    for (std::size_t t = 0; t < chain.tensors().size(); ++t) {
        const ir::TensorDecl &tensor = chain.tensors()[t];
        if (tensor.kind != ir::TensorKind::Intermediate) {
            continue;
        }
        Sets s;
        for (const ir::OpDecl &op : chain.ops()) {
            if (std::find(op.tensorIds.begin(), op.tensorIds.end(),
                          static_cast<int>(t)) == op.tensorIds.end()) {
                continue;
            }
            for (AxisId axis : op.loops) {
                const ir::Axis &a =
                    chain.axes()[static_cast<std::size_t>(axis)];
                if (!a.reorderable || a.extent <= 1) {
                    continue;
                }
                auto &dst = tensor.usesAxis(axis) ? s.region : s.users;
                if (std::find(dst.begin(), dst.end(), axis) == dst.end()) {
                    dst.push_back(axis);
                }
            }
        }
        sets.push_back(std::move(s));
    }

    solver::TileConstraints pins;
    auto contains = [](const std::vector<AxisId> &v, AxisId a) {
        return std::find(v.begin(), v.end(), a) != v.end();
    };
    for (std::size_t i = 0; i < sets.size(); ++i) {
        for (std::size_t j = i + 1; j < sets.size(); ++j) {
            // Cycle: x in R_i and U_j, y in U_i and R_j. Pinning y to
            // its extent removes it from both sets and breaks the cycle
            // (the later intermediate becomes panel-resident along y).
            for (AxisId x : sets[i].region) {
                if (!contains(sets[j].users, x)) {
                    continue;
                }
                for (AxisId y : sets[i].users) {
                    if (contains(sets[j].region, y)) {
                        pins.fixed[y] =
                            chain.axes()[static_cast<std::size_t>(y)]
                                .extent;
                    }
                }
            }
        }
    }
    return pins;
}

std::vector<analysis::AxisConcurrency>
effectiveConcurrency(const ir::Chain &chain, const ExecutionPlan &plan)
{
    if (static_cast<int>(plan.concurrency.size()) == chain.numAxes()) {
        return plan.concurrency;
    }
    return analysis::analyzeConcurrency(chain, plan.tiles).kinds();
}

analysis::SafetyAnalysis
certifyPlan(const Chain &chain, const PlannerOptions &options,
            ExecutionPlan &plan)
{
    obs::Span span(obs::trace(), "plan.certify", "plan");
    analysis::ShapeDomain domain = analysis::ShapeDomain::concrete(chain);
    for (const auto &[axis, maxExtent] : options.safetyDomain) {
        domain.widen(chain, axis, maxExtent);
    }
    analysis::SafetyOptions so;
    so.memCapacityBytes = options.memCapacityBytes;
    so.topology = options.topology;
    const analysis::SafetyAnalysis sa = analysis::analyzeSafety(
        chain, plan.perm, plan.tiles, effectiveConcurrency(chain, plan),
        plan.plannedThreads, plan.parallelGrain, domain, so);
    plan.safety = sa.certificate;
    span.arg("chain", chain.name())
        .arg("certified", sa.certificate.certified ? 1 : 0);
    return sa;
}

std::string
orderString(const Chain &chain, const std::vector<AxisId> &perm)
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < perm.size(); ++i) {
        if (i != 0) {
            oss << ",";
        }
        oss << chain.axisName(perm[i]);
    }
    return oss.str();
}

namespace {

/**
 * The capacity budget the tile solver actually gets: memCapacityBytes
 * clamped to one worker's share of the topology's tightest shared level
 * (LLC pressure — DESIGN.md §"Thread-aware planning"). With no topology
 * or a single worker this is memCapacityBytes unchanged.
 */
double
effectiveCapacityBytes(const PlannerOptions &options)
{
    return model::clampedPerWorkerBudgetBytes(
        options.memCapacityBytes, options.topology, options.execThreads);
}

/** InfeasiblePlanError text: @p what plus the capacity in bytes. */
std::string
infeasibleMessage(const std::string &what, const PlannerOptions &options)
{
    std::ostringstream oss;
    oss << what << " under a memory capacity of " << std::fixed
        << std::setprecision(0) << options.memCapacityBytes << " bytes";
    return oss.str();
}

/** Blocks of @p axis under @p tiles (>= 1). */
std::int64_t
axisBlocks(const Chain &chain, const std::vector<std::int64_t> &tiles,
           AxisId axis)
{
    const std::int64_t extent =
        chain.axes()[static_cast<std::size_t>(axis)].extent;
    return ceilDiv(extent, std::max<std::int64_t>(
                               1, tiles[static_cast<std::size_t>(axis)]));
}

/** Chunks over the parallel region grid under @p grain. */
std::int64_t
chunkCount(const Chain &chain, const std::vector<std::int64_t> &tiles,
           const std::vector<std::int64_t> &grain,
           const std::vector<AxisId> &paxes)
{
    std::int64_t count = 1;
    for (AxisId a : paxes) {
        const std::int64_t g =
            grain.empty() ? 1 : grain[static_cast<std::size_t>(a)];
        count *= ceilDiv(axisBlocks(chain, tiles, a),
                         std::max<std::int64_t>(1, g));
    }
    return count;
}

/**
 * The thread-aware chunking step (runs on the winning plan only).
 *
 * 1. Refinement: while the parallel region grid has fewer blocks than
 *    plannedThreads workers (mandatory) or an unbalanced non-multiple
 *    count below chunksPerWorker * workers (best-effort), re-solve with
 *    the next-smaller candidate tile on one parallel axis — picking the
 *    re-solve with the smallest predicted volume — until the grid is
 *    worker-divisible or wide enough.
 * 2. Grain: coarsen innermost-first (doubling blocks per chunk) until
 *    at most about chunksPerWorker * workers chunks remain, never going
 *    below one chunk per worker.
 *
 * Refinement re-runs the dependence analysis after every accepted
 * re-solve (concurrency is tile-dependent), so the emitted table always
 * matches the final tiles.
 */
void
applyThreadChunking(const Chain &chain, ExecutionPlan &plan,
                    const PlannerOptions &options,
                    const solver::TileConstraints &constraints,
                    const solver::TileSolverOptions &solverOptions,
                    bool allowRefinement)
{
    const int workers = std::max(1, options.execThreads);
    plan.plannedThreads = workers;
    if (workers <= 1) {
        // Serial plans carry no chunking: byte-identical v2 documents
        // and bit-identical behavior with the pre-thread-aware planner.
        plan.parallelGrain.clear();
        return;
    }

    const std::int64_t target = workers;
    const std::int64_t balanced =
        static_cast<std::int64_t>(std::max(1, options.chunksPerWorker)) *
        target;

    // The axes whose blocks the executors distribute across workers:
    // the region axes the dependence analysis proved Parallel.
    auto parallelAxes = [&chain, &plan] {
        std::vector<AxisId> axes;
        for (AxisId a = 0; a < chain.numAxes(); ++a) {
            if (chain.isRegionAxis(a) &&
                plan.concurrency[static_cast<std::size_t>(a)] ==
                    analysis::AxisConcurrency::Parallel) {
                axes.push_back(a);
            }
        }
        return axes;
    };
    std::vector<AxisId> paxes = parallelAxes();
    std::vector<std::int64_t> grain(
        static_cast<std::size_t>(chain.numAxes()), 1);
    std::int64_t count = chunkCount(chain, plan.tiles, grain, paxes);

    for (int iter = 0; allowRefinement && iter < 64; ++iter) {
        const bool mandatory = count < target;
        const bool unbalanced = count % target != 0 && count < balanced;
        if (!mandatory && !unbalanced) {
            break;
        }
        // Candidate refinements: cap one parallel axis at its next
        // smaller solver candidate, re-solve, keep the cheapest volume
        // among those that actually widen the grid.
        solver::TileSolution bestSol;
        std::int64_t bestCount = count;
        bool haveBest = false;
        for (AxisId a : paxes) {
            if (constraints.fixed.count(a) != 0) {
                continue;
            }
            const std::int64_t current =
                plan.tiles[static_cast<std::size_t>(a)];
            std::int64_t next = 0;
            for (std::int64_t c :
                 solver::axisTileCandidates(chain, a, constraints)) {
                if (c < current && c > next) {
                    next = c;
                }
            }
            if (next <= 0) {
                continue;
            }
            solver::TileConstraints refined = constraints;
            const auto capIt = refined.maxTile.find(a);
            if (capIt == refined.maxTile.end() || capIt->second > next) {
                refined.maxTile[a] = next;
            }
            const solver::TileSolution sol = solver::solveTiles(
                chain, plan.perm, refined, solverOptions);
            if (!sol.feasible) {
                continue;
            }
            const std::int64_t newCount =
                chunkCount(chain, sol.tiles, grain, paxes);
            if (newCount <= count) {
                continue;
            }
            const bool better =
                !haveBest || sol.volumeBytes < bestSol.volumeBytes - 0.5 ||
                (sol.volumeBytes < bestSol.volumeBytes + 0.5 &&
                 newCount > bestCount);
            if (better) {
                bestSol = sol;
                bestCount = newCount;
                haveBest = true;
            }
        }
        if (!haveBest) {
            break; // no axis can widen the grid further
        }
        plan.tiles = bestSol.tiles;
        plan.predictedVolumeBytes = bestSol.volumeBytes;
        plan.memUsageBytes = bestSol.memUsageBytes;
        plan.concurrency =
            analysis::analyzeConcurrency(chain, plan.tiles).kinds();
        paxes = parallelAxes();
        count = bestCount;
    }

    // Grain coarsening: merge consecutive innermost blocks into one
    // dispatch chunk while more than ~chunksPerWorker tasks per worker
    // remain. Innermost-first keeps each chunk's blocks contiguous in
    // the region walk (best reuse of the per-worker regions).
    std::vector<AxisId> byDepth; // paxes ordered outermost -> innermost
    for (AxisId a : plan.perm) {
        if (std::find(paxes.begin(), paxes.end(), a) != paxes.end()) {
            byDepth.push_back(a);
        }
    }
    while (count > balanced) {
        bool coarsened = false;
        for (auto it = byDepth.rbegin(); it != byDepth.rend(); ++it) {
            const AxisId a = *it;
            const std::size_t ai = static_cast<std::size_t>(a);
            if (ceilDiv(axisBlocks(chain, plan.tiles, a), grain[ai]) <=
                1) {
                continue;
            }
            grain[ai] *= 2;
            const std::int64_t newCount =
                chunkCount(chain, plan.tiles, grain, paxes);
            if (newCount < target) {
                grain[ai] /= 2; // would starve workers
                continue;
            }
            count = newCount;
            coarsened = true;
            break;
        }
        if (!coarsened) {
            break;
        }
    }
    plan.parallelGrain = std::move(grain);
}

/**
 * PlannerOptions::verify self-check: re-derives every claim of a freshly
 * planned schedule and throws with the findings when any fail (a planner
 * or solver bug, never a user error).
 */
void
selfCheck(const Chain &chain, const ExecutionPlan &plan,
          const PlannerOptions &options, bool requireExecutableOrder,
          const char *what)
{
    verify::PlanVerifyOptions vo = verify::planVerifyOptions(options);
    vo.requireExecutableOrder = requireExecutableOrder;
    const verify::Report report =
        verify::verifyExecutionPlan(chain, plan, vo);
    CHIMERA_CHECK(!report.hasErrors(),
                  std::string(what) + " self-check failed for chain " +
                      chain.name() + ":\n" + report.render());
}

/** Builds the full permutation: reorderable prefix + pinned innermost. */
std::vector<AxisId>
fullPermutation(const Chain &chain, const std::vector<AxisId> &reorderable,
                const std::vector<int> &orderIdx)
{
    std::vector<AxisId> perm;
    perm.reserve(static_cast<std::size_t>(chain.numAxes()));
    for (int idx : orderIdx) {
        perm.push_back(reorderable[static_cast<std::size_t>(idx)]);
    }
    for (AxisId pinned : chain.pinnedAxes()) {
        perm.push_back(pinned);
    }
    return perm;
}

/** The enumeration + solve path behind planChain (cache misses). */
ExecutionPlan
planChainUncached(const Chain &chain, const PlannerOptions &options)
{
    WallTimer timer;
    CHIMERA_CHECK(chain.reorderableAxes().size() <= 8,
                  "too many reorderable axes to enumerate");

    solver::TileSolverOptions solverOptions;
    solverOptions.memCapacityBytes = effectiveCapacityBytes(options);
    solverOptions.maxSweeps = options.solverSweeps;
    solverOptions.model = options.model;

    const solver::TileConstraints constraints =
        searchConstraints(chain, options);

    // Axes fixed to their full extent (e.g. a middle-GEMM free dimension
    // held as a full panel) have one block and relax the executability
    // filter accordingly.
    std::vector<std::int64_t> filterTiles(
        static_cast<std::size_t>(chain.numAxes()), 1);
    for (const auto &[axis, tile] : constraints.fixed) {
        filterTiles[static_cast<std::size_t>(axis)] = std::min(
            tile, chain.axes()[static_cast<std::size_t>(axis)].extent);
    }

    // Materialize the candidate orders (respecting the cap) so the
    // independent (permutation -> tile solve) steps can be distributed
    // across threads.
    obs::Span searchSpan(obs::trace(), "plan.search", "plan");
    bool truncated = false;
    const std::vector<std::vector<AxisId>> candidates =
        enumerateCandidateOrders(chain, options, &truncated);

    analysis::SearchStats stats;
    stats.mode = options.prune;
    stats.enumerated = static_cast<std::int64_t>(candidates.size());
    stats.truncated = truncated;

    analysis::OrderAnalyzer analyzer(chain, constraints,
                                     solverOptions.memCapacityBytes,
                                     options.model);

    // Deterministic argmin: candidates are always reduced in
    // enumeration order with the exact serial better-than predicate,
    // so ties (and the +-0.5 volume slack) resolve to the same
    // permutation at every thread count. Volumes are exact integers in
    // doubles, so the predicate is a true lexicographic
    // (volume, memUsage, enumeration index) order — which is also what
    // makes symmetry and dominance pruning exact (DESIGN.md).
    ExecutionPlan best;
    bool haveBest = false;
    const auto consider = [&](std::size_t i,
                              const solver::TileSolution &sol) {
        if (!sol.feasible) {
            return;
        }
        const bool better =
            !haveBest ||
            sol.volumeBytes < best.predictedVolumeBytes - 0.5 ||
            (sol.volumeBytes < best.predictedVolumeBytes + 0.5 &&
             sol.memUsageBytes < best.memUsageBytes);
        if (better) {
            best.perm = candidates[i];
            best.tiles = sol.tiles;
            best.predictedVolumeBytes = sol.volumeBytes;
            best.memUsageBytes = sol.memUsageBytes;
            haveBest = true;
        }
    };
    ThreadPool *pool = poolForThreads(options.threads);
    const auto solveBatch = [&](const std::vector<std::size_t> &batch) {
        std::vector<solver::TileSolution> outcomes(batch.size());
        parallelFor(pool, 0, static_cast<std::int64_t>(batch.size()),
                    [&](std::int64_t j, int) {
                        outcomes[static_cast<std::size_t>(j)] =
                            solver::solveTiles(
                                chain,
                                candidates[batch[static_cast<
                                    std::size_t>(j)]],
                                constraints, solverOptions);
                    });
        stats.solved += static_cast<std::int64_t>(batch.size());
        for (std::size_t j = 0; j < batch.size(); ++j) {
            consider(batch[j], outcomes[j]);
        }
    };

    std::unordered_set<std::string> seenKeys;
    const bool useSymmetry = options.prune != analysis::PruneMode::None;
    const bool useDominance =
        options.prune == analysis::PruneMode::Dominance;
    // Serial pre-pass per candidate: symmetry-class membership, then
    // the executability filter, then (dominance only) the lower bound
    // against the best volume achieved so far.
    const auto survives = [&](std::size_t i) {
        const std::vector<AxisId> &perm = candidates[i];
        if (useSymmetry &&
            !seenKeys.insert(analyzer.symmetryKey(perm)).second) {
            ++stats.symmetryPruned;
            return false;
        }
        if (options.onlyExecutableOrders &&
            !model::isExecutableOrder(chain, perm, filterTiles)) {
            ++stats.filtered;
            return false;
        }
        if (useDominance && haveBest &&
            analyzer.lowerBoundIncremental(perm) >
                best.predictedVolumeBytes + 0.5) {
            ++stats.dominancePruned;
            return false;
        }
        return true;
    };

    // Fixed-size batches, independent of the thread count: the pre-pass
    // of batch B sees exactly the solutions of batches < B, so every
    // pruning decision (and every count) is identical at 1, 2 or 8
    // search threads.
    constexpr std::size_t kBatch = 64;
    std::vector<std::size_t> batch;
    for (std::size_t lo = 0; lo < candidates.size(); lo += kBatch) {
        const std::size_t hi = std::min(candidates.size(), lo + kBatch);
        batch.clear();
        for (std::size_t i = lo; i < hi; ++i) {
            if (survives(i)) {
                batch.push_back(i);
            }
        }
        solveBatch(batch);
    }
    if (!haveBest) {
        throw InfeasiblePlanError(infeasibleMessage(
            "no feasible schedule for chain " + chain.name(), options));
    }
    best.candidatesExamined = static_cast<int>(stats.solved);
    searchSpan.arg("chain", chain.name())
        .arg("solved", static_cast<int>(stats.solved))
        .arg("filtered", static_cast<int>(stats.filtered))
        .arg("symmetry_pruned", static_cast<int>(stats.symmetryPruned))
        .arg("dominance_pruned",
             static_cast<int>(stats.dominancePruned))
        .arg("enumerated", static_cast<int>(stats.enumerated))
        .arg("truncated", stats.truncated ? 1 : 0)
        .arg("dv_bytes", best.predictedVolumeBytes)
        .arg("mu_bytes", best.memUsageBytes);
    searchSpan.end();
    best.concurrency =
        analysis::analyzeConcurrency(chain, best.tiles).kinds();
    applyThreadChunking(chain, best, options, constraints, solverOptions,
                        /*allowRefinement=*/true);
    // Certification failures do not fail planning: the plan is returned
    // without a certificate (and without a `safety:` document line);
    // gates that require one re-check downstream.
    const analysis::SafetyAnalysis sa = certifyPlan(chain, options, best);
    if (!sa.certificate.certified) {
        CHIMERA_DEBUG("static safety refuted for "
                      << chain.name() << ": " << sa.renderViolations());
    }
    best.search = stats;
    best.planSeconds = timer.seconds();
    CHIMERA_DEBUG("planned "
                  << chain.name() << ": order "
                  << orderString(chain, best.perm) << " volume "
                  << best.predictedVolumeBytes << "B (" << stats.solved
                  << " solved, " << stats.filtered
                  << " filtered as non-executable, "
                  << stats.symmetryPruned << " symmetry-pruned, "
                  << stats.dominancePruned << " dominance-pruned of "
                  << stats.enumerated << " enumerated"
                  << (stats.truncated ? ", truncated" : "") << ")");
    if (options.verify) {
        selfCheck(chain, best, options, options.onlyExecutableOrders,
                  "planner");
    }
    return best;
}

} // namespace

std::vector<std::vector<AxisId>>
enumerateCandidateOrders(const Chain &chain, const PlannerOptions &options,
                         bool *truncated)
{
    const std::vector<AxisId> reorderable = chain.reorderableAxes();
    std::vector<std::vector<AxisId>> candidates;
    bool capped = false;
    for (const std::vector<int> &orderIdx :
         allPermutations(static_cast<int>(reorderable.size()))) {
        if (static_cast<int>(candidates.size()) >=
            options.maxPermutations) {
            // The cut is also recorded as SearchStats::truncated.
            CHIMERA_WARN("permutation cap reached for chain "
                         << chain.name());
            capped = true;
            break;
        }
        candidates.push_back(
            fullPermutation(chain, reorderable, orderIdx));
    }
    if (truncated != nullptr) {
        *truncated = capped;
    }
    return candidates;
}

solver::TileConstraints
searchConstraints(const Chain &chain, const PlannerOptions &options)
{
    // Pinned kernel axes execute untiled inside the micro/im2col step.
    solver::TileConstraints constraints = options.constraints;
    for (AxisId pinned : chain.pinnedAxes()) {
        constraints.fixed.emplace(
            pinned, chain.axes()[static_cast<std::size_t>(pinned)].extent);
    }
    // Break inter-intermediate ordering cycles (panel residency): with
    // these axes blocked, no order at all would be executable.
    if (options.onlyExecutableOrders) {
        for (const auto &[axis, tile] : executabilityPins(chain).fixed) {
            constraints.minTile.erase(axis);
            constraints.multipleOf.erase(axis);
            constraints.fixed[axis] = tile;
        }
    }
    return constraints;
}

ExecutionPlan
planChain(const Chain &chain, const PlannerOptions &options)
{
    obs::TraceRecorder *tracer = obs::trace();
    obs::Span span(tracer, "plan.chain", "plan");
    if (tracer != nullptr) {
        span.arg("chain", chain.name())
            .arg("fingerprint", planFingerprint(chain, options));
    }
    static obs::Counter &planned =
        obs::Registry::global().counter("chimera.plan.planned");
    static obs::Histogram &planSeconds =
        obs::Registry::global().histogram("chimera.plan.plan_seconds");
    if (options.cache != nullptr) {
        if (std::optional<ExecutionPlan> cached =
                options.cache->lookup(chain, options)) {
            CHIMERA_DEBUG("plan cache hit for " << chain.name());
            span.arg("source", std::string("cache"))
                .arg("dv_bytes", cached->predictedVolumeBytes)
                .arg("mu_bytes", cached->memUsageBytes);
            return *cached;
        }
    }
    const ExecutionPlan best = planChainUncached(chain, options);
    planned.add();
    planSeconds.recordSeconds(best.planSeconds);
    span.arg("source", std::string("planned"))
        .arg("dv_bytes", best.predictedVolumeBytes)
        .arg("mu_bytes", best.memUsageBytes)
        .arg("candidates", best.candidatesExamined);
    if (options.cache != nullptr) {
        options.cache->store(chain, options, best);
    }
    return best;
}

ExecutionPlan
planFixedOrder(const Chain &chain, const std::vector<AxisId> &perm,
               const PlannerOptions &options)
{
    WallTimer timer;
    solver::TileSolverOptions solverOptions;
    solverOptions.memCapacityBytes = effectiveCapacityBytes(options);
    solverOptions.maxSweeps = options.solverSweeps;
    solverOptions.model = options.model;

    solver::TileConstraints constraints = options.constraints;
    for (AxisId pinned : chain.pinnedAxes()) {
        constraints.fixed.emplace(
            pinned, chain.axes()[static_cast<std::size_t>(pinned)].extent);
    }
    const solver::TileSolution sol =
        solver::solveTiles(chain, perm, constraints, solverOptions);
    if (!sol.feasible) {
        throw InfeasiblePlanError(infeasibleMessage(
            "fixed order " + orderString(chain, perm) +
                " infeasible for chain " + chain.name(),
            options));
    }
    ExecutionPlan plan;
    plan.perm = perm;
    plan.tiles = sol.tiles;
    plan.predictedVolumeBytes = sol.volumeBytes;
    plan.memUsageBytes = sol.memUsageBytes;
    plan.candidatesExamined = 1;
    plan.concurrency =
        analysis::analyzeConcurrency(chain, plan.tiles).kinds();
    // Fixed-order plans emulate thread-oblivious libraries: they get
    // the per-worker budget and a dispatch grain, but no tile
    // refinement (the planner's edge in the scaling comparison).
    applyThreadChunking(chain, plan, options, constraints, solverOptions,
                        /*allowRefinement=*/false);
    (void)certifyPlan(chain, options, plan);
    plan.planSeconds = timer.seconds();
    if (options.verify) {
        // Baselines pin deliberately non-executable orders; only the
        // model-level claims are checked here.
        selfCheck(chain, plan, options, /*requireExecutableOrder=*/false,
                  "fixed-order planner");
    }
    return plan;
}

MultiLevelPlan
planChainMultiLevel(const Chain &chain, const model::MachineModel &machine,
                    const PlannerOptions &baseOptions)
{
    CHIMERA_CHECK(!machine.levels.empty(), "machine has no memory levels");
    WallTimer timer;

    MultiLevelPlan result;
    result.levels.resize(machine.levels.size());

    // Plan outermost level first; inner tiles nest inside outer tiles.
    // Each level's budget is one worker's share of it (full private
    // instance, capacity / workers for shared levels), so an
    // LLC-pressured shape gets smaller outer tiles at high execThreads.
    PlannerOptions options = baseOptions;
    for (std::size_t d = machine.levels.size(); d-- > 0;) {
        options.memCapacityBytes = model::perWorkerCapacityBytes(
            machine.levels[d], machine, baseOptions.execThreads);
        const ExecutionPlan levelPlan = planChain(chain, options);
        result.levels[d].perm = levelPlan.perm;
        result.levels[d].tiles = levelPlan.tiles;
        // Constrain the next (inner) level to nest inside this one.
        for (AxisId a = 0; a < chain.numAxes(); ++a) {
            options.constraints.maxTile[a] =
                levelPlan.tiles[static_cast<std::size_t>(a)];
        }
    }
    result.cost =
        model::evaluateMultiLevel(chain, machine, result.levels,
                                  baseOptions.model, baseOptions.execThreads);
    result.planSeconds = timer.seconds();
    if (baseOptions.verify) {
        // Each level already self-checked through planChain; this pass
        // adds the cross-level nesting audit (PL11), so skip the
        // per-level recount rerun.
        verify::PlanVerifyOptions vo =
            verify::planVerifyOptions(baseOptions);
        vo.recount = false;
        const verify::Report report = verify::verifyMultiLevelPlan(
            chain, machine, result.levels, vo);
        CHIMERA_CHECK(!report.hasErrors(),
                      "multi-level planner self-check failed for chain " +
                          chain.name() + ":\n" + report.render());
    }
    return result;
}

} // namespace chimera::plan
