#include "verify/search_verifier.hpp"

#include <cmath>
#include <set>
#include <unordered_map>

#include "solver/tile_solver.hpp"

namespace chimera::verify {

namespace {

using analysis::PruneMode;

/** Exact equality of integral-valued doubles via the planner's band. */
bool
sameVolume(double a, double b)
{
    return std::abs(a - b) < 0.5;
}

std::string
describePlan(const ir::Chain &chain, const plan::ExecutionPlan &plan)
{
    return "order " + plan::orderString(chain, plan.perm) + " volume " +
           std::to_string(
               static_cast<std::int64_t>(plan.predictedVolumeBytes)) +
           "B mem " + std::to_string(plan.memUsageBytes) + "B";
}

/** Bitwise plan equality over everything the argmin decides. */
bool
samePlan(const plan::ExecutionPlan &a, const plan::ExecutionPlan &b)
{
    return a.perm == b.perm && a.tiles == b.tiles &&
           sameVolume(a.predictedVolumeBytes, b.predictedVolumeBytes) &&
           a.memUsageBytes == b.memUsageBytes;
}

} // namespace

SearchReplay
replaySearch(const ir::Chain &chain, const plan::PlannerOptions &options)
{
    SearchReplay out;

    // Fresh plans both times: the cache would hide the very search this
    // replay exists to check.
    plan::PlannerOptions prunedOpts = options;
    prunedOpts.cache = nullptr;
    prunedOpts.verify = false;
    plan::PlannerOptions exhaustiveOpts = prunedOpts;
    exhaustiveOpts.prune = PruneMode::None;

    out.pruned = plan::planChain(chain, prunedOpts);
    out.exhaustive = plan::planChain(chain, exhaustiveOpts);

    if (!samePlan(out.pruned, out.exhaustive)) {
        // Attribute the argmin divergence: if symmetry alone already
        // diverges the class merge is unsound (OE01), otherwise the
        // dominance bound pruned the winner (OE02).
        std::string rule = "OE01";
        if (options.prune == PruneMode::Dominance) {
            plan::PlannerOptions symOpts = prunedOpts;
            symOpts.prune = PruneMode::Symmetry;
            const plan::ExecutionPlan symOnly =
                plan::planChain(chain, symOpts);
            if (samePlan(symOnly, out.exhaustive)) {
                rule = "OE02";
            }
        }
        out.report.error(
            rule, "search.argmin",
            std::string(analysis::pruneModeName(options.prune)) +
                " pruning selected " + describePlan(chain, out.pruned) +
                " but exhaustive search selects " +
                describePlan(chain, out.exhaustive));
    }

    // Analyzer-level claims, checked against the solver over the exact
    // candidate space the planner searched.
    const solver::TileConstraints constraints =
        plan::searchConstraints(chain, prunedOpts);
    const double capacity = model::clampedPerWorkerBudgetBytes(
        prunedOpts.memCapacityBytes, prunedOpts.topology,
        prunedOpts.execThreads);
    analysis::OrderAnalyzer analyzer(chain, constraints, capacity,
                                     prunedOpts.model);
    const std::vector<std::vector<ir::AxisId>> candidates =
        plan::enumerateCandidateOrders(chain, prunedOpts);

    // OE03: the incremental prefix evaluation must agree with the
    // from-scratch bound on every candidate, in enumeration order.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double incremental =
            analyzer.lowerBoundIncremental(candidates[i]);
        const double scratch = analyzer.lowerBound(candidates[i]);
        if (!sameVolume(incremental, scratch)) {
            out.report.error(
                "OE03",
                "candidate #" + std::to_string(i) + " (" +
                    plan::orderString(chain, candidates[i]) + ")",
                "incremental lower bound " +
                    std::to_string(incremental) +
                    "B != from-scratch bound " +
                    std::to_string(scratch) + "B");
            break;
        }
    }

    solver::TileSolverOptions solverOptions;
    solverOptions.memCapacityBytes = capacity;
    solverOptions.maxSweeps = prunedOpts.solverSweeps;
    solverOptions.model = prunedOpts.model;

    // OE01 direct: members of a symmetry class must solve
    // bitwise-identically to their representative (sampled classes).
    std::unordered_map<std::string, std::size_t> representatives;
    std::set<std::string> checkedClasses;
    int classesChecked = 0;
    for (std::size_t i = 0;
         i < candidates.size() && classesChecked < 3; ++i) {
        const std::string key = analyzer.symmetryKey(candidates[i]);
        const auto [it, inserted] = representatives.emplace(key, i);
        if (inserted || !checkedClasses.insert(key).second) {
            continue;
        }
        const solver::TileSolution rep = solver::solveTiles(
            chain, candidates[it->second], constraints, solverOptions);
        const solver::TileSolution member = solver::solveTiles(
            chain, candidates[i], constraints, solverOptions);
        if (rep.feasible != member.feasible ||
            rep.tiles != member.tiles ||
            !sameVolume(rep.volumeBytes, member.volumeBytes) ||
            rep.memUsageBytes != member.memUsageBytes) {
            out.report.error(
                "OE01",
                "class of " +
                    plan::orderString(chain, candidates[it->second]),
                "member " + plan::orderString(chain, candidates[i]) +
                    " solves differently from its representative");
        }
        ++classesChecked;
    }

    // OE02 direct: no solved order may achieve a volume below its
    // certified lower bound (sampled candidates).
    std::set<std::size_t> samples;
    if (!candidates.empty()) {
        samples.insert(0);
        samples.insert(candidates.size() / 2);
        samples.insert(candidates.size() - 1);
    }
    for (const std::size_t i : samples) {
        const solver::TileSolution sol = solver::solveTiles(
            chain, candidates[i], constraints, solverOptions);
        if (!sol.feasible) {
            continue;
        }
        const double bound = analyzer.lowerBound(candidates[i]);
        if (sol.volumeBytes < bound - 0.5) {
            out.report.error(
                "OE02",
                "candidate #" + std::to_string(i) + " (" +
                    plan::orderString(chain, candidates[i]) + ")",
                "achieved volume " +
                    std::to_string(static_cast<std::int64_t>(
                        sol.volumeBytes)) +
                    "B undercuts the certified lower bound " +
                    std::to_string(
                        static_cast<std::int64_t>(bound)) +
                    "B");
        }
    }
    return out;
}

} // namespace chimera::verify
