#pragma once

/**
 * @file
 * Search verification: the OE rule family.
 *
 * The analyzer whose claims are policed here lives in
 * analysis/order_equivalence.hpp; this layer replays a pruned search
 * against exhaustive enumeration so the exactness claims are checked
 * against the real solver, not trusted.
 *
 * Rules:
 *  - OE01  symmetry-class merge unsound: two orders in one class got
 *          different tile-solver results (error)
 *  - OE02  dominance bound unsound: a solved order achieved a volume
 *          below its certified lower bound, or exact pruning changed
 *          the argmin (error)
 *  - OE03  incremental prefix evaluation diverges from the
 *          from-scratch lower bound (error)
 */

#include "plan/planner.hpp"
#include "verify/diagnostics.hpp"

namespace chimera::verify {

/** Outcome of replaying a pruned search against exhaustive search. */
struct SearchReplay
{
    /** OE findings (empty when every claim held). */
    Report report;

    /** The plan chosen under @p options' pruning mode. */
    plan::ExecutionPlan pruned;

    /** The plan chosen by exhaustive enumeration (PruneMode::None). */
    plan::ExecutionPlan exhaustive;
};

/**
 * Replays the order search for @p chain twice — once under
 * @p options.prune, once exhaustively — and checks the analyzer's
 * claims against the solver ground truth (OE01-OE03): the pruned search
 * must select the bitwise-identical plan, sampled symmetry-class members
 * must solve identically to their representatives, every solved order
 * must respect its lower bound, and the incremental bound must equal
 * the from-scratch bound on every candidate. The plan cache is
 * bypassed; both plans are returned for reporting.
 */
SearchReplay replaySearch(const ir::Chain &chain,
                          const plan::PlannerOptions &options);

} // namespace chimera::verify
