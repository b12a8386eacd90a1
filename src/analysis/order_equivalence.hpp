#pragma once

/**
 * @file
 * Symbolic order-equivalence and dominance analysis over candidate
 * block execution orders (the planner's I! search space).
 *
 * The planner's cost of a block order is Algorithm 1's data-movement
 * volume, which decomposes per (operator, tensor) into
 *
 *     footprint(tiles) * multiplier(order, tiles)
 *
 * where the multiplier is a product of block counts of the operator's
 * own loop axes (src/model/data_movement.cpp). Two structural facts
 * make sub-factorial search possible without giving up exactness:
 *
 *  - **Symmetry**: the multiplier of (op, tensor) depends on the order
 *    only through the *relative* order of that operator's loop axes.
 *    Axes that can never have more than one block (fixed to their full
 *    extent, or extent 1) are skipped by the model entirely. Hence two
 *    permutations whose induced subsequences over every operator's
 *    multi-block-capable loops agree have *syntactically identical*
 *    symbolic DV expressions — independent axes may be renamed/moved
 *    freely between them — and the tile solver, which consults the
 *    order only through that expression, returns bitwise-identical
 *    tiles, volume and memory usage for both. One representative per
 *    class is solved; the rest are pruned exactly.
 *
 *  - **Dominance**: under the shared memory-capacity budget not every
 *    axis can hold its full extent on chip, so some axes have a
 *    capacity-certified minimum block count > 1. Those minimums give a
 *    sound per-order lower bound on the achievable volume (every
 *    multiplier factor is bounded below by the minimum block count,
 *    every footprint by the minimum-candidate footprint). An order
 *    whose lower bound already exceeds the best achieved volume cannot
 *    win the (volume, memory) argmin and is pruned without a tile
 *    solve.
 *
 * Exactness rests on volumes being exact integers: footprints and
 * block counts are int64, and their products/sums stay below 2^53 for
 * every supported chain, so the doubles carrying them are exact and
 * the planner's +-0.5 tie band implements a true lexicographic
 * (volume, memUsage, enumeration index) order. The analyzer never
 * merges orders across *axis renamings* (e.g. swapping two same-extent
 * axes): the tile solver's ascending-AxisId tie-breaking is not
 * equivariant under renaming, so such a merge would not be bitwise
 * exact. See DESIGN.md ("Order-equivalence analysis").
 *
 * The lower bound supports incremental prefix evaluation: walking
 * candidate orders in enumeration order, only the suffix diverging
 * from the previous order is re-evaluated (partial bounds are monotone
 * as the prefix grows, so shared prefixes share state).
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/chain.hpp"
#include "model/data_movement.hpp"
#include "solver/tile_solver.hpp"

namespace chimera::analysis {

/** Planner search-pruning mode (PlannerOptions::prune). All three are
 * exact: the chosen plan is bitwise identical to exhaustive search. */
enum class PruneMode
{
    None, ///< Exhaustive: solve every enumerated order.
    Symmetry, ///< Solve one representative per symmetry class.
    Dominance, ///< Symmetry + lower-bound dominance pruning.
};

/** Canonical lowercase name ("none", "symmetry", "dominance"). */
const char *pruneModeName(PruneMode mode);

/** Inverse of pruneModeName; nullopt for unknown names. */
std::optional<PruneMode> parsePruneMode(std::string_view name);

/**
 * Where the candidates of one planner search went. Attached in memory
 * to a freshly planned ExecutionPlan (perfbench, `chimera-check
 * --search` and the `plan.search` span read it); it is not serialized,
 * so plans loaded from a document or planned for a fixed order carry
 * all-zero stats. The counts satisfy
 *
 *     enumerated == filtered + symmetryPruned + dominancePruned + solved
 *
 * and, unless truncated, enumerated == (#reorderable axes)!.
 */
struct SearchStats
{
    PruneMode mode = PruneMode::None;

    /** Candidate orders materialized (after the maxPermutations cap). */
    std::int64_t enumerated = 0;

    /** True when maxPermutations cut the enumeration short. */
    bool truncated = false;

    /** Orders dropped by the executable-order filter. */
    std::int64_t filtered = 0;

    /** Orders pruned as symmetry-class duplicates. */
    std::int64_t symmetryPruned = 0;

    /** Orders pruned by the dominance lower bound. */
    std::int64_t dominancePruned = 0;

    /** Orders actually handed to the tile solver. */
    std::int64_t solved = 0;
};

/**
 * The static analyzer behind symmetry and dominance pruning. Built
 * once per planner search from the chain, the solver constraints the
 * search runs under (pinned axes and executability pins applied) and
 * the solver's effective capacity budget; all per-axis candidate
 * lattices and capacity-certified minimum block counts are derived in
 * the constructor, so the per-order queries are cheap and allocation
 * free on the hot path.
 */
class OrderAnalyzer
{
  public:
    OrderAnalyzer(const ir::Chain &chain,
                  const solver::TileConstraints &constraints,
                  double memCapacityBytes,
                  const model::ModelOptions &model);

    /**
     * Canonical symmetry-class key of @p perm: the concatenation, per
     * operator, of the induced subsequence of the order restricted to
     * that operator's key axes. Two orders with equal keys have
     * syntactically identical DV expressions and identical
     * executability, so the solver returns bitwise-identical solutions
     * for both.
     */
    std::string symmetryKey(const std::vector<ir::AxisId> &perm) const;

    /**
     * Sound lower bound (bytes) on the volume achievable by any
     * feasible tile vector under @p perm. From-scratch evaluation;
     * exact integer arithmetic carried in doubles.
     */
    double lowerBound(const std::vector<ir::AxisId> &perm) const;

    /**
     * Same bound, sharing work with the previously evaluated order:
     * only the suffix after the longest common prefix is re-evaluated.
     * Call in enumeration order for the intended savings; any call
     * order returns the same values as lowerBound().
     */
    double lowerBoundIncremental(const std::vector<ir::AxisId> &perm);

    /**
     * Capacity-certified minimum block count of @p axis: every tile
     * vector fitting the budget has at least this many blocks of it.
     */
    std::int64_t minBlocks(ir::AxisId axis) const;

    /** True when no candidate tile gives @p axis more than one block
     * (the model then never sees it; excluded from symmetry keys). */
    bool alwaysSingleBlock(ir::AxisId axis) const;

  private:
    struct Term
    {
        double minFootprintBytes = 0.0; ///< footprint at minimum tiles
    };

    struct TermState
    {
        double prodAll = 1.0; ///< product over blocked axes placed
        double prodBound = 1.0; ///< prodAll at the last tensor-axis placement
    };

    const ir::Chain &chain_;
    int numAxes_ = 0;

    /** Per axis: capacity-certified minimum block count (>= 1). */
    std::vector<std::int64_t> minBlocks_;

    /** Per axis: participates in symmetry keys. */
    std::vector<char> inKey_;

    /** Per op: usesLoop bitmap (numOps x numAxes). */
    std::vector<std::vector<char>> opUses_;

    /** Perm-dependent lower-bound terms (counted (op, tensor) pairs
     * with at least one tensor-using blocked axis). */
    std::vector<Term> terms_;

    /** Per axis: list of (term index, axis indexes the tensor). */
    std::vector<std::vector<std::pair<int, bool>>> axisTerms_;

    /** Sum of minimum footprints of terms with no blocked tensor axis
     * (their multiplier bound is 1 — perm-independent). */
    double constBase_ = 0.0;

    /** Incremental state: the prefix shared with the last evaluation
     * and the per-level term-state snapshots along it. */
    std::vector<ir::AxisId> prefix_;
    std::vector<std::vector<TermState>> prefixStates_;

    mutable std::vector<int> posScratch_;
};

} // namespace chimera::analysis
