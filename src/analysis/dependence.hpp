#pragma once

/**
 * @file
 * Dependence analysis over the chain's affine access maps: proves, per
 * loop axis and per block tiling, whether distinct blocks along the
 * axis may execute concurrently.
 *
 * The executors used to hand-pick their "dependence-free" block loops;
 * a refactor of an access map in src/ir could silently turn one of
 * those loops into a reduction and corrupt results only at
 * CHIMERA_THREADS>1. This pass derives the answer from the same
 * per-tensor access maps the analytical model already carries (§IV-B):
 * every axis is classified as
 *
 *  - Parallel: for every operator using the axis, distinct blocks
 *    write disjoint index ranges of the operator's output tensor (the
 *    write-write conflict test over block index deltas below), so the
 *    blocks can be distributed across workers freely;
 *  - Reduction: some operator accumulates into an output whose access
 *    map does not use the axis — every block writes the same output
 *    elements, so the blocks must run serially (ascending, to keep the
 *    floating-point accumulation order, and therefore the output bits,
 *    independent of the thread count);
 *  - Sequential: distinct blocks write overlapping indices of a chain
 *    *output* (e.g. a halo-carrying spatial axis on an output tensor),
 *    which not even an accumulation-order argument can save.
 *
 * Conflict test: an access dimension of the output evaluates
 * sum_t coeff_t * i_t. Within one block of axis a, the dimension spans
 * a window of width
 *     1 + coeff_a*(T_a - 1) + sum_{t != a} coeff_t*(extent_t - 1)
 * (other axes conservatively contribute their full extents: serial
 * loops really do sweep them inside one task, and for co-occupying
 * parallel axes the bound degenerates to the mixed-radix injectivity
 * condition). Advancing the block index of a shifts the window by
 * coeff_a * T_a, so blocks are disjoint along the dimension iff
 *     coeff_a * T_a >= width.
 * One disjoint dimension suffices: the written index tuples differ.
 * The arithmetic is overflow-checked; a width that overflows int64
 * proves nothing.
 *
 * The extents are a parameter: the chain's own by default, or a shape
 * domain's upper extents, where every width is largest. The step is
 * shape-free, so Parallel at the upper extents means Parallel for
 * every smaller shape — the static safety analyzer's SB04 rule is
 * exactly that evaluation.
 *
 * Overlapping writes to an *intermediate* tensor are exempt: the fused
 * executors privatize intermediate regions per worker and recompute
 * the halo (§VI-B), so the overlap costs FLOPs, not correctness.
 *
 * A softmax epilogue adds a row-sum accumulation across the
 * intermediate's last access dimension; axes in that dimension are
 * forced down to at least Reduction.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "ir/chain.hpp"

namespace chimera::analysis {

/** Concurrency class of one loop axis under a given block tiling. */
enum class AxisConcurrency
{
    Parallel, ///< distinct blocks write disjoint output indices
    Reduction, ///< blocks accumulate; serial ascending order required
    Sequential, ///< blocks overlap on a chain output; no reordering
};

/** Lower-case name used in plan documents ("parallel", ...). */
const char *concurrencyName(AxisConcurrency kind);

/**
 * Parses a plan-document concurrency kind token. Throws chimera::Error
 * naming @p context when @p name is not a known kind.
 */
AxisConcurrency concurrencyFromName(const std::string &name,
                                    const std::string &context);

/** Classification of one axis plus the justification. */
struct AxisClassification
{
    AxisConcurrency kind = AxisConcurrency::Parallel;

    /** Human-readable justification from the decisive operator. */
    std::string reason;
};

/** Per-axis concurrency table for one (chain, tiles) schedule. */
struct ConcurrencyTable
{
    /** Indexed by ir::AxisId; always chain.numAxes() entries. */
    std::vector<AxisClassification> axes;

    AxisConcurrency kindOf(ir::AxisId axis) const;
    bool isParallel(ir::AxisId axis) const;

    /** Just the kinds, for embedding into an ExecutionPlan. */
    std::vector<AxisConcurrency> kinds() const;

    /** "b=parallel m=parallel k=reduction ..." in axis order. */
    std::string summary(const ir::Chain &chain) const;
};

/**
 * Classifies every axis of @p chain under block tiling @p tiles (one
 * tile per axis; a tile below 1 counts as 1), with block counts and
 * window widths evaluated at @p extents (one per axis). Axes used by
 * no operator classify Parallel trivially.
 */
ConcurrencyTable analyzeConcurrency(const ir::Chain &chain,
                                    const std::vector<std::int64_t> &tiles,
                                    const std::vector<std::int64_t> &extents);

/** analyzeConcurrency at the chain's own extents. */
ConcurrencyTable analyzeConcurrency(const ir::Chain &chain,
                                    const std::vector<std::int64_t> &tiles);

} // namespace chimera::analysis
