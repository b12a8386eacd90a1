#pragma once

/**
 * @file
 * Small integer-math helpers shared across the analytical model, the
 * solver, and the executors.
 */

#include <cstdint>
#include <vector>

namespace chimera {

/** Ceiling division for positive integers: ceil(a / b). */
constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** Rounds @p a up to the next multiple of @p b. */
constexpr std::int64_t
roundUp(std::int64_t a, std::int64_t b)
{
    return ceilDiv(a, b) * b;
}

/** Clamps @p v into the closed range [@p lo, @p hi]. */
constexpr std::int64_t
clampI64(std::int64_t v, std::int64_t lo, std::int64_t hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

/**
 * Saturating int64 addition: on overflow returns the saturated bound and
 * sets @p overflow (which is never cleared). Index arithmetic in the
 * static analyses treats a saturated value as "no proof".
 */
std::int64_t checkedAdd(std::int64_t a, std::int64_t b, bool &overflow);

/** Saturating int64 multiplication; see checkedAdd. */
std::int64_t checkedMul(std::int64_t a, std::int64_t b, bool &overflow);

/** Returns all positive divisors of @p n in ascending order. */
std::vector<std::int64_t> divisorsOf(std::int64_t n);

/**
 * Returns candidate tile sizes for an extent @p n: all divisors plus the
 * sizes that tile n with bounded remainder (powers of two and small
 * multiples), deduplicated and ascending. The solver rounds real-valued
 * optima onto this lattice.
 */
std::vector<std::int64_t> tileCandidates(std::int64_t n);

/** Returns n! for small n (n <= 20). */
std::int64_t factorial(int n);

/**
 * Enumerates all permutations of {0, 1, ..., n-1}.
 * Intended for the planner's I! block-order search (I is small: the paper's
 * chains have 4-10 independent loops; we cap enumeration in the planner).
 */
std::vector<std::vector<int>> allPermutations(int n);

/** Geometric mean of @p values; returns 0 for an empty input. */
double geometricMean(const std::vector<double> &values);

/**
 * Coefficient of determination R^2 between predictions and ground truth.
 * Used by the Figure-8 model-validation experiment.
 */
double rSquared(const std::vector<double> &predicted,
                const std::vector<double> &measured);

} // namespace chimera
