#pragma once

/**
 * @file
 * Concurrency-declaration legality analysis (the DP rule family).
 *
 * A plan's AxisConcurrency table decides which block loops the executors
 * distribute across worker threads, so a wrong table is not a
 * performance bug — it is a data race. This pass re-derives the table
 * with analysis::analyzeConcurrency and flags every disagreement
 * between what a plan *declares* and what the dependence analysis can
 * *prove*. Declaring an axis more permissive than the proof supports is
 * an error (the executor would parallelize a racy loop); declaring it
 * more restrictive is a warning (sound, but serializes work the
 * analysis proved independent).
 *
 * Rules:
 *  - DP01  table defect: the declared table's arity does not match the
 *          chain's axis count (error)
 *  - DP02  an axis declared parallel is a reduction axis under fresh
 *          analysis — distinct blocks accumulate into the same output
 *          elements (error)
 *  - DP03  an axis declared parallel or reduction is sequential under
 *          fresh analysis — blocks carry an output dependence that is
 *          not a pure reduction (error)
 *  - DP04  over-serialization: an axis the analysis proves parallel is
 *          declared reduction or sequential (warning)
 *  - DP05  an epilogue-induced axis (softmax row normalization couples
 *          blocks along it) is declared parallel (error; replaces the
 *          DP02 report for that axis)
 *  - DP06  a v2 plan document carries no concurrency table, so the
 *          loader falls back to fresh analysis (note)
 *
 * DP01-DP05 are verifyConcurrency's. DP06 and PL12 (unknown axis /
 * unknown kind / duplicate / incomplete coverage in a document's
 * concurrency line) are name-binding facts: plan::bindPlanDocument
 * records them, and verify::verifyPlanDocument reports them. A bound
 * document table always has the chain's arity, so DP01 is reachable
 * only from a hand-assembled ExecutionPlan.
 */

#include <cstdint>
#include <vector>

#include "analysis/dependence.hpp"
#include "verify/diagnostics.hpp"

namespace chimera::verify {

/**
 * Compares @p declared against a fresh dependence analysis of
 * (@p chain, @p tiles): DP01 on arity mismatch, then DP02-DP05 per
 * axis. @p tiles must be a valid tile vector (callers run the PL04/PL05
 * checks first).
 */
Report verifyConcurrency(
    const ir::Chain &chain, const std::vector<std::int64_t> &tiles,
    const std::vector<analysis::AxisConcurrency> &declared);

} // namespace chimera::verify
