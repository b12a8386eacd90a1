#pragma once

/**
 * @file
 * Plan legality analysis.
 *
 * A Plan can reach an executor from three places — fresh from the
 * planner, deserialized from a hand-written document, or loaded from the
 * persistent plan cache — and in all three cases its claims are only as
 * good as the code (or file) that produced them. This pass re-derives
 * every claim instead of trusting it: tile ranges against the chain's
 * loop extents, executability of the block order, memory usage via a
 * fresh Algorithm-1 evaluation against the capacity, the §V-B register
 * budget for micro-kernel parameters, and — on small shapes — the
 * Algorithm-1 volume itself against an independent brute-force recount
 * that walks the block grid and simulates one resident tile per tensor.
 *
 * Rules:
 *  - PL01  document syntax error (the parser rejects the document
 *          outright)
 *  - PL02  order/tiles/grain reference an axis name the chain does not
 *          have
 *  - PL03  order is not a permutation of the chain's axes
 *  - PL04  tile size outside [1, extent]
 *  - PL05  plan incomplete: missing order, missing tile entries, or a
 *          tile vector of the wrong arity
 *  - PL06  block order not executable with single on-chip intermediate
 *          regions (model::isExecutableOrder)
 *  - PL07  re-derived memory usage exceeds the capacity
 *  - PL08  declared DV/MU predictions disagree with the re-derived
 *          Algorithm-1 values (stale or tampered document)
 *  - PL09  Algorithm-1 result disagrees with the brute-force recount
 *          (a model regression; reported as a note when the block grid
 *          is too large to recount)
 *  - PL10  document fingerprint does not match the expected cache key
 *  - PL11  multi-level schedule defect: wrong level count or inner
 *          tiles not nested inside the enclosing level's tiles
 *  - PL12  document concurrency binding defect: unknown axis, unknown
 *          kind, duplicate entry, or incomplete axis coverage (recorded
 *          by plan::bindPlanDocument)
 *  - PL13  thread-aware chunking defect: plannedThreads < 1, a grain
 *          vector of the wrong arity or with non-positive entries, a
 *          grain > 1 on an axis the dependence analysis did not prove
 *          Parallel, a document grain line without a threads line, or —
 *          when a topology is supplied — a per-worker footprint larger
 *          than one worker's share of the tightest shared level
 *          (capacity / workers), i.e. the plan would thrash the LLC
 *          at its own declared thread count
 *  - PL14  safety-certificate binding defect: a `safety:` line with
 *          malformed fields, a domain naming unknown axes, a digest
 *          that does not match the bound chain + schedule, or a
 *          certificate the re-run analyzer refutes (see
 *          safety_verifier.hpp)
 *  - SB01-SB04  the static safety rules (safety_verifier.hpp), run
 *          once on every plan: over a certified plan's own domain,
 *          else at the concrete shape. SB04 refutes a concurrency
 *          table that marks parallel an axis the dependence analysis
 *          does not prove parallel.
 *  - DP04  over-serialization (warning): the table declares reduction
 *          or sequential an axis the SB pass's classification proves
 *          parallel
 *  - KP01  micro-kernel register usage MI*NI + NI + MII exceeds the
 *          register budget
 *  - KP02  micro-kernel structure: MII < 2 or MII does not divide MI
 *  - KP03  micro-kernel parameter not positive
 *
 * All entry points collect findings and never throw.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "kernels/kernel_params.hpp"
#include "model/multilevel.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "verify/diagnostics.hpp"

namespace chimera::verify {

/** Knobs for the plan legality checks. */
struct PlanVerifyOptions
{
    /** Capacity for the PL07 check; <= 0 skips it. */
    double memCapacityBytes = 0.0;

    /** Enforce PL06. Off for deliberately fixed (baseline) orders. */
    bool requireExecutableOrder = true;

    /** Forwarded to Algorithm 1 for the re-derivation. */
    model::ModelOptions model;

    /** Run the PL09 brute-force recount when the grid is small enough. */
    bool recount = true;

    /**
     * Per-operator block-grid budget for the recount; grids larger than
     * this skip PL09 with a note.
     */
    std::int64_t recountMaxBlocks = 1 << 16;

    /**
     * Worker count for the PL13 per-worker capacity check; a plan's own
     * plannedThreads takes precedence when it declares one > 1. <= 1
     * with a serial plan skips the shared-share check.
     */
    int plannedThreads = 1;

    /**
     * Core/cache topology whose shared levels bound each worker's
     * capacity share (PL13). An empty topology skips that check; the
     * grain-structure checks still run.
     */
    model::MachineModel topology;
};

/** Derives verify options from the planner options that made a plan. */
PlanVerifyOptions planVerifyOptions(const plan::PlannerOptions &options);

/**
 * Independent Algorithm-1 cross-check: walks the block grid of every
 * operator in @p perm order simulating one resident tile per tensor and
 * counts actual tile (re)loads — no keep_reuse reasoning, no shared code
 * with model::computeDataMovement. Returns nullopt when some operator's
 * block grid exceeds @p maxBlocksPerOp. @p perm and @p tiles must be
 * valid (the verifier checks them first).
 */
std::optional<model::DataMovement>
bruteForceDataMovement(const ir::Chain &chain,
                       const std::vector<ir::AxisId> &perm,
                       const std::vector<std::int64_t> &tiles,
                       const model::ModelOptions &options,
                       std::int64_t maxBlocksPerOp);

/** Checks one (order, tiles) schedule: PL03-PL07, PL09. */
Report verifyPlan(const ir::Chain &chain,
                  const std::vector<ir::AxisId> &perm,
                  const std::vector<std::int64_t> &tiles,
                  const PlanVerifyOptions &options);

/**
 * verifyPlan plus the PL08 check of the plan's embedded predictions,
 * PL13, the plan's one SB pass (with PL14 when it is certified) and
 * DP04.
 */
Report verifyExecutionPlan(const ir::Chain &chain,
                           const plan::ExecutionPlan &plan,
                           const PlanVerifyOptions &options);

/**
 * Checks plan document @p text against @p chain in one pass: the
 * syntax (PL01, and nothing else when it fails), the fingerprint when
 * @p expectedFingerprint is non-empty (PL10), every name-binding defect
 * plan::bindPlanDocument records (PL02, PL05, PL12-PL14), then —
 * when the order and tiles bind — verifyExecutionPlan's checks on the
 * bound plan, with PL08 limited to the prediction lines the document
 * carries.
 *
 * @p resolved, when non-null, receives the plan plan::deserializePlan
 * would return for the same arguments (concurrency filled in,
 * predictions re-derived under @p options.model) exactly when that call
 * would succeed: no PL10, no binding defect, and a valid permutation
 * and tile vector. Otherwise it is left untouched.
 */
Report verifyPlanDocument(
    const ir::Chain &chain, const std::string &text,
    const std::string &expectedFingerprint,
    const PlanVerifyOptions &options,
    std::optional<plan::ExecutionPlan> *resolved = nullptr);

/**
 * Checks every level of a multi-level schedule against its level's
 * capacity plus the PL11 nesting constraints (inner tiles elementwise
 * <= the enclosing level's tiles).
 */
Report verifyMultiLevelPlan(const ir::Chain &chain,
                            const model::MachineModel &machine,
                            const std::vector<model::LevelSchedule> &levels,
                            const PlanVerifyOptions &options);

/** §V-B register-budget checks (KP01-KP03) for micro-kernel params. */
Report verifyKernelParams(const kernels::CpuKernelParams &params,
                          int numRegisters);

} // namespace chimera::verify
