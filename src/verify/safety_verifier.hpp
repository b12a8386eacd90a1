#pragma once

/**
 * @file
 * Static plan-safety legality analysis: the SB rule family plus the
 * PL14 certificate-binding rule. SB04 is also what refutes a plan whose
 * concurrency table marks an axis parallel that the dependence
 * analysis does not prove parallel.
 *
 * The analyzer itself lives in analysis/static_safety.hpp; this layer
 * turns its findings into verify::Report diagnostics and polices the
 * `safety:` plan-document line.
 *
 * Rules:
 *  - SB01  a block read/write window escapes its tensor's extents for
 *          some shape in the certified domain (error)
 *  - SB02  the maximum live window over the block grid exceeds the
 *          per-worker capacity budget (error)
 *  - SB03  index arithmetic in the lowered nests (linearized offsets,
 *          task counts, chunk strides, workspace totals) can overflow
 *          int64 (error)
 *  - SB04  a parallel-marked axis has no shape-generic disjointness
 *          proof for its output windows (error)
 *  - PL14  certificate binding defect: malformed `safety:` fields, a
 *          digest that does not match the bound chain + schedule, or
 *          a certificate the re-run analyzer refutes (error). Extends
 *          the PL document-binding family the same way PL12 does for
 *          `concurrency:`.
 */

#include <string>

#include "analysis/static_safety.hpp"
#include "plan/plan_io.hpp"
#include "verify/diagnostics.hpp"

namespace chimera::verify {

/** Budget/domain context for the safety checks. */
struct SafetyVerifyOptions
{
    /** SB02 capacity (<= 0 skips), as PlannerOptions::memCapacityBytes. */
    double memCapacityBytes = 0.0;

    /** Topology for the per-worker budget clamp (may be empty). */
    model::MachineModel topology;

    /**
     * Worker count when the plan itself is serial-planned
     * (plannedThreads <= 1); a thread-aware plan's own count wins.
     */
    int workers = 1;

    /**
     * Shape-domain spec for verifyPlanSafety ("" or "concrete" pins
     * every axis; otherwise ShapeDomain::summary grammar, e.g.
     * "b:1..4096"). verifySafety uses the certificate's own domain
     * instead.
     */
    std::string domainSpec;
};

/**
 * Runs the static safety analyzer on (@p chain, @p plan) over
 * @p options.domainSpec and reports every violation as an SB error.
 * Throws chimera::Error on a malformed domainSpec (a caller/CLI input
 * defect, not a plan defect). @p out, when non-null, receives the full
 * analysis — certificate and per-rule timings — for `--static`
 * reporting. The plan's perm/tiles must be structurally valid (PL03/
 * PL04/PL05 pass first).
 */
Report verifyPlanSafety(const ir::Chain &chain,
                        const plan::ExecutionPlan &plan,
                        const SafetyVerifyOptions &options,
                        analysis::SafetyAnalysis *out = nullptr);

/**
 * The SB pass every plan gets. A certified plan's certificate must bind
 * (PL14: the digest is recomputed from the schedule, so a `safety:` line
 * can neither be forged nor replayed) and is then re-proved over its own
 * domain; a refuted certificate is a PL14 defect carrying its SB
 * findings. An uncertified plan, or one whose certificate does not
 * bind, is analyzed at its concrete shape. @p out, when non-null,
 * receives the analysis. The plan's perm/tiles must be structurally
 * valid.
 */
Report verifySafety(const ir::Chain &chain, const plan::ExecutionPlan &plan,
                    const SafetyVerifyOptions &options,
                    analysis::SafetyAnalysis *out = nullptr);

} // namespace chimera::verify
