#pragma once

/**
 * @file
 * Static plan-safety analysis: a symbolic abstract interpreter over the
 * chain's affine access maps composed with a plan's tile/order/chunk
 * schedule. Where the RC01 shadow-memory race checker and the PL/KP
 * verifiers validate a plan for the *concrete shape* it runs on, this
 * pass proves four properties once, for every shape a domain admits:
 *
 *  - SB01 (bounds): every block read/write window is contained in its
 *    tensor's extents — halo-recompute windows included. Block windows
 *    clamp at the tensor edge exactly like the executors do, so the
 *    proof reduces to exact affine cancellation: with 1 <= T_a <=
 *    min-extent(a) for every axis of a dimension, the maximal accessed
 *    index equals the dimension extent minus one for *all* admissible
 *    shapes (the symbolic difference cancels to the constant -1).
 *  - SB02 (workspace): the per-worker capacity budget dominates the
 *    maximum live window over the whole block grid. Full-tile blocks
 *    maximize every footprint term, so the symbolic max over the grid
 *    is the sum of full-tile operand footprints per operator, evaluated
 *    with exact (overflow-checked) integer arithmetic and compared
 *    against the same Section V-B budget the KP rules spot-check.
 *  - SB03 (overflow): every index computation in the lowered nests —
 *    linearized element offsets, byte offsets, block-grid task counts,
 *    chunk arithmetic through the grain multiplications, and the
 *    aggregate per-worker workspace allocation — stays within int64 at
 *    the domain's upper extents, established by interval analysis in
 *    128-bit arithmetic.
 *  - SB04 (race freedom): every parallel-marked axis classifies
 *    Parallel under analyzeConcurrency evaluated at the domain's
 *    *upper* extents, where every window width is largest, so its
 *    output windows are disjoint for all shapes in the domain. The
 *    classifier's reason is the finding text.
 *
 * A clean analysis yields a SafetyCertificate that the planner attaches
 * to the winning plan, the v2 plan document serializes as a `safety:`
 * line (policed by PL14), and serve::PlannerGate requires before
 * serving — which is what lets the daemon keep dynamic race checking
 * off the hot path.
 *
 * The default domain is "concrete": every axis pinned to its chain
 * extent, matching the dynamic checkers. Widening an axis to [1, max]
 * certifies a whole family at once — e.g. the serve batcher's derived
 * b-axis plans for any batch size up to max.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/dependence.hpp"
#include "ir/chain.hpp"
#include "model/multilevel.hpp"

namespace chimera::analysis {

/**
 * Closed int64 interval with saturation-on-overflow tracking. All
 * arithmetic runs in 128 bits; a result outside int64 saturates and
 * sets overflow, which SB03 treats as a violation.
 */
struct SymRange
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    bool overflow = false;

    static SymRange point(std::int64_t v) { return {v, v, false}; }
};

SymRange addRanges(const SymRange &a, const SymRange &b);
SymRange mulRanges(const SymRange &a, const SymRange &b);

/**
 * Shape domain: per-axis closed extent intervals [lo, hi]. concrete()
 * pins every axis to its chain extent; widen() relaxes one axis to
 * [1, max]. A widened axis must still admit the chain's concrete
 * extent (lo <= extent <= hi) so the plan's own shape is in-domain.
 */
struct ShapeDomain
{
    std::vector<std::int64_t> lo;
    std::vector<std::int64_t> hi;

    static ShapeDomain concrete(const ir::Chain &chain);

    /** Relaxes @p axisName to [1, maxExtent]; throws on bad input. */
    void widen(const ir::Chain &chain, const std::string &axisName,
               std::int64_t maxExtent);

    /** True when every axis is pinned to its concrete extent. */
    bool isConcrete(const ir::Chain &chain) const;

    /** "concrete" or "b:1..4096,m:1..8192" (widened axes only). */
    std::string summary(const ir::Chain &chain) const;
};

/**
 * Parses a domain summary produced by ShapeDomain::summary (the
 * `domain=` token of a `safety:` plan-document line). Throws
 * chimera::Error naming @p context on malformed specs or unknown axes.
 */
ShapeDomain parseShapeDomain(const ir::Chain &chain, const std::string &spec,
                             const std::string &context);

/** The SB rule family (see file comment). */
enum class SafetyRule
{
    SB01, ///< block window escapes its tensor's extents
    SB02, ///< live window exceeds the per-worker capacity budget
    SB03, ///< index arithmetic can overflow int64
    SB04, ///< parallel-marked axis lacks a disjointness proof
};

/** "SB01".."SB04". */
const char *safetyRuleName(SafetyRule rule);

/** Number of SB rules (timing arrays are indexed by rule). */
inline constexpr int kNumSafetyRules = 4;

/** One refuted property: which rule, where, and why. */
struct SafetyViolation
{
    SafetyRule rule = SafetyRule::SB01;
    std::string location;
    std::string message;
};

/**
 * Shape-generic safety certificate carried by a certified
 * ExecutionPlan and serialized as the v2 `safety:` document line. A
 * certificate always claims all four SB rules. The digest binds chain
 * signature, schedule (order/tiles/threads/grain) and domain; PL14
 * polices the binding on load.
 */
struct SafetyCertificate
{
    /** True when the analyzer proved all four rules over the domain. */
    bool certified = false;

    /** ShapeDomain::summary() of the certified domain. */
    std::string domain = "concrete";

    /** fnv1a64Hex over signature + schedule + domain. */
    std::string digest;
};

/** Knobs for the analyzer (budget source mirrors the planner). */
struct SafetyOptions
{
    /**
     * Memory capacity in bytes for SB02; <= 0 skips the capacity
     * check (matching the planner's unconstrained mode).
     */
    double memCapacityBytes = 0.0;

    /**
     * Optional machine topology: with workers > 1 the SB02 budget is
     * clamped to the tightest shared-level per-worker share, exactly
     * like the thread-aware planner's tile budget.
     */
    model::MachineModel topology;
};

/** Analyzer result: violations plus the certificate (if clean). */
struct SafetyAnalysis
{
    /** Empty iff the plan certified. */
    std::vector<SafetyViolation> violations;

    /** certified == violations.empty(); always carries domain/digest. */
    SafetyCertificate certificate;

    /**
     * analyzeConcurrency at the domain's upper extents: the
     * classification SB04 checks the parallel marks against.
     */
    ConcurrencyTable concurrency;

    /** Wall seconds spent per rule (SB01..SB04), for overhead reports. */
    double ruleSeconds[kNumSafetyRules] = {0.0, 0.0, 0.0, 0.0};

    /** Total analyzer wall seconds. */
    double totalSeconds = 0.0;

    /** "window of E dim 0 ..." one-line rendering of all violations. */
    std::string renderViolations() const;
};

/**
 * Runs the four SB rules over @p chain under block tiling @p tiles,
 * declared per-axis concurrency @p kinds (arity == chain.numAxes();
 * pass ConcurrencyTable::kinds() or a plan's table), @p workers
 * planned threads and per-axis chunk @p grain (empty means grain 1).
 * @p perm is the block execution order (outermost first); it does not
 * influence any of the four properties but is bound into the digest so
 * a certificate cannot be replayed onto a reordered plan.
 */
SafetyAnalysis analyzeSafety(const ir::Chain &chain,
                             const std::vector<ir::AxisId> &perm,
                             const std::vector<std::int64_t> &tiles,
                             const std::vector<AxisConcurrency> &kinds,
                             int workers,
                             const std::vector<std::int64_t> &grain,
                             const ShapeDomain &domain,
                             const SafetyOptions &options);

/**
 * The certificate digest: FNV-1a over the chain signature, the
 * schedule (order, tiles, threads, grain) and the domain string. An
 * empty @p grain hashes as grain 1 on every axis, so serial plans get
 * one digest whichever form they carry. Recomputed by the PL14
 * validator; any drift rejects the document.
 */
std::string safetyDigest(const ir::Chain &chain,
                         const std::vector<ir::AxisId> &perm,
                         const std::vector<std::int64_t> &tiles,
                         int workers,
                         const std::vector<std::int64_t> &grain,
                         const std::string &domain);

} // namespace chimera::analysis
