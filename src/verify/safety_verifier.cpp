#include "verify/safety_verifier.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace chimera::verify {

namespace {

/** Workers the analysis should assume (plan's own count wins). */
int
effectiveWorkers(const plan::ExecutionPlan &plan,
                 const SafetyVerifyOptions &options)
{
    return plan.plannedThreads > 1 ? plan.plannedThreads
                                   : std::max(1, options.workers);
}

/** Runs the analyzer with the verify-side budget context. */
analysis::SafetyAnalysis
runAnalyzer(const ir::Chain &chain, const plan::ExecutionPlan &plan,
            const analysis::ShapeDomain &domain,
            const SafetyVerifyOptions &options)
{
    analysis::SafetyOptions so;
    so.memCapacityBytes = options.memCapacityBytes;
    so.topology = options.topology;
    return analysis::analyzeSafety(
        chain, plan.perm, plan.tiles,
        plan::effectiveConcurrency(chain, plan),
        effectiveWorkers(plan, options), plan.parallelGrain, domain, so);
}

void
reportViolations(const analysis::SafetyAnalysis &sa, Report &report)
{
    for (const analysis::SafetyViolation &v : sa.violations) {
        report.error(analysis::safetyRuleName(v.rule), v.location,
                     v.message);
    }
}

} // namespace

Report
verifyPlanSafety(const ir::Chain &chain, const plan::ExecutionPlan &plan,
                 const SafetyVerifyOptions &options,
                 analysis::SafetyAnalysis *out)
{
    const std::string spec =
        options.domainSpec.empty() ? "concrete" : options.domainSpec;
    const analysis::ShapeDomain domain =
        analysis::parseShapeDomain(chain, spec, "safety domain");
    const analysis::SafetyAnalysis sa =
        runAnalyzer(chain, plan, domain, options);
    Report report;
    reportViolations(sa, report);
    if (out != nullptr) {
        *out = sa;
    }
    return report;
}

Report
verifySafety(const ir::Chain &chain, const plan::ExecutionPlan &plan,
             const SafetyVerifyOptions &options,
             analysis::SafetyAnalysis *out)
{
    Report report;
    const analysis::SafetyCertificate &cert = plan.safety;
    analysis::ShapeDomain domain = analysis::ShapeDomain::concrete(chain);
    bool bound = false;
    if (cert.certified) {
        // The digest binds the certificate to this exact chain +
        // schedule; a certificate that does not bind is void, and the
        // plan is checked at its concrete shape instead.
        const std::string expected = analysis::safetyDigest(
            chain, plan.perm, plan.tiles, std::max(1, plan.plannedThreads),
            plan.parallelGrain, cert.domain);
        try {
            const analysis::ShapeDomain claimed = analysis::parseShapeDomain(
                chain, cert.domain, "safety domain");
            if (expected == cert.digest) {
                domain = claimed;
                bound = true;
            } else {
                report.error(
                    "PL14", "safety.digest",
                    "certificate digest " + cert.digest +
                        " does not match this chain + schedule (expected " +
                        expected +
                        "); the certificate was forged or replayed from"
                        " another plan");
            }
        } catch (const Error &e) {
            report.error("PL14", "safety.domain", e.what());
        }
    }

    analysis::SafetyAnalysis sa = runAnalyzer(chain, plan, domain, options);
    reportViolations(sa, report);
    if (bound && !sa.violations.empty()) {
        // A bound certificate the analyzer refutes is a binding defect
        // (the SB findings say what actually fails).
        report.error("PL14", "safety",
                     "certificate over domain " + cert.domain +
                         " is refuted by the analyzer (see SB findings)");
    }
    if (out != nullptr) {
        *out = std::move(sa);
    }
    return report;
}

} // namespace chimera::verify
