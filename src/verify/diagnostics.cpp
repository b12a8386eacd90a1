#include "verify/diagnostics.hpp"

#include <algorithm>

namespace chimera::verify {

const char *
severityName(Severity severity)
{
    switch (severity) {
    case Severity::Note:
        return "note";
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    return "unknown";
}

const std::vector<RuleInfo> &
publishedRules()
{
    static const std::vector<RuleInfo> rules = {
        {"CH01", "CH", "chain structure: no operators or no tensors", true},
        {"CH02", "CH", "axis declaration: empty/duplicate name, extent < 1",
         true},
        {"CH03", "CH", "dangling op->axis / op->tensor / output reference",
         true},
        {"CH04", "CH", "access map: tensor without dims, coefficient < 1",
         true},
        {"CH05", "CH", "producer/consumer access-shape disagreement", true},
        {"CH06", "CH", "dataflow: intermediate consumed before produced",
         true},
        {"CH07", "CH", "independent axis not derivable from any operator",
         true},
        {"PL01", "PL", "plan document syntax error", true},
        {"PL02", "PL", "order/tiles/grain name an unknown axis", true},
        {"PL03", "PL", "order is not a permutation of the chain's axes",
         true},
        {"PL04", "PL", "tile size outside [1, extent]", true},
        {"PL05", "PL", "plan incomplete: missing order/tiles entries",
         true},
        {"PL06", "PL", "block order not executable with single regions",
         true},
        {"PL07", "PL", "re-derived memory usage exceeds the capacity",
         true},
        {"PL08", "PL", "declared DV/MU predictions disagree with re-derived",
         true},
        {"PL09", "PL", "Algorithm 1 disagrees with brute-force recount",
         true},
        {"PL10", "PL", "document fingerprint mismatch", true},
        {"PL11", "PL", "multi-level schedule nesting defect", true},
        {"PL12", "PL", "concurrency line binding defect", true},
        {"PL13", "PL", "thread-aware chunking defect", true},
        {"PL14", "PL", "safety-certificate binding defect (forged/replayed"
                       " or refuted `safety:` line)",
         true},
        {"KP01", "KP", "micro-kernel register usage exceeds the budget",
         true},
        {"KP02", "KP", "micro-kernel structure: MII < 2 or MII !| MI",
         true},
        {"KP03", "KP", "micro-kernel parameter not positive", true},
        {"DP04", "DP", "over-serialization of a proven-parallel axis",
         true},
        {"RC01", "RC", "shadow-memory write conflict observed at runtime",
         false},
        {"SB01", "SB", "block window escapes tensor extents for an"
                       " admissible shape",
         true},
        {"SB02", "SB", "maximum live window exceeds the per-worker budget",
         true},
        {"SB03", "SB", "index arithmetic can overflow int64", true},
        {"SB04", "SB", "parallel axis lacks a shape-generic disjointness"
                       " proof",
         true},
        {"OE01", "OE", "symmetry-class merge unsound: class members solve"
                       " differently",
         true},
        {"OE02", "OE", "dominance bound unsound: solved volume undercuts"
                       " the bound or exact pruning changed the argmin",
         true},
        {"OE03", "OE", "incremental prefix bound diverges from"
                       " from-scratch evaluation",
         true},
    };
    return rules;
}

void
Report::add(Finding finding)
{
    findings_.push_back(std::move(finding));
}

void
Report::error(std::string ruleId, std::string location, std::string message)
{
    add(Finding{std::move(ruleId), Severity::Error, std::move(location),
                std::move(message)});
}

void
Report::warning(std::string ruleId, std::string location,
                std::string message)
{
    add(Finding{std::move(ruleId), Severity::Warning, std::move(location),
                std::move(message)});
}

void
Report::note(std::string ruleId, std::string location, std::string message)
{
    add(Finding{std::move(ruleId), Severity::Note, std::move(location),
                std::move(message)});
}

void
Report::merge(const Report &other)
{
    findings_.insert(findings_.end(), other.findings_.begin(),
                     other.findings_.end());
}

int
Report::errorCount() const
{
    return static_cast<int>(
        std::count_if(findings_.begin(), findings_.end(),
                      [](const Finding &f) {
                          return f.severity == Severity::Error;
                      }));
}

int
Report::warningCount() const
{
    return static_cast<int>(
        std::count_if(findings_.begin(), findings_.end(),
                      [](const Finding &f) {
                          return f.severity == Severity::Warning;
                      }));
}

bool
Report::hasRule(const std::string &ruleId) const
{
    return std::any_of(findings_.begin(), findings_.end(),
                       [&ruleId](const Finding &f) {
                           return f.ruleId == ruleId;
                       });
}

std::string
Report::render() const
{
    std::string out;
    for (const Finding &finding : findings_) {
        if (!out.empty()) {
            out += "\n";
        }
        out += severityName(finding.severity);
        out += ": [";
        out += finding.ruleId;
        out += "] ";
        out += finding.location;
        out += ": ";
        out += finding.message;
    }
    return out;
}

} // namespace chimera::verify
