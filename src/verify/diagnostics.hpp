#pragma once

/**
 * @file
 * Structured diagnostics for the chimera-check static analyses.
 *
 * Every verifier pass (chain well-formedness, plan legality) reports its
 * observations as Findings — (rule id, severity, location, message)
 * tuples collected in a Report — instead of throwing on the first
 * defect. A verifier must be able to describe *everything* wrong with an
 * adversarial input: a tampered cache document with three bad tiles
 * should yield three findings, not one exception. Rule ids are stable
 * strings (CH* chain rules, PL* plan rules, KP* kernel-parameter rules)
 * so tests, CI greps and downstream tooling can match on them.
 */

#include <string>
#include <vector>

namespace chimera::verify {

/** How bad a finding is. Only Error findings fail a verification. */
enum class Severity
{
    Note, ///< Informational (e.g. a check was skipped).
    Warning, ///< Suspicious but not illegal.
    Error, ///< The input is illegal; consumers must reject it.
};

/** Severity display name ("note", "warning", "error"). */
const char *severityName(Severity severity);

/** One diagnostic produced by a verifier pass. */
struct Finding
{
    /** Stable rule identifier, e.g. "PL04". */
    std::string ruleId;

    Severity severity = Severity::Error;

    /** What the finding is about, e.g. "tiles.m" or "op mm2 / tensor C". */
    std::string location;

    /** Human-readable explanation. */
    std::string message;
};

/** One entry of the published rule registry (see publishedRules). */
struct RuleInfo
{
    /** Stable rule identifier, e.g. "SB03". */
    std::string id;

    /** Family prefix: "CH", "PL", "KP", "DP", "RC", "SB" or "OE". */
    std::string family;

    /** One-line meaning (matches the README rule table). */
    std::string meaning;

    /**
     * True for rules proven without executing the plan (static
     * analysis); false for rules needing a run (RC01's shadow-memory
     * scan is the only dynamic rule).
     */
    bool staticRule = true;
};

/**
 * The complete published rule-id registry, in family order (CH01-07,
 * PL01-14, KP01-03, DP04, RC01, SB01-04, OE01-03). Tests golden-list this
 * set so renames and accidental drops become failures; tooling can use
 * it to validate grep patterns.
 */
const std::vector<RuleInfo> &publishedRules();

/** Ordered collection of findings from one or more verifier passes. */
class Report
{
  public:
    /** Appends a finding. */
    void add(Finding finding);

    /** Convenience appenders for the three severities. */
    void error(std::string ruleId, std::string location,
               std::string message);
    void warning(std::string ruleId, std::string location,
                 std::string message);
    void note(std::string ruleId, std::string location, std::string message);

    /** Appends every finding of @p other, in order. */
    void merge(const Report &other);

    const std::vector<Finding> &findings() const { return findings_; }

    bool empty() const { return findings_.empty(); }
    int errorCount() const;
    int warningCount() const;
    bool hasErrors() const { return errorCount() > 0; }

    /** True when some finding carries @p ruleId. */
    bool hasRule(const std::string &ruleId) const;

    /**
     * Renders one "severity: [rule] location: message" line per finding
     * (no trailing newline on the last line when @p findings is empty the
     * result is ""). This is what chimera-check prints and what the
     * planner embeds in its self-check Error.
     */
    std::string render() const;

  private:
    std::vector<Finding> findings_;
};

} // namespace chimera::verify
