/**
 * @file
 * Golden-list test of the published rule-id registry: the complete,
 * ordered id set every verifier pass draws from. A rename, a dropped
 * rule, or an id added without registry coverage fails here before any
 * grep in CI or the docs drifts.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "verify/diagnostics.hpp"

namespace chimera {
namespace {

TEST(RuleIds, GoldenListInFamilyOrder)
{
    const std::vector<std::string> expected = {
        // Chain well-formedness.
        "CH01", "CH02", "CH03", "CH04", "CH05", "CH06", "CH07",
        // Plan legality and document binding.
        "PL01", "PL02", "PL03", "PL04", "PL05", "PL06", "PL07", "PL08",
        "PL09", "PL10", "PL11", "PL12", "PL13", "PL14",
        // Micro-kernel parameters.
        "KP01", "KP02", "KP03",
        // Over-serialized concurrency declaration.
        "DP04",
        // Dynamic race detection.
        "RC01",
        // Symbolic static safety.
        "SB01", "SB02", "SB03", "SB04",
        // Order-equivalence / search pruning soundness.
        "OE01", "OE02", "OE03"};
    ASSERT_EQ(expected.size(), 33u);

    const std::vector<verify::RuleInfo> &rules = verify::publishedRules();
    ASSERT_EQ(rules.size(), expected.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
        EXPECT_EQ(rules[i].id, expected[i]) << "registry position " << i;
    }
}

TEST(RuleIds, EntriesAreInternallyConsistent)
{
    std::set<std::string> seen;
    for (const verify::RuleInfo &rule : verify::publishedRules()) {
        EXPECT_TRUE(seen.insert(rule.id).second)
            << rule.id << " registered twice";
        // The id is its family prefix plus a two-digit ordinal.
        ASSERT_GE(rule.id.size(), 4u);
        EXPECT_EQ(rule.id.substr(0, rule.family.size()), rule.family);
        EXPECT_FALSE(rule.meaning.empty()) << rule.id;
        const std::string ordinal = rule.id.substr(rule.family.size());
        EXPECT_EQ(ordinal.size(), 2u) << rule.id;
        EXPECT_NE(ordinal.find_first_of("0123456789"), std::string::npos)
            << rule.id;
    }
}

TEST(RuleIds, OnlyTheRaceScanIsDynamic)
{
    for (const verify::RuleInfo &rule : verify::publishedRules()) {
        if (rule.id == "RC01") {
            EXPECT_FALSE(rule.staticRule);
        } else {
            EXPECT_TRUE(rule.staticRule) << rule.id;
        }
    }
}

TEST(RuleIds, EveryIdRendersThroughDiagnostics)
{
    // Every published id must flow through the Report rendering the
    // tools print: "error: [ID] location: message".
    verify::Report report;
    for (const verify::RuleInfo &rule : verify::publishedRules()) {
        report.error(rule.id, "registry-test", rule.meaning);
    }
    EXPECT_EQ(report.errorCount(),
              static_cast<int>(verify::publishedRules().size()));
    const std::string rendered = report.render();
    for (const verify::RuleInfo &rule : verify::publishedRules()) {
        EXPECT_NE(rendered.find("[" + rule.id + "] registry-test:"),
                  std::string::npos)
            << rule.id;
        EXPECT_TRUE(report.hasRule(rule.id));
    }
}

} // namespace
} // namespace chimera
