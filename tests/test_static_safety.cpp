/**
 * @file
 * Tests for the symbolic plan-safety analyzer (SB01-SB04), the
 * certificate lifecycle (planner attach -> serialize -> deserialize ->
 * PL14 validation), the plan cache's rejection of tampered
 * certificates, and the serve gate's certified-only policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "analysis/dependence.hpp"
#include "analysis/static_safety.hpp"
#include "ir/builders.hpp"
#include "plan/plan_cache.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "serve/planner_gate.hpp"
#include "support/error.hpp"
#include "verify/plan_verifier.hpp"
#include "verify/safety_verifier.hpp"

namespace chimera {
namespace {

namespace fs = std::filesystem;

ir::Chain
chainUnderTest()
{
    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 64;
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "safety-test";
    return ir::makeGemmChain(cfg);
}

plan::PlannerOptions
optionsUnderTest()
{
    plan::PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    return options;
}

/** Analyzer inputs derived from a plan (the planner's own call shape). */
analysis::SafetyAnalysis
analyzePlan(const ir::Chain &chain, const plan::ExecutionPlan &plan,
            const analysis::ShapeDomain &domain,
            double capacityBytes = 32.0 * 1024)
{
    analysis::SafetyOptions so;
    so.memCapacityBytes = capacityBytes;
    return analysis::analyzeSafety(
        chain, plan.perm, plan.tiles,
        plan::effectiveConcurrency(chain, plan),
        std::max(1, plan.plannedThreads), plan.parallelGrain, domain, so);
}

TEST(SymRange, MultiplicationOverflowSaturatesAndFlags)
{
    const analysis::SymRange big =
        analysis::SymRange::point(std::int64_t{1} << 62);
    const analysis::SymRange four = analysis::SymRange::point(4);
    const analysis::SymRange product = analysis::mulRanges(big, four);
    EXPECT_TRUE(product.overflow);
    const analysis::SymRange sum = analysis::addRanges(
        analysis::SymRange::point(std::numeric_limits<std::int64_t>::max()),
        analysis::SymRange::point(1));
    EXPECT_TRUE(sum.overflow);
    const analysis::SymRange fine = analysis::mulRanges(
        analysis::SymRange::point(1 << 20), analysis::SymRange::point(64));
    EXPECT_FALSE(fine.overflow);
    EXPECT_EQ(fine.lo, (std::int64_t{1} << 20) * 64);
}

TEST(ShapeDomain, ConcreteSummaryAndWidening)
{
    const ir::Chain chain = chainUnderTest();
    analysis::ShapeDomain domain = analysis::ShapeDomain::concrete(chain);
    EXPECT_TRUE(domain.isConcrete(chain));
    EXPECT_EQ(domain.summary(chain), "concrete");

    domain.widen(chain, "b", 4096);
    EXPECT_FALSE(domain.isConcrete(chain));
    EXPECT_EQ(domain.summary(chain), "b:1..4096");

    // Widening must keep the chain's own extent admissible.
    EXPECT_THROW(domain.widen(chain, "m", 8), Error);
    EXPECT_THROW(domain.widen(chain, "nonexistent", 128), Error);
}

TEST(ShapeDomain, ParseRoundTripsAndRejectsMalformed)
{
    const ir::Chain chain = chainUnderTest();
    analysis::ShapeDomain domain = analysis::ShapeDomain::concrete(chain);
    domain.widen(chain, "b", 4096);
    const analysis::ShapeDomain parsed = analysis::parseShapeDomain(
        chain, domain.summary(chain), "test");
    EXPECT_EQ(parsed.summary(chain), domain.summary(chain));

    EXPECT_EQ(analysis::parseShapeDomain(chain, "concrete", "test")
                  .summary(chain),
              "concrete");
    EXPECT_THROW(analysis::parseShapeDomain(chain, "zz:1..4", "test"),
                 Error);
    EXPECT_THROW(analysis::parseShapeDomain(chain, "b:nonsense", "test"),
                 Error);
    // Domain must contain the concrete extent (b = 4 here).
    EXPECT_THROW(analysis::parseShapeDomain(chain, "b:1..2", "test"),
                 Error);
}

TEST(StaticSafety, PlannerCertifiesItsOwnPlans)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    ASSERT_TRUE(plan.safety.certified);
    EXPECT_EQ(plan.safety.domain, "concrete");
    EXPECT_EQ(plan.safety.digest.size(), 16u);

    // The certificate survives the legality verifier (PL14 clean).
    verify::PlanVerifyOptions vo =
        verify::planVerifyOptions(optionsUnderTest());
    const verify::Report report =
        verify::verifyExecutionPlan(chain, plan, vo);
    EXPECT_FALSE(report.hasErrors()) << report.render();
}

TEST(StaticSafety, CertificateSurvivesSerializationRoundTrip)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    ASSERT_TRUE(plan.safety.certified);
    const std::string text = plan::serializePlan(chain, plan);
    EXPECT_NE(text.find("safety: domain=concrete"), std::string::npos);

    const plan::ExecutionPlan loaded = plan::deserializePlan(chain, text);
    EXPECT_TRUE(loaded.safety.certified);
    EXPECT_EQ(loaded.safety.digest, plan.safety.digest);
    EXPECT_EQ(loaded.safety.domain, plan.safety.domain);
}

TEST(StaticSafety, DigestReadsAnEmptyGrainAsAllOnes)
{
    // A serial plan carries no grain, while a document with a threads
    // line binds an all-1 grain: both name one schedule, one digest.
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    ASSERT_TRUE(plan.safety.certified);
    ASSERT_TRUE(plan.parallelGrain.empty());
    const std::vector<std::int64_t> ones(
        static_cast<std::size_t>(chain.numAxes()), 1);
    const std::string digest = analysis::safetyDigest(
        chain, plan.perm, plan.tiles, 1, {}, plan.safety.domain);
    EXPECT_EQ(digest, analysis::safetyDigest(chain, plan.perm, plan.tiles,
                                             1, ones, plan.safety.domain));
    EXPECT_EQ(digest, plan.safety.digest);

    const verify::Report report = verify::verifyPlanDocument(
        chain, plan::serializePlan(chain, plan) + "threads: 1\n", "",
        verify::planVerifyOptions(optionsUnderTest()));
    EXPECT_FALSE(report.hasErrors()) << report.render();
}

TEST(StaticSafety, UncertifiedPlanSerializesWithoutSafetyLine)
{
    const ir::Chain chain = chainUnderTest();
    plan::ExecutionPlan plan = plan::planChain(chain, optionsUnderTest());
    plan.safety = analysis::SafetyCertificate{};
    const std::string text = plan::serializePlan(chain, plan);
    EXPECT_EQ(text.find("safety:"), std::string::npos);
}

TEST(StaticSafety, TamperedDigestIsPL14ViaExecutionPlanVerifier)
{
    const ir::Chain chain = chainUnderTest();
    plan::ExecutionPlan plan = plan::planChain(chain, optionsUnderTest());
    ASSERT_TRUE(plan.safety.certified);
    plan.safety.digest = "0000000000000000";
    const verify::Report report = verify::verifyExecutionPlan(
        chain, plan, verify::planVerifyOptions(optionsUnderTest()));
    EXPECT_TRUE(report.hasRule("PL14")) << report.render();
}

TEST(StaticSafety, TamperedDocumentIsPL14ViaDocumentVerifier)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    ASSERT_TRUE(plan.safety.certified);
    std::string text = plan::serializePlan(chain, plan);
    const std::size_t pos = text.find("digest=");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos + 7, 16, "ffffffffffffffff");

    ASSERT_TRUE(plan::parsePlanDocument(text).haveSafety);
    const verify::Report report = verify::verifyPlanDocument(
        chain, text, "", verify::planVerifyOptions(optionsUnderTest()));
    EXPECT_TRUE(report.hasRule("PL14")) << report.render();
}

TEST(StaticSafety, MalformedSafetyLineRejectsOnDeserialize)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    std::string text = plan::serializePlan(chain, plan);
    const std::size_t pos = text.find("digest=");
    ASSERT_NE(pos, std::string::npos);
    std::string badDigest = text;
    badDigest.replace(pos + 7, 16, "not-a-hex-digest");
    EXPECT_THROW((void)plan::deserializePlan(chain, badDigest), Error);

    // The older line with a `rules=` field is refused too, naming it.
    std::string withRules = text;
    withRules.insert(pos - 1, " rules=sb01,sb02,sb03,sb04");
    ASSERT_NE(withRules.find("safety: domain=concrete rules=sb01"),
              std::string::npos);
    try {
        (void)plan::deserializePlan(chain, withRules);
        ADD_FAILURE() << "a rules= field must be refused";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("rules"), std::string::npos)
            << e.what();
    }
}

TEST(StaticSafety, Sb01FiresWhenTileExceedsDomainMinimum)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    analysis::ShapeDomain domain = analysis::ShapeDomain::concrete(chain);
    domain.widen(chain, "m", 128); // m tiles > 1 now escape small shapes
    const analysis::SafetyAnalysis sa = analyzePlan(chain, plan, domain);
    ASSERT_FALSE(sa.certificate.certified);
    EXPECT_TRUE(std::any_of(sa.violations.begin(), sa.violations.end(),
                            [](const analysis::SafetyViolation &v) {
                                return v.rule == analysis::SafetyRule::SB01;
                            }))
        << sa.renderViolations();
}

TEST(StaticSafety, Sb02FiresWhenBudgetShrinksBelowLiveWindow)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    const analysis::SafetyAnalysis sa =
        analyzePlan(chain, plan, analysis::ShapeDomain::concrete(chain),
                    /*capacityBytes=*/1024.0);
    ASSERT_FALSE(sa.certificate.certified);
    EXPECT_TRUE(std::any_of(sa.violations.begin(), sa.violations.end(),
                            [](const analysis::SafetyViolation &v) {
                                return v.rule == analysis::SafetyRule::SB02;
                            }))
        << sa.renderViolations();
}

TEST(StaticSafety, Sb03FiresWhenOffsetsOverflowInt64)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 1;
    cfg.m = 4300000000;
    cfg.n = 4300000000;
    cfg.k = 64;
    cfg.l = 64;
    cfg.name = "overflow-test";
    const ir::Chain chain = ir::makeGemmChain(cfg);
    std::vector<ir::AxisId> perm;
    std::vector<std::int64_t> tiles;
    for (int a = 0; a < chain.numAxes(); ++a) {
        perm.push_back(a);
        tiles.push_back(64);
    }
    analysis::SafetyOptions so;
    const analysis::SafetyAnalysis sa = analysis::analyzeSafety(
        chain, perm, tiles,
        analysis::analyzeConcurrency(chain, tiles).kinds(), 1, {},
        analysis::ShapeDomain::concrete(chain), so);
    ASSERT_FALSE(sa.certificate.certified);
    EXPECT_TRUE(std::any_of(sa.violations.begin(), sa.violations.end(),
                            [](const analysis::SafetyViolation &v) {
                                return v.rule == analysis::SafetyRule::SB03;
                            }))
        << sa.renderViolations();
}

TEST(StaticSafety, Sb04FiresOnMisdeclaredParallelReduction)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    std::vector<analysis::AxisConcurrency> kinds =
        plan::effectiveConcurrency(chain, plan);
    const ir::AxisId l = ir::axisIdByName(chain, "l");
    kinds[static_cast<std::size_t>(l)] =
        analysis::AxisConcurrency::Parallel; // l reduces into E: a lie
    analysis::SafetyOptions so;
    so.memCapacityBytes = 32.0 * 1024;
    const analysis::SafetyAnalysis sa = analysis::analyzeSafety(
        chain, plan.perm, plan.tiles, kinds, 1, plan.parallelGrain,
        analysis::ShapeDomain::concrete(chain), so);
    ASSERT_FALSE(sa.certificate.certified);
    EXPECT_TRUE(std::any_of(sa.violations.begin(), sa.violations.end(),
                            [](const analysis::SafetyViolation &v) {
                                return v.rule == analysis::SafetyRule::SB04;
                            }))
        << sa.renderViolations();
}

TEST(StaticSafety, WidenedBatchDomainCertifiesBatchOneTiles)
{
    // The serve batcher's derived plans pin the b tile at 1; such a
    // plan certifies over b in [1, 4096] — one certificate for the
    // whole batch family.
    const ir::Chain chain = chainUnderTest();
    plan::PlannerOptions po = optionsUnderTest();
    po.constraints.fixed[ir::axisIdByName(chain, "b")] = 1;
    po.safetyDomain["b"] = 4096;
    const plan::ExecutionPlan plan = plan::planChain(chain, po);
    ASSERT_TRUE(plan.safety.certified) << plan.safety.domain;
    EXPECT_EQ(plan.safety.domain, "b:1..4096");
}

TEST(StaticSafety, PlanCacheRejectsTamperedCertificateEntry)
{
    const ir::Chain chain = chainUnderTest();
    const plan::PlannerOptions options = optionsUnderTest();
    const fs::path dir = fs::path(::testing::TempDir()) /
                         "chimera-safety-cache-tamper";
    fs::remove_all(dir);
    {
        plan::PlanCache cache(dir.string());
        cache.store(chain, options,
                    plan::planChain(chain, options));
    }
    // Tamper with the digest on disk: flip it to a wrong-but-well-formed
    // value so the document still parses and binds.
    fs::path entry;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".plan") {
            entry = e.path();
        }
    }
    ASSERT_FALSE(entry.empty());
    std::string text;
    {
        std::ifstream in(entry);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    const std::size_t pos = text.find("digest=");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos + 7, 16, "0123456789abcdef");
    {
        std::ofstream out(entry, std::ios::trunc);
        out << text;
    }

    plan::PlanCache reopened(dir.string());
    EXPECT_FALSE(reopened.lookup(chain, options).has_value());
    EXPECT_EQ(reopened.stats().rejectedPlans, 1);
}

TEST(StaticSafety, PlannerGateServesOnlyCertifiedPlans)
{
    serve::PlannerGateOptions options;
    options.cacheDir = "-"; // memory-only
    serve::PlannerGate gate(options);
    ir::GemmChainConfig cfg;
    cfg.batch = 1;
    cfg.m = 64;
    cfg.n = 64;
    cfg.k = 64;
    cfg.l = 64;
    const plan::ExecutionPlan plan = gate.canonicalPlan(cfg);
    EXPECT_TRUE(plan.safety.certified);
    EXPECT_GE(gate.stats().certifiedPlans, 1);

    const plan::ExecutionPlan batched = gate.batchedPlan(cfg, 8);
    EXPECT_TRUE(batched.safety.certified);
    EXPECT_GE(gate.stats().certifiedPlans, 2);
}

TEST(StaticSafety, VerifierChecksRequestedDomainOnUncertifiedPlan)
{
    const ir::Chain chain = chainUnderTest();
    const plan::PlannerOptions po = optionsUnderTest();
    plan::ExecutionPlan plan = plan::planChain(chain, po);
    plan.safety = analysis::SafetyCertificate{};

    verify::SafetyVerifyOptions so;
    so.memCapacityBytes = po.memCapacityBytes;
    analysis::SafetyAnalysis analysis;
    const verify::Report report =
        verify::verifyPlanSafety(chain, plan, so, &analysis);
    EXPECT_FALSE(report.hasErrors()) << report.render();
    EXPECT_TRUE(analysis.certificate.certified);

    so.domainSpec = "zz:1..4"; // unknown axis: caller defect, throws
    EXPECT_THROW((void)verify::verifyPlanSafety(chain, plan, so), Error);
}

} // namespace
} // namespace chimera
