/**
 * @file
 * Tests for the order-equivalence analyzer and the pruned search
 * pipeline: pruning must be bitwise-indistinguishable from exhaustive
 * enumeration (the property sweep runs randomized chains at 1/2/8
 * planner threads), the incremental prefix bound must equal the
 * from-scratch bound, the plan document must carry the schedule and
 * certificate but no search stats, a cache entry in the older format
 * with a `search:` line must be replanned, and every pruning mode must
 * share one fingerprint.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "analysis/order_equivalence.hpp"
#include "exec/constraints.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "ir/builders.hpp"
#include "kernels/micro_kernel.hpp"
#include "plan/plan_cache.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "verify/plan_verifier.hpp"
#include "verify/search_verifier.hpp"

namespace chimera {
namespace {

namespace fs = std::filesystem;

const kernels::MicroKernel &
testKernel()
{
    return kernels::MicroKernelRegistry::instance().select(
        detectSimdTier());
}

/** A random two-GEMM chain (fused length 2, with softmax 3). */
ir::Chain
randomGemmChain(Rng &rng, bool softmax)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 1 + static_cast<std::int64_t>(rng.below(2));
    cfg.m = 16 + static_cast<std::int64_t>(rng.below(6)) * 16;
    cfg.n = 16 + static_cast<std::int64_t>(rng.below(6)) * 16;
    cfg.k = 8 + static_cast<std::int64_t>(rng.below(6)) * 8;
    cfg.l = 16 + static_cast<std::int64_t>(rng.below(6)) * 16;
    cfg.epilogue = softmax ? ir::Epilogue::Softmax : ir::Epilogue::None;
    cfg.name = "sweep-gemm2";
    return ir::makeGemmChain(cfg);
}

/** A random three-GEMM chain (fused length 3, with softmax 4). */
ir::Chain
randomGemmChain3(Rng &rng, bool softmax)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 1 + static_cast<std::int64_t>(rng.below(2));
    cfg.m = 16 + static_cast<std::int64_t>(rng.below(4)) * 16;
    cfg.n = 16 + static_cast<std::int64_t>(rng.below(4)) * 16;
    cfg.k = 8 + static_cast<std::int64_t>(rng.below(4)) * 8;
    cfg.l = 16 + static_cast<std::int64_t>(rng.below(4)) * 8;
    cfg.p = 8 + static_cast<std::int64_t>(rng.below(3)) * 4;
    cfg.epilogue = softmax ? ir::Epilogue::Softmax : ir::Epilogue::None;
    cfg.name = "sweep-gemm3";
    return ir::makeGemmChain3(cfg);
}

plan::PlannerOptions
sweepOptions(const ir::Chain &chain, bool chain3)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = 96.0 * 1024;
    options.constraints =
        chain3 ? exec::gemmChain3Constraints(chain, testKernel())
               : exec::cpuChainConstraints(chain, testKernel());
    return options;
}

/** Bitwise plan equality: the exact-pruning contract. */
void
expectSamePlan(const plan::ExecutionPlan &a, const plan::ExecutionPlan &b,
               const std::string &what)
{
    EXPECT_EQ(a.perm, b.perm) << what;
    EXPECT_EQ(a.tiles, b.tiles) << what;
    EXPECT_DOUBLE_EQ(a.predictedVolumeBytes, b.predictedVolumeBytes)
        << what;
    EXPECT_EQ(a.memUsageBytes, b.memUsageBytes) << what;
}

TEST(PropertySweep, ExactPruningMatchesExhaustiveAtEveryThreadCount)
{
    Rng rng(2026);
    for (int round = 0; round < 6; ++round) {
        const bool chain3 = round >= 2;
        const bool softmax = (round & 1) != 0;
        const ir::Chain chain = chain3 ? randomGemmChain3(rng, softmax)
                                       : randomGemmChain(rng, softmax);
        plan::PlannerOptions options = sweepOptions(chain, chain3);

        options.prune = analysis::PruneMode::None;
        options.threads = 1;
        const plan::ExecutionPlan exhaustive =
            plan::planChain(chain, options);

        for (const analysis::PruneMode mode :
             {analysis::PruneMode::Symmetry,
              analysis::PruneMode::Dominance}) {
            for (const int threads : {1, 2, 8}) {
                options.prune = mode;
                options.threads = threads;
                const plan::ExecutionPlan pruned =
                    plan::planChain(chain, options);
                expectSamePlan(
                    pruned, exhaustive,
                    std::string("round ") + std::to_string(round) +
                        " mode " + analysis::pruneModeName(mode) +
                        " threads " + std::to_string(threads));
                EXPECT_LE(pruned.search.solved, exhaustive.search.solved);
                EXPECT_EQ(pruned.search.enumerated +
                              (pruned.search.truncated ? 0 : 0),
                          exhaustive.search.enumerated);
            }
        }
    }
}

TEST(OrderAnalyzer, IncrementalBoundEqualsScratchBound)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 2;
    cfg.m = 48;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    cfg.p = 20;
    const ir::Chain chain = ir::makeGemmChain3(cfg);
    plan::PlannerOptions options = sweepOptions(chain, true);
    const solver::TileConstraints constraints =
        plan::searchConstraints(chain, options);
    analysis::OrderAnalyzer analyzer(
        chain, constraints, options.memCapacityBytes, options.model);
    const std::vector<std::vector<ir::AxisId>> candidates =
        plan::enumerateCandidateOrders(chain, options);
    ASSERT_GT(candidates.size(), 100u); // 5! reorderable axes and up
    for (const std::vector<ir::AxisId> &perm : candidates) {
        EXPECT_DOUBLE_EQ(analyzer.lowerBoundIncremental(perm),
                         analyzer.lowerBound(perm));
    }
}

TEST(OrderAnalyzer, SearchStatsCountsAreConsistent)
{
    Rng rng(7);
    const ir::Chain chain = randomGemmChain(rng, false);
    plan::PlannerOptions options = sweepOptions(chain, false);
    for (const analysis::PruneMode mode :
         {analysis::PruneMode::None, analysis::PruneMode::Symmetry,
          analysis::PruneMode::Dominance}) {
        options.prune = mode;
        const plan::ExecutionPlan plan = plan::planChain(chain, options);
        const analysis::SearchStats &s = plan.search;
        EXPECT_EQ(s.mode, mode);
        EXPECT_EQ(s.enumerated, s.filtered + s.symmetryPruned +
                                    s.dominancePruned + s.solved);
        EXPECT_FALSE(s.truncated);
        EXPECT_EQ(s.enumerated,
                  factorial(static_cast<int>(
                      chain.reorderableAxes().size())));
        EXPECT_GE(s.solved, 1);
    }
}

TEST(SearchReplay, CleanOnFixtureChains)
{
    // replaySearch runs the OE01-OE03 battery: class members solve
    // like their representatives, bounds hold on solved orders, the
    // incremental bound matches, and exact argmin is preserved.
    Rng rng(11);
    for (const bool chain3 : {false, true}) {
        const ir::Chain chain = chain3 ? randomGemmChain3(rng, true)
                                       : randomGemmChain(rng, false);
        plan::PlannerOptions options = sweepOptions(chain, chain3);
        options.prune = analysis::PruneMode::Dominance;
        const verify::SearchReplay replay =
            verify::replaySearch(chain, options);
        EXPECT_FALSE(replay.report.hasErrors())
            << replay.report.render();
        expectSamePlan(replay.pruned, replay.exhaustive, "replay");
    }
}

TEST(SearchSerialization, RoundTripPreservesStats)
{
    Rng rng(17);
    const ir::Chain chain = randomGemmChain(rng, false);
    plan::PlannerOptions options = sweepOptions(chain, false);
    options.prune = analysis::PruneMode::Dominance;
    const plan::ExecutionPlan plan = plan::planChain(chain, options);
    ASSERT_GE(plan.search.solved, 1);
    ASSERT_TRUE(plan.safety.certified);

    // The document states the schedule and one certificate; the search
    // stats stay in memory.
    const std::string text = plan::serializePlan(chain, plan);
    EXPECT_EQ(text.find("search:"), std::string::npos) << text;
    EXPECT_NE(text.find("safety: domain=concrete digest=" +
                        plan.safety.digest + "\n"),
              std::string::npos)
        << text;

    const plan::ExecutionPlan loaded = plan::deserializePlan(chain, text);
    expectSamePlan(loaded, plan, "round trip");
    EXPECT_EQ(loaded.concurrency, plan.concurrency);
    EXPECT_EQ(loaded.plannedThreads, plan.plannedThreads);
    EXPECT_TRUE(loaded.safety.certified);
    EXPECT_EQ(loaded.safety.domain, plan.safety.domain);
    EXPECT_EQ(loaded.safety.digest, plan.safety.digest);
    EXPECT_EQ(loaded.search.enumerated, 0); // like a fixed-order plan
    EXPECT_EQ(plan::serializePlan(chain, loaded), text);
    const verify::Report report = verify::verifyExecutionPlan(
        chain, loaded, verify::planVerifyOptions(options));
    EXPECT_FALSE(report.hasErrors()) << report.render();
}

TEST(PlanCache, RejectsTamperedSearchLineAndReplans)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 64;
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "search-tamper";
    const ir::Chain chain = ir::makeGemmChain(cfg);
    plan::PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;

    const fs::path dir =
        fs::path(::testing::TempDir()) / "chimera-search-cache-tamper";
    fs::remove_all(dir);
    {
        plan::PlanCache cache(dir.string());
        cache.store(chain, options, plan::planChain(chain, options));
    }
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
    // Rewrite the entry in the older format: a `rules=` token on the
    // safety line and a digest-bound `search:` line.
    const std::size_t digestAt =
        text.find(" digest=", text.find("safety:"));
    ASSERT_NE(digestAt, std::string::npos) << text;
    text.insert(digestAt, " rules=sb01,sb02,sb03,sb04");
    text.insert(text.find("volume-bytes:"),
                "search: mode=dominance enumerated=24 truncated=0"
                " filtered=16 symmetry=6 dominance=0 beam=0 solved=2"
                " gap=0 digest=77c2a1b0c3d4e5f6\n");
    {
        std::ofstream out(entry, std::ios::trunc);
        out << text;
    }

    // Not served: the document is refused outright (a corrupt entry),
    // not parsed and then rejected by the verifier.
    plan::PlanCache reopened(dir.string());
    EXPECT_FALSE(reopened.lookup(chain, options).has_value());
    EXPECT_EQ(reopened.stats().corruptEntries, 1);
    EXPECT_EQ(reopened.stats().rejectedPlans, 0);
    EXPECT_EQ(reopened.stats().misses, 1);

    // The deployment path: a fresh planChain through the cache replans
    // and overwrites the entry in the current format.
    options.cache = &reopened;
    const plan::ExecutionPlan replanned = plan::planChain(chain, options);
    EXPECT_GT(replanned.candidatesExamined, 0);
    EXPECT_GE(replanned.search.solved, 1);
    EXPECT_EQ(reopened.stats().stores, 1);
    {
        std::ifstream in(entry);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    EXPECT_EQ(text.find("search:"), std::string::npos) << text;
    EXPECT_EQ(text.find("rules="), std::string::npos) << text;
    EXPECT_EQ(text, plan::serializePlan(
                        chain, replanned,
                        plan::planFingerprint(chain, options)));

    plan::PlanCache fresh(dir.string());
    const std::optional<plan::ExecutionPlan> hit =
        fresh.lookup(chain, options);
    ASSERT_TRUE(hit.has_value());
    expectSamePlan(*hit, replanned, "re-stored entry");
    EXPECT_EQ(fresh.stats().diskHits, 1);
}

TEST(PlanCache, ExactModesShareFingerprints)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 1;
    cfg.m = 64;
    cfg.n = 64;
    cfg.k = 32;
    cfg.l = 48;
    cfg.name = "search-fingerprint";
    const ir::Chain chain = ir::makeGemmChain(cfg);
    plan::PlannerOptions options;
    options.memCapacityBytes = 48.0 * 1024;
    plan::PlanCache cache(""); // memory-only
    options.cache = &cache;

    options.prune = analysis::PruneMode::Dominance;
    const plan::ExecutionPlan stored = plan::planChain(chain, options);
    EXPECT_GT(stored.candidatesExamined, 0);

    // Pruning modes are excluded from the fingerprint: an exhaustive
    // lookup reuses the dominance-planned entry (they are provably the
    // same plan).
    options.prune = analysis::PruneMode::None;
    const plan::ExecutionPlan sharedHit = plan::planChain(chain, options);
    EXPECT_EQ(sharedHit.candidatesExamined, 0);
    expectSamePlan(sharedHit, stored, "exact-mode cache share");
}

} // namespace
} // namespace chimera
