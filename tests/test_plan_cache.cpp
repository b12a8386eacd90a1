/**
 * @file
 * Tests for the persistent plan cache: cold misses plan and store, warm
 * hits (memory and disk) return the identical schedule without
 * enumeration, and corrupt or mismatched entries silently fall back to
 * replanning.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hw/machines.hpp"
#include "ir/builders.hpp"
#include "plan/plan_cache.hpp"
#include "plan/plan_io.hpp"
#include "support/error.hpp"

namespace chimera::plan {
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
    cfg.name = "cache-test";
    return ir::makeGemmChain(cfg);
}

PlannerOptions
optionsUnderTest()
{
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    return options;
}

/** Fresh, empty cache directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("chimera-plan-cache-" + name);
    fs::remove_all(dir);
    return dir.string();
}

/** The single *.plan entry file inside @p dir. */
fs::path
onlyEntry(const std::string &dir)
{
    fs::path found;
    int count = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".plan") {
            found = entry.path();
            ++count;
        }
    }
    EXPECT_EQ(count, 1);
    return found;
}

TEST(PlanCache, ColdMissThenWarmMemoryHit)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache(freshDir("memory"));
    options.cache = &cache;

    const ExecutionPlan cold = planChain(chain, options);
    EXPECT_GT(cold.candidatesExamined, 0);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().stores, 1);

    const ExecutionPlan warm = planChain(chain, options);
    EXPECT_EQ(warm.candidatesExamined, 0);
    EXPECT_EQ(cache.stats().memoryHits, 1);
    EXPECT_EQ(warm.perm, cold.perm);
    EXPECT_EQ(warm.tiles, cold.tiles);
    EXPECT_DOUBLE_EQ(warm.predictedVolumeBytes, cold.predictedVolumeBytes);
    EXPECT_EQ(warm.memUsageBytes, cold.memUsageBytes);
}

TEST(PlanCache, WarmDiskHitAcrossInstances)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    const std::string dir = freshDir("disk");

    ExecutionPlan cold;
    {
        PlanCache writer(dir);
        options.cache = &writer;
        cold = planChain(chain, options);
        EXPECT_GT(cold.candidatesExamined, 0);
    }
    ASSERT_TRUE(fs::exists(onlyEntry(dir)));

    // A new instance (a new process, in deployment) hits the disk tier.
    PlanCache reader(dir);
    options.cache = &reader;
    const ExecutionPlan warm = planChain(chain, options);
    EXPECT_EQ(warm.candidatesExamined, 0);
    EXPECT_EQ(reader.stats().diskHits, 1);
    EXPECT_EQ(reader.stats().misses, 0);
    EXPECT_EQ(warm.perm, cold.perm);
    EXPECT_EQ(warm.tiles, cold.tiles);
    EXPECT_DOUBLE_EQ(warm.predictedVolumeBytes, cold.predictedVolumeBytes);
}

TEST(PlanCache, CorruptEntryFallsBackToReplanning)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    const std::string dir = freshDir("corrupt");

    ExecutionPlan cold;
    {
        PlanCache writer(dir);
        options.cache = &writer;
        cold = planChain(chain, options);
    }
    {
        std::ofstream out(onlyEntry(dir), std::ios::trunc);
        out << "chimera-plan v2\ntiles: m=64abc\n";
    }

    PlanCache reader(dir);
    options.cache = &reader;
    const ExecutionPlan replanned = planChain(chain, options);
    EXPECT_GT(replanned.candidatesExamined, 0); // not served from cache
    EXPECT_EQ(reader.stats().corruptEntries, 1);
    EXPECT_EQ(replanned.perm, cold.perm);
    EXPECT_EQ(replanned.tiles, cold.tiles);

    // The replan's store healed the entry: the next instance hits disk.
    PlanCache healed(dir);
    options.cache = &healed;
    EXPECT_EQ(planChain(chain, options).candidatesExamined, 0);
    EXPECT_EQ(healed.stats().diskHits, 1);
}

TEST(PlanCache, StalePredictionEntryIsRejectedAndReplanned)
{
    // One verifier pass binds the entry and checks its declared
    // predictions (PL08): a volume line that disagrees with Algorithm 1
    // is a tampered entry, refused and replanned rather than served.
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    const std::string dir = freshDir("stale-prediction");

    ExecutionPlan cold;
    {
        PlanCache writer(dir);
        options.cache = &writer;
        cold = planChain(chain, options);
    }
    const fs::path entry = onlyEntry(dir);
    std::string text;
    {
        std::ifstream in(entry);
        std::ostringstream contents;
        contents << in.rdbuf();
        text = contents.str();
    }
    const std::size_t pos = text.find("volume-bytes: ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, text.find('\n', pos) - pos, "volume-bytes: 7");
    {
        std::ofstream out(entry, std::ios::trunc);
        out << text;
    }

    PlanCache reader(dir);
    options.cache = &reader;
    const ExecutionPlan replanned = planChain(chain, options);
    EXPECT_GT(replanned.candidatesExamined, 0);
    EXPECT_EQ(reader.stats().rejectedPlans, 1);
    EXPECT_EQ(reader.stats().corruptEntries, 0);
    EXPECT_EQ(reader.stats().diskHits, 0);
    EXPECT_EQ(replanned.perm, cold.perm);
    EXPECT_EQ(replanned.tiles, cold.tiles);
}

TEST(PlanCache, FingerprintMismatchTriggersReplan)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    const std::string dir = freshDir("mismatch");

    {
        PlanCache writer(dir);
        options.cache = &writer;
        planChain(chain, options);
    }
    // Tamper with the embedded fingerprint: the entry self-identifies as
    // belonging to a different (chain, options) key.
    const fs::path entry = onlyEntry(dir);
    std::string text;
    {
        std::ifstream in(entry);
        std::ostringstream contents;
        contents << in.rdbuf();
        text = contents.str();
    }
    const std::size_t pos = text.find("fingerprint: ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("fingerprint: ").size() + 16,
                 "fingerprint: 0000000000000000");
    {
        std::ofstream out(entry, std::ios::trunc);
        out << text;
    }

    PlanCache reader(dir);
    options.cache = &reader;
    const ExecutionPlan replanned = planChain(chain, options);
    EXPECT_GT(replanned.candidatesExamined, 0);
    EXPECT_EQ(reader.stats().corruptEntries, 1);
}

TEST(PlanCache, KeyCoversChainAndOptions)
{
    const ir::Chain chain = chainUnderTest();
    const PlannerOptions options = optionsUnderTest();

    PlannerOptions bigger = options;
    bigger.memCapacityBytes = 64.0 * 1024;
    EXPECT_NE(planFingerprint(chain, options),
              planFingerprint(chain, bigger));

    PlannerOptions unfiltered = options;
    unfiltered.onlyExecutableOrders = false;
    EXPECT_NE(planFingerprint(chain, options),
              planFingerprint(chain, unfiltered));

    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 128; // different extent
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "cache-test";
    EXPECT_NE(planFingerprint(ir::makeGemmChain(cfg), options),
              planFingerprint(chain, options));

    // Thread count must NOT change the key: plans are deterministic.
    PlannerOptions threaded = options;
    threaded.threads = 7;
    EXPECT_EQ(planFingerprint(chain, options),
              planFingerprint(chain, threaded));

    // Nor does the display name: structure decides plan validity.
    cfg.m = 64;
    cfg.name = "same-structure-other-name";
    EXPECT_EQ(planFingerprint(ir::makeGemmChain(cfg), options),
              planFingerprint(chain, options));
}

TEST(PlanCache, KeyCoversExecThreadsAndTopology)
{
    const ir::Chain chain = chainUnderTest();
    const PlannerOptions options = optionsUnderTest();

    // The targeted worker count changes the plan (per-worker budgets,
    // chunking), so it must change the key — unlike the search-loop
    // thread count above.
    PlannerOptions eight = options;
    eight.execThreads = 8;
    EXPECT_NE(planFingerprint(chain, options),
              planFingerprint(chain, eight));

    PlannerOptions topo = eight;
    topo.topology = hw::multicoreCpuTopology();
    EXPECT_NE(planFingerprint(chain, eight),
              planFingerprint(chain, topo));

    // A different shared-cache size is a different machine.
    PlannerOptions smallerLlc = topo;
    for (auto &level : smallerLlc.topology.levels) {
        if (level.scope == model::LevelScope::Shared) {
            level.capacityBytes /= 2.0;
            break;
        }
    }
    EXPECT_NE(planFingerprint(chain, topo),
              planFingerprint(chain, smallerLlc));

    // Chunk targeting only matters once several workers are planned.
    PlannerOptions grainier = eight;
    grainier.chunksPerWorker = 2;
    EXPECT_NE(planFingerprint(chain, eight),
              planFingerprint(chain, grainier));
    PlannerOptions serialGrain = options;
    serialGrain.chunksPerWorker = 2;
    EXPECT_EQ(planFingerprint(chain, options),
              planFingerprint(chain, serialGrain));
}

TEST(PlanCache, ThreadAwarePlansCacheSeparately)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache(freshDir("threads"));
    options.cache = &cache;

    const ExecutionPlan serial = planChain(chain, options);
    EXPECT_EQ(cache.stats().misses, 1);

    options.execThreads = 8;
    options.topology = hw::multicoreCpuTopology();
    const ExecutionPlan threaded = planChain(chain, options);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(threaded.plannedThreads, 8);

    // Warm hit restores the chunking decision too.
    const ExecutionPlan warm = planChain(chain, options);
    EXPECT_EQ(warm.candidatesExamined, 0);
    EXPECT_EQ(warm.plannedThreads, threaded.plannedThreads);
    EXPECT_EQ(warm.parallelGrain, threaded.parallelGrain);
    EXPECT_EQ(warm.tiles, threaded.tiles);
    EXPECT_EQ(serial.plannedThreads, 1);
}

TEST(PlanCache, MemoryOnlyWithoutDirectory)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache("");
    options.cache = &cache;

    const ExecutionPlan cold = planChain(chain, options);
    EXPECT_GT(cold.candidatesExamined, 0);
    const ExecutionPlan warm = planChain(chain, options);
    EXPECT_EQ(warm.candidatesExamined, 0);
    EXPECT_EQ(warm.perm, cold.perm);
    EXPECT_EQ(warm.tiles, cold.tiles);
    EXPECT_EQ(cache.stats().memoryHits, 1);
}

TEST(PlanCache, MultiLevelPlanningUsesTheCache)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache(freshDir("multilevel"));
    options.cache = &cache;

    model::MachineModel machine;
    machine.levels.push_back({"L1", 8.0 * 1024, 1e12});
    machine.levels.push_back({"L2", 32.0 * 1024, 1e11});
    machine.peakFlops = 1e12;

    const MultiLevelPlan cold =
        planChainMultiLevel(chain, machine, options);
    const int coldMisses = cache.stats().misses;
    EXPECT_EQ(coldMisses, 2); // one plan per level, each its own key

    const MultiLevelPlan warm =
        planChainMultiLevel(chain, machine, options);
    EXPECT_EQ(cache.stats().misses, coldMisses); // all levels warm
    EXPECT_EQ(cache.stats().hits(), 2);
    for (std::size_t d = 0; d < cold.levels.size(); ++d) {
        EXPECT_EQ(warm.levels[d].perm, cold.levels[d].perm);
        EXPECT_EQ(warm.levels[d].tiles, cold.levels[d].tiles);
    }
}

TEST(PlanCache, ConcurrentLookupsKeepExactCounters)
{
    // Counters are lock-free atomics on the lookup fast path; hammer
    // lookup/store/stats from many threads (TSan covers this test in
    // CI) and check the totals are exact afterwards.
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache(""); // memory-only keeps the filesystem out of it
    options.cache = &cache;

    const ExecutionPlan seeded = planChain(chain, options);
    EXPECT_EQ(cache.stats().stores, 1);

    constexpr int kWorkers = 8;
    constexpr int kLookupsPerWorker = 200;
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&chain, &options, &cache, &seeded] {
            for (int i = 0; i < kLookupsPerWorker; ++i) {
                const std::optional<ExecutionPlan> hit =
                    cache.lookup(chain, options);
                ASSERT_TRUE(hit.has_value());
                EXPECT_EQ(hit->tiles, seeded.tiles);
                (void)cache.stats(); // snapshots race with increments
            }
        });
    }
    for (std::thread &worker : workers) {
        worker.join();
    }

    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.memoryHits, kWorkers * kLookupsPerWorker);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.stores, 1);
    EXPECT_EQ(stats.diskHits, 0);
}

} // namespace
} // namespace chimera::plan
