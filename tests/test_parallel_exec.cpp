/**
 * @file
 * Determinism tests for the parallel executors: every fused/tiled
 * executor must produce bitwise-identical outputs at 1, 2, 4 and 8
 * threads, because only dependence-free block loops are distributed and
 * every floating-point reduction keeps its serial ascending order.
 */

#include <gtest/gtest.h>

#include <cstring>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/dependence.hpp"
#include "analysis/race_checker.hpp"
#include "analysis/static_safety.hpp"
#include "exec/constraints.hpp"
#include "exec/conv_chain_exec.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "exec/region_schedule.hpp"
#include "hw/machines.hpp"
#include "graph/cnn.hpp"
#include "graph/transformer.hpp"
#include "ir/builders.hpp"
#include "ir/workloads.hpp"
#include "obs/trace.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace chimera::exec {
namespace {

using ir::ConvChainConfig;
using ir::Epilogue;
using ir::GemmChainConfig;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

plan::ExecutionPlan
planFor(const ir::Chain &chain, double capacityBytes)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = capacityBytes;
    return plan::planChain(chain, options);
}

TEST(ParallelExec, FusedGemmChainBitwiseIdenticalAcrossThreadCounts)
{
    struct Variant
    {
        Epilogue epi;
        bool causal;
    };
    // The causal variant has m == l = 40, not a multiple of 16: its
    // rows above the diagonal block have no live column (valid <= 0)
    // and the rest end in masked vector tails.
    for (const Variant variant : {Variant{Epilogue::None, false},
                                  Variant{Epilogue::Relu, false},
                                  Variant{Epilogue::Softmax, false},
                                  Variant{Epilogue::Softmax, true}}) {
        const Epilogue epi = variant.epi;
        GemmChainConfig cfg;
        cfg.batch = 3;
        cfg.m = variant.causal ? 40 : 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.epilogue = epi;
        cfg.softmaxScale = 0.25f;
        cfg.causalMask = variant.causal;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        const plan::ExecutionPlan plan =
            planFor(chain, (variant.causal ? 3.0 : 16.0) * 1024);
        if (variant.causal) {
            ASSERT_LT(plan.tiles[static_cast<std::size_t>(
                          ir::axisIdByName(chain, "l"))],
                      cfg.l);
        }
        const ComputeEngine engine = ComputeEngine::best();

        Tensor a(gemmChainShapeA(cfg));
        Tensor b(gemmChainShapeB(cfg));
        Tensor d(gemmChainShapeD(cfg));
        Rng rng(42);
        fillUniform(a, rng);
        fillUniform(b, rng);
        fillUniform(d, rng);

        Tensor serial(gemmChainShapeE(cfg));
        runFusedGemmChain(cfg, plan, engine, a, b, d, serial);
        for (int threads : kThreadCounts) {
            Tensor e(gemmChainShapeE(cfg));
            runFusedGemmChain(cfg, plan, engine, a, b, d, e,
                              ExecOptions{threads, nullptr});
            EXPECT_TRUE(bitwiseEqual(e, serial))
                << "epilogue " << static_cast<int>(epi) << " causal "
                << variant.causal << " threads " << threads;
        }
    }
}

TEST(ParallelExec, TiledBatchGemmBitwiseIdenticalAcrossThreadCounts)
{
    Tensor a({3, 37, 29});
    Tensor b({3, 29, 23});
    Rng rng(7);
    fillUniform(a, rng);
    fillUniform(b, rng);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor serial({3, 37, 23});
    runTiledBatchGemm(engine, a, b, serial, GemmTiles{16, 8, 8});
    for (int threads : kThreadCounts) {
        Tensor c({3, 37, 23});
        runTiledBatchGemm(engine, a, b, c, GemmTiles{16, 8, 8},
                          ExecOptions{threads, nullptr});
        EXPECT_TRUE(bitwiseEqual(c, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, FusedGemmChain3BitwiseIdenticalAcrossThreadCounts)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 2;
    cfg.m = 48;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    cfg.p = 20;
    cfg.epilogue = Epilogue::Relu;
    const ir::Chain chain = ir::makeGemmChain3(cfg);
    plan::PlannerOptions options;
    options.memCapacityBytes = 48.0 * 1024;
    options.constraints = gemmChain3Constraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    const plan::ExecutionPlan plan = plan::planChain(chain, options);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChain3ShapeA(cfg));
    Tensor b(gemmChain3ShapeB(cfg));
    Tensor d(gemmChain3ShapeD(cfg));
    Tensor f(gemmChain3ShapeF(cfg));
    Rng rng(5);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);
    fillUniform(f, rng);

    Tensor serial(gemmChain3ShapeE(cfg));
    runFusedGemmChain3(cfg, plan, engine, a, b, d, f, serial);
    for (int threads : kThreadCounts) {
        Tensor e(gemmChain3ShapeE(cfg));
        runFusedGemmChain3(cfg, plan, engine, a, b, d, f, e,
                           ExecOptions{threads, nullptr});
        EXPECT_TRUE(bitwiseEqual(e, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, FusedConvChainBitwiseIdenticalAcrossThreadCounts)
{
    ConvChainConfig cfg;
    cfg.batch = 2;
    cfg.ic = 6;
    cfg.h = 17;
    cfg.w = 17;
    cfg.oc1 = 9;
    cfg.oc2 = 7;
    cfg.k1 = 3;
    cfg.k2 = 3;
    cfg.stride1 = 1;
    cfg.stride2 = 2;
    cfg.epilogue = Epilogue::Relu;
    const ir::Chain chain = ir::makeConvChain(cfg);
    const plan::ExecutionPlan plan = planFor(chain, 24.0 * 1024);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor input(convChainShapeI(cfg));
    Tensor w1(convChainShapeW1(cfg));
    Tensor w2(convChainShapeW2(cfg));
    Rng rng(31);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);

    Tensor serial(convChainShapeO(cfg));
    runFusedConvChain(cfg, plan, engine, input, w1, w2, serial);
    for (int threads : kThreadCounts) {
        Tensor output(convChainShapeO(cfg));
        runFusedConvChain(cfg, plan, engine, input, w1, w2, output,
                          ExecOptions{threads, nullptr});
        EXPECT_TRUE(bitwiseEqual(output, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, UnfusedConvChainBitwiseIdenticalAcrossThreadCounts)
{
    ConvChainConfig cfg;
    cfg.batch = 2;
    cfg.ic = 5;
    cfg.h = 13;
    cfg.w = 13;
    cfg.oc1 = 8;
    cfg.oc2 = 6;
    cfg.k1 = 3;
    cfg.k2 = 1;
    cfg.epilogue = Epilogue::Relu;
    const ComputeEngine engine = ComputeEngine::best();

    Tensor input(convChainShapeI(cfg));
    Tensor w1(convChainShapeW1(cfg));
    Tensor w2(convChainShapeW2(cfg));
    Rng rng(17);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);

    Tensor serialScratch(convChainShapeT(cfg));
    Tensor serial(convChainShapeO(cfg));
    runUnfusedConvChain(cfg, engine, input, w1, w2, serialScratch, serial,
                        {4, 4}, {4, 4});
    for (int threads : kThreadCounts) {
        Tensor scratch(convChainShapeT(cfg));
        Tensor output(convChainShapeO(cfg));
        runUnfusedConvChain(cfg, engine, input, w1, w2, scratch, output,
                            {4, 4}, {4, 4},
                            ExecOptions{threads, nullptr});
        EXPECT_TRUE(bitwiseEqual(output, serial)) << "threads " << threads;
    }
}

plan::ExecutionPlan
threadAwarePlanFor(const ir::Chain &chain, double capacityBytes,
                   int execThreads)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = capacityBytes;
    options.execThreads = execThreads;
    options.topology = hw::multicoreCpuTopology();
    return plan::planChain(chain, options);
}

TEST(ParallelExec, ThreadAwareGemmPlanBitwiseIdenticalAcrossThreadCounts)
{
    // The fig5 workload family under a thread-aware plan: the chunked
    // dispatch (grain > 1 groups consecutive blocks) must stay
    // bitwise-identical at every thread count and race-clean.
    for (Epilogue epi : {Epilogue::None, Epilogue::Softmax}) {
        GemmChainConfig cfg;
        cfg.batch = 3;
        cfg.m = 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.epilogue = epi;
        cfg.softmaxScale = 0.25f;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        const plan::ExecutionPlan plan =
            threadAwarePlanFor(chain, 16.0 * 1024, 8);
        EXPECT_EQ(plan.plannedThreads, 8);
        const ComputeEngine engine = ComputeEngine::best();

        Tensor a(gemmChainShapeA(cfg));
        Tensor b(gemmChainShapeB(cfg));
        Tensor d(gemmChainShapeD(cfg));
        Rng rng(42);
        fillUniform(a, rng);
        fillUniform(b, rng);
        fillUniform(d, rng);

        Tensor serial(gemmChainShapeE(cfg));
        runFusedGemmChain(cfg, plan, engine, a, b, d, serial);
        for (int threads : kThreadCounts) {
            analysis::RaceChecker checker(serial.numel());
            Tensor e(gemmChainShapeE(cfg));
            runFusedGemmChain(cfg, plan, engine, a, b, d, e,
                              ExecOptions{threads, nullptr, &checker});
            EXPECT_FALSE(checker.hasConflicts())
                << "threads " << threads << "\n" << checker.report();
            EXPECT_TRUE(bitwiseEqual(e, serial))
                << "epilogue " << static_cast<int>(epi) << " threads "
                << threads;
        }
    }
}

TEST(ParallelExec, ThreadAwareConvPlanBitwiseIdenticalAcrossThreadCounts)
{
    ConvChainConfig cfg;
    cfg.batch = 2;
    cfg.ic = 6;
    cfg.h = 17;
    cfg.w = 17;
    cfg.oc1 = 9;
    cfg.oc2 = 7;
    cfg.k1 = 3;
    cfg.k2 = 3;
    cfg.stride1 = 1;
    cfg.stride2 = 2;
    cfg.epilogue = Epilogue::Relu;
    const ir::Chain chain = ir::makeConvChain(cfg);
    const plan::ExecutionPlan plan =
        threadAwarePlanFor(chain, 24.0 * 1024, 8);
    EXPECT_EQ(plan.plannedThreads, 8);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor input(convChainShapeI(cfg));
    Tensor w1(convChainShapeW1(cfg));
    Tensor w2(convChainShapeW2(cfg));
    Rng rng(31);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);

    Tensor serial(convChainShapeO(cfg));
    runFusedConvChain(cfg, plan, engine, input, w1, w2, serial);
    for (int threads : kThreadCounts) {
        analysis::RaceChecker checker(serial.numel());
        Tensor output(convChainShapeO(cfg));
        runFusedConvChain(cfg, plan, engine, input, w1, w2, output,
                          ExecOptions{threads, nullptr, &checker});
        EXPECT_FALSE(checker.hasConflicts())
            << "threads " << threads << "\n" << checker.report();
        EXPECT_TRUE(bitwiseEqual(output, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, ChunkedRunMatchesPlanWithoutChunking)
{
    // Chunking is purely a dispatch regrouping: stripping the grain
    // and thread count from the plan must not change a single bit.
    GemmChainConfig cfg;
    cfg.batch = 3;
    cfg.m = 48;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const plan::ExecutionPlan chunked =
        threadAwarePlanFor(chain, 16.0 * 1024, 8);
    plan::ExecutionPlan flat = chunked;
    flat.plannedThreads = 1;
    flat.parallelGrain.clear();
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChainShapeA(cfg));
    Tensor b(gemmChainShapeB(cfg));
    Tensor d(gemmChainShapeD(cfg));
    Rng rng(9);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);

    Tensor eChunked(gemmChainShapeE(cfg));
    Tensor eFlat(gemmChainShapeE(cfg));
    runFusedGemmChain(cfg, chunked, engine, a, b, d, eChunked,
                      ExecOptions{2, nullptr});
    runFusedGemmChain(cfg, flat, engine, a, b, d, eFlat,
                      ExecOptions{2, nullptr});
    EXPECT_TRUE(bitwiseEqual(eChunked, eFlat));
}

/** The `exec.chunk` events of a trace-event JSON document, one string each. */
std::vector<std::string>
chunkEvents(const std::string &json)
{
    std::vector<std::string> events;
    for (std::size_t at = json.find("\n {"); at != std::string::npos;) {
        const std::size_t next = json.find("\n {", at + 1);
        std::string event = json.substr(at, next - at);
        if (event.find("\"name\": \"exec.chunk\"") != std::string::npos) {
            events.push_back(std::move(event));
        }
        at = next;
    }
    return events;
}

/** Integer arg @p key of one trace event (-1 when absent). */
std::int64_t
eventArg(const std::string &event, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = event.find(needle);
    return at == std::string::npos
               ? -1
               : std::stoll(event.substr(at + needle.size()));
}

TEST(ParallelExec, FusedRunRecordsOneChunkSpanPerDispatchChunk)
{
    // The `exec.chunk` span is the per-chunk timing record: a fused run
    // records one per dispatch chunk, each chunk id once, each on a
    // worker of the run's pool.
    GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 48;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const plan::ExecutionPlan plan =
        threadAwarePlanFor(chain, 16.0 * 1024, 4);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChainShapeA(cfg));
    Tensor b(gemmChainShapeB(cfg));
    Tensor d(gemmChainShapeD(cfg));
    Rng rng(13);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);
    Tensor e(gemmChainShapeE(cfg));

    // The global recorder is one-way and process-wide, so compare the
    // events before and after each run instead of assuming it is empty.
    obs::TraceRecorder *const recorder = obs::TraceRecorder::enableGlobal();
    for (int threads : {1, 4}) {
        const ExecOptions options{threads};
        const int poolSize = execWorkerCount(execPool(options));
        const std::int64_t chunks =
            RegionWalker(chain, plan, options).chunkCount();
        ASSERT_GE(chunks, 4) << "every worker of the 4-thread run has work";
        std::multiset<std::string> before;
        for (std::string &event : chunkEvents(recorder->toJson())) {
            before.insert(std::move(event));
        }
        runFusedGemmChain(cfg, plan, engine, a, b, d, e, options);

        std::vector<int> seen(static_cast<std::size_t>(chunks), 0);
        std::int64_t recorded = 0;
        for (const std::string &event : chunkEvents(recorder->toJson())) {
            const auto old = before.find(event);
            if (old != before.end()) {
                before.erase(old);
                continue;
            }
            ++recorded;
            const std::int64_t chunk = eventArg(event, "chunk");
            ASSERT_GE(chunk, 0) << event;
            ASSERT_LT(chunk, chunks) << event;
            ++seen[static_cast<std::size_t>(chunk)];
            const std::int64_t worker = eventArg(event, "worker");
            EXPECT_GE(worker, 0) << event;
            EXPECT_LT(worker, poolSize) << event;
        }
        EXPECT_EQ(recorded, chunks) << "threads " << threads;
        for (std::int64_t c = 0; c < chunks; ++c) {
            EXPECT_EQ(seen[static_cast<std::size_t>(c)], 1)
                << "threads " << threads << " chunk " << c;
        }
    }
    EXPECT_EQ(recorder->droppedCount(), 0);
}

TEST(ParallelExec, ExplicitPoolOverrideIsUsed)
{
    // Passing a pool directly (ignoring the thread count) must work and
    // stay bitwise-deterministic.
    Tensor a({2, 33, 21});
    Tensor b({2, 21, 19});
    Rng rng(3);
    fillUniform(a, rng);
    fillUniform(b, rng);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor serial({2, 33, 19});
    runTiledBatchGemm(engine, a, b, serial, GemmTiles{8, 8, 8});

    ThreadPool pool(3);
    ExecOptions options;
    options.pool = &pool;
    Tensor c({2, 33, 19});
    runTiledBatchGemm(engine, a, b, c, GemmTiles{8, 8, 8}, options);
    EXPECT_TRUE(bitwiseEqual(c, serial));
}

TEST(ParallelExec, RaceCheckCleanOnTransformerAttentionChain)
{
    // The shipped transformer workload's own attention chain and plan
    // (scaled down for test time): with the race checker armed, every
    // thread count must claim conflict-free and stay bitwise-identical.
    graph::EncoderConfig enc;
    enc.seqLen = 64;
    enc.heads = 4;
    enc.headDim = 16;
    enc.ffDim = 64;
    const graph::TransformerEncoder encoder(enc, 24.0 * 1024);
    const GemmChainConfig &cfg = encoder.attentionChain();
    const plan::ExecutionPlan &plan = encoder.attentionPlan();
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChainShapeA(cfg));
    Tensor b(gemmChainShapeB(cfg));
    Tensor d(gemmChainShapeD(cfg));
    Rng rng(11);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);

    Tensor serial(gemmChainShapeE(cfg));
    runFusedGemmChain(cfg, plan, engine, a, b, d, serial);
    for (int threads : kThreadCounts) {
        analysis::RaceChecker checker(serial.numel());
        Tensor e(gemmChainShapeE(cfg));
        runFusedGemmChain(cfg, plan, engine, a, b, d, e,
                          ExecOptions{threads, nullptr, &checker});
        EXPECT_FALSE(checker.hasConflicts())
            << "threads " << threads << "\n" << checker.report();
        EXPECT_TRUE(bitwiseEqual(e, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, RaceCheckCleanOnCnnStageChains)
{
    // Every stage chain of the shipped CNN workload (spatially scaled
    // down), fused, race checker armed, at every thread count.
    graph::CnnConfig cnn = graph::squeezeNetLike();
    cnn.height = 20;
    cnn.width = 20;
    const graph::CnnBackbone backbone(cnn, 256.0 * 1024);
    const ComputeEngine engine = ComputeEngine::best();

    for (const ir::ConvChainConfig &cfg : backbone.stageChains()) {
        const ir::Chain chain = ir::makeConvChain(cfg);
        const plan::ExecutionPlan plan = planFor(chain, 256.0 * 1024);

        Tensor input(convChainShapeI(cfg));
        Tensor w1(convChainShapeW1(cfg));
        Tensor w2(convChainShapeW2(cfg));
        Rng rng(23);
        fillUniform(input, rng);
        fillUniform(w1, rng);
        fillUniform(w2, rng);

        Tensor serial(convChainShapeO(cfg));
        runFusedConvChain(cfg, plan, engine, input, w1, w2, serial);
        for (int threads : kThreadCounts) {
            analysis::RaceChecker checker(serial.numel());
            Tensor output(convChainShapeO(cfg));
            runFusedConvChain(cfg, plan, engine, input, w1, w2, output,
                              ExecOptions{threads, nullptr, &checker});
            EXPECT_FALSE(checker.hasConflicts())
                << cfg.name << " threads " << threads << "\n"
                << checker.report();
            EXPECT_TRUE(bitwiseEqual(output, serial))
                << cfg.name << " threads " << threads;
        }
    }
}

TEST(ParallelExec, SeededRaceInGemmPlanDetectedSerially)
{
    // A plan document mis-declaring the contracted axis l as parallel:
    // the executor honors the declared table, and the task-keyed shadow
    // memory must observe the conflicting writers even in a fully
    // serial run (a genuinely racy schedule is never executed
    // multithreaded just to prove it races).
    GemmChainConfig cfg;
    cfg.name = "check-gemm-chain";
    cfg.m = 64;
    cfg.n = 64;
    cfg.k = 64;
    cfg.l = 64;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const plan::ExecutionPlan plan = plan::deserializePlan(
        chain,
        "chimera-plan v2\n"
        "chain: check-gemm-chain\n"
        "order: m,l,k,n\n"
        "tiles: m=16 n=16 k=16 l=16\n"
        "concurrency: m=parallel n=parallel k=reduction l=parallel\n");

    Tensor a(gemmChainShapeA(cfg));
    Tensor b(gemmChainShapeB(cfg));
    Tensor d(gemmChainShapeD(cfg));
    Rng rng(42);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);

    Tensor e(gemmChainShapeE(cfg));
    analysis::RaceChecker checker(e.numel());
    runFusedGemmChain(cfg, plan, ComputeEngine::best(), a, b, d, e,
                      ExecOptions{1, nullptr, &checker});
    EXPECT_TRUE(checker.hasConflicts());
}

TEST(ParallelExec, SeededRaceInConvPlanDetectedSerially)
{
    ir::ConvChainConfig cfg;
    cfg.name = "check-conv-chain";
    cfg.batch = 1;
    cfg.ic = 16;
    cfg.h = 16;
    cfg.w = 16;
    cfg.oc1 = 16;
    cfg.oc2 = 16;
    cfg.k1 = 3;
    cfg.k2 = 3;
    const ir::Chain chain = ir::makeConvChain(cfg);
    // oc1 is contracted by the second convolution; declaring it
    // parallel (with two oc1 blocks) makes distinct tasks accumulate
    // into the same output elements.
    const plan::ExecutionPlan plan = plan::deserializePlan(
        chain,
        "chimera-plan v2\n"
        "chain: check-conv-chain\n"
        "order: oh,ow,oc1,oc2,ic,kh2,kw2,kh1,kw1\n"
        "tiles: oc2=16 oh=16 ow=16 oc1=8 ic=16 kh2=3 kw2=3 kh1=3 "
        "kw1=3\n"
        "concurrency: oc2=parallel oh=parallel ow=parallel oc1=parallel "
        "ic=reduction kh2=reduction kw2=reduction kh1=reduction "
        "kw1=reduction\n");

    Tensor input(convChainShapeI(cfg));
    Tensor w1(convChainShapeW1(cfg));
    Tensor w2(convChainShapeW2(cfg));
    Rng rng(42);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);

    Tensor output(convChainShapeO(cfg));
    analysis::RaceChecker checker(output.numel());
    runFusedConvChain(cfg, plan, ComputeEngine::best(), input, w1, w2,
                      output, ExecOptions{1, nullptr, &checker});
    EXPECT_TRUE(checker.hasConflicts());
}

/** The blessed axes must all be proven Parallel by the analysis. */
void
expectBlessedSubsetOfProven(const ir::Chain &chain,
                            const plan::ExecutionPlan &plan,
                            const std::vector<std::string> &blessed,
                            const std::vector<std::string> &expected)
{
    const analysis::ConcurrencyTable table =
        analysis::analyzeConcurrency(chain, plan.tiles);
    for (const std::string &name : blessed) {
        EXPECT_TRUE(table.isParallel(ir::axisIdByName(chain, name)))
            << chain.name() << " parallelizes unproven axis " << name;
    }
    std::vector<std::string> sortedBlessed = blessed;
    std::vector<std::string> sortedExpected = expected;
    std::sort(sortedBlessed.begin(), sortedBlessed.end());
    std::sort(sortedExpected.begin(), sortedExpected.end());
    EXPECT_EQ(sortedBlessed, sortedExpected) << chain.name();
}

TEST(ParallelExec, ExecutorParallelAxesMatchAnalysisExactly)
{
    // Cross-check per shipped workload: the axes each fused executor
    // distributes are exactly the region-loop axes the dependence
    // analysis classifies Parallel.
    {
        GemmChainConfig cfg;
        cfg.batch = 3;
        cfg.m = 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.epilogue = Epilogue::Softmax;
        cfg.softmaxScale = 0.25f;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        const plan::ExecutionPlan plan = planFor(chain, 16.0 * 1024);
        expectBlessedSubsetOfProven(
            chain, plan, fusedParallelAxes(chain, plan),
            {"b", "m"});
    }
    {
        ir::GemmChain3Config cfg;
        cfg.batch = 2;
        cfg.m = 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.p = 20;
        const ir::Chain chain = ir::makeGemmChain3(cfg);
        const plan::ExecutionPlan plan = planFor(chain, 48.0 * 1024);
        expectBlessedSubsetOfProven(
            chain, plan, fusedParallelAxes(chain, plan),
            {"b", "m"});
    }
    {
        ConvChainConfig cfg;
        cfg.batch = 2;
        cfg.ic = 6;
        cfg.h = 17;
        cfg.w = 17;
        cfg.oc1 = 9;
        cfg.oc2 = 7;
        cfg.k1 = 3;
        cfg.k2 = 3;
        cfg.epilogue = Epilogue::Relu;
        const ir::Chain chain = ir::makeConvChain(cfg);
        const plan::ExecutionPlan plan = planFor(chain, 24.0 * 1024);
        expectBlessedSubsetOfProven(
            chain, plan, fusedParallelAxes(chain, plan),
            {"b", "oh", "ow"});
    }
}

const kernels::MicroKernel &
hostKernel()
{
    return kernels::MicroKernelRegistry::instance().select(detectSimdTier());
}

/** Serial plan at the benches' capacity under the executor constraints. */
plan::ExecutionPlan
constrainedPlanFor(const ir::Chain &chain,
                   const solver::TileConstraints &constraints)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = 768.0 * 1024;
    options.constraints = constraints;
    return plan::planChain(chain, options);
}

/** Region-axis names the walker derives, in plan order. */
std::vector<std::string>
walkerRegionAxes(const ir::Chain &chain, const plan::ExecutionPlan &plan)
{
    std::vector<std::string> names;
    for (const RegionLoop &loop : regionLoops(chain, plan)) {
        names.push_back(
            chain.axes()[static_cast<std::size_t>(loop.axis)].name);
    }
    return names;
}

/**
 * The region-loop list a per-shape executor used to hard-code: the
 * chain axes named in @p hardCoded, in plan order.
 */
std::vector<std::string>
hardCodedRegionAxes(const ir::Chain &chain, const plan::ExecutionPlan &plan,
                    const std::vector<std::string> &hardCoded)
{
    std::vector<std::string> names;
    for (ir::AxisId axis : plan.perm) {
        const std::string &name =
            chain.axes()[static_cast<std::size_t>(axis)].name;
        if (std::find(hardCoded.begin(), hardCoded.end(), name) !=
            hardCoded.end()) {
            names.push_back(name);
        }
    }
    return names;
}

TEST(RegionWalker, RegionAxesMatchTheFormerHardCodedLists)
{
    // The walker reads its region loops off the chain (reorderable axes
    // every operator loops over); they must be exactly the b/m/l,
    // b/m and b/oc1/oh/ow lists the per-shape executors hard-coded.
    for (const ir::GemmChainWorkload &load : ir::tableIvWorkloads()) {
        for (int variant = 0; variant < 3; ++variant) {
            GemmChainConfig cfg = load.config;
            cfg.epilogue = variant == 0 ? Epilogue::None : Epilogue::Softmax;
            cfg.causalMask = variant == 2;
            if (cfg.causalMask && cfg.m != cfg.l) {
                continue;
            }
            const ir::Chain chain = ir::makeGemmChain(cfg);
            const plan::ExecutionPlan plan = constrainedPlanFor(
                chain, cpuChainConstraints(chain, hostKernel()));
            EXPECT_EQ(walkerRegionAxes(chain, plan),
                      hardCodedRegionAxes(chain, plan, {"b", "m", "l"}))
                << cfg.name << " variant " << variant;
        }
    }
    for (Epilogue epi : {Epilogue::Relu, Epilogue::Softmax}) {
        ir::GemmChain3Config cfg;
        cfg.batch = 4;
        cfg.m = 256;
        cfg.n = 64;
        cfg.k = 64;
        cfg.l = 256;
        cfg.p = 64;
        cfg.epilogue = epi;
        const ir::Chain chain = ir::makeGemmChain3(cfg);
        const plan::ExecutionPlan plan = constrainedPlanFor(
            chain, gemmChain3Constraints(chain, hostKernel()));
        EXPECT_EQ(walkerRegionAxes(chain, plan),
                  hardCodedRegionAxes(chain, plan, {"b", "m"}));
    }
    for (const ir::ConvChainWorkload &load : ir::tableVWorkloads()) {
        for (Epilogue epi : {Epilogue::None, Epilogue::Relu}) {
            ConvChainConfig cfg = load.config;
            cfg.epilogue = epi;
            const ir::Chain chain = ir::makeConvChain(cfg);
            const plan::ExecutionPlan plan = constrainedPlanFor(
                chain, cpuChainConstraints(chain, hostKernel()));
            EXPECT_EQ(walkerRegionAxes(chain, plan),
                      hardCodedRegionAxes(chain, plan,
                                          {"b", "oc1", "oh", "ow"}))
                << cfg.name;
        }
    }
}

TEST(RegionWalker, SerialRaceScanOfChain3AndAttentionIsClean)
{
    // The walker derives each region's race claims from the output
    // tensor's access map; the chain3 and attention plans must claim
    // conflict-free at grain 1 and at a chunked grain, and chunking
    // must not change a bit.
    for (Epilogue epi : {Epilogue::Relu, Epilogue::Softmax}) {
        ir::GemmChain3Config cfg;
        cfg.batch = 3;
        cfg.m = 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.p = 20;
        cfg.epilogue = epi;
        cfg.softmaxScale = 0.25f;
        const ir::Chain chain = ir::makeGemmChain3(cfg);
        plan::PlannerOptions options;
        options.memCapacityBytes = 24.0 * 1024;
        options.constraints = gemmChain3Constraints(chain, hostKernel());
        const plan::ExecutionPlan plan = plan::planChain(chain, options);
        plan::ExecutionPlan chunked = plan;
        chunked.parallelGrain.assign(plan.tiles.size(), 2);
        const ExecOptions serialOptions{1};
        ASSERT_LT(RegionWalker(chain, chunked, serialOptions).chunkCount(),
                  RegionWalker(chain, plan, serialOptions).chunkCount());

        Tensor a(gemmChain3ShapeA(cfg));
        Tensor b(gemmChain3ShapeB(cfg));
        Tensor d(gemmChain3ShapeD(cfg));
        Tensor f(gemmChain3ShapeF(cfg));
        Rng rng(17);
        fillUniform(a, rng);
        fillUniform(b, rng);
        fillUniform(d, rng);
        fillUniform(f, rng);

        Tensor reference(gemmChain3ShapeE(cfg));
        for (const plan::ExecutionPlan *p :
             {&plan, static_cast<const plan::ExecutionPlan *>(&chunked)}) {
            Tensor e(gemmChain3ShapeE(cfg));
            analysis::RaceChecker checker(e.numel());
            runFusedGemmChain3(cfg, *p, ComputeEngine::best(), a, b, d, f,
                               e, ExecOptions{1, nullptr, &checker});
            EXPECT_FALSE(checker.hasConflicts()) << checker.report();
            if (p == &plan) {
                reference = e;
            } else {
                EXPECT_TRUE(bitwiseEqual(e, reference));
            }
        }
    }
}

/**
 * Marks, one at a time, every region axis of @p plan that has at least
 * two blocks and that the table does not mark Parallel as Parallel, and
 * checks that SB04 refutes the mis-declared plan statically and that
 * @p racesSerially (one serial fused run under the race checker)
 * observes its conflicting writers. Returns the number of axes probed.
 */
int
expectMisdeclaredRegionAxesRefuted(
    const ir::Chain &chain, const plan::ExecutionPlan &plan,
    const std::function<bool(const plan::ExecutionPlan &)> &racesSerially)
{
    int probed = 0;
    for (const RegionLoop &loop : regionLoops(chain, plan)) {
        const auto slot = static_cast<std::size_t>(loop.axis);
        if (ceilDiv(loop.extent, loop.tile) < 2 ||
            plan.concurrency[slot] == analysis::AxisConcurrency::Parallel) {
            continue;
        }
        plan::ExecutionPlan racy = plan;
        racy.concurrency[slot] = analysis::AxisConcurrency::Parallel;
        racy.safety = analysis::SafetyCertificate{};
        const analysis::SafetyAnalysis sa = analysis::analyzeSafety(
            chain, racy.perm, racy.tiles, racy.concurrency, 1, {},
            analysis::ShapeDomain::concrete(chain), {});
        const std::string what =
            chain.name() + " axis " + chain.axisName(loop.axis);
        EXPECT_TRUE(std::any_of(sa.violations.begin(), sa.violations.end(),
                                [](const analysis::SafetyViolation &v) {
                                    return v.rule ==
                                           analysis::SafetyRule::SB04;
                                }))
            << what << ": " << sa.renderViolations();
        EXPECT_TRUE(racesSerially(racy)) << what;
        ++probed;
    }
    return probed;
}

TEST(RegionWalker, EveryMisdeclaredRegionAxisIsRefutedBySB04AndRC01)
{
    // RC01 is SB04's dynamic oracle: on the planned tiles of each chain
    // form, a parallel mark on a serial region axis must be refuted
    // statically *and* produce conflicting writers.
    for (Epilogue epi : {Epilogue::None, Epilogue::Softmax}) {
        GemmChainConfig cfg;
        cfg.name = "oracle-gemm-chain";
        cfg.m = 64;
        cfg.n = 64;
        cfg.k = 64;
        cfg.l = 512;
        cfg.epilogue = epi;
        cfg.softmaxScale = 0.125f;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        plan::PlannerOptions options;
        options.memCapacityBytes = 64.0 * 1024;
        options.constraints = cpuChainConstraints(chain, hostKernel());
        const plan::ExecutionPlan plan = plan::planChain(chain, options);

        Tensor a(gemmChainShapeA(cfg));
        Tensor b(gemmChainShapeB(cfg));
        Tensor d(gemmChainShapeD(cfg));
        Rng rng(42);
        fillUniform(a, rng);
        fillUniform(b, rng);
        fillUniform(d, rng);
        EXPECT_GE(expectMisdeclaredRegionAxesRefuted(
                      chain, plan,
                      [&](const plan::ExecutionPlan &racy) {
                          Tensor e(gemmChainShapeE(cfg));
                          analysis::RaceChecker checker(e.numel());
                          runFusedGemmChain(
                              cfg, racy, ComputeEngine::best(), a, b, d, e,
                              ExecOptions{1, nullptr, &checker});
                          return checker.hasConflicts();
                      }),
                  1)
            << "no serial region axis with two blocks to probe (l tile "
            << plan.tiles[static_cast<std::size_t>(
                   ir::axisIdByName(chain, "l"))]
            << ")";
    }
    {
        // Attention's region axes are b and m, both proven parallel, so
        // there is nothing to mis-declare: the sweep must find no
        // candidate rather than a false refutation.
        ir::GemmChain3Config cfg;
        cfg.batch = 2;
        cfg.m = 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.p = 20;
        cfg.epilogue = Epilogue::Softmax;
        cfg.softmaxScale = 0.25f;
        const ir::Chain chain = ir::makeGemmChain3(cfg);
        plan::PlannerOptions options;
        options.memCapacityBytes = 24.0 * 1024;
        options.constraints = gemmChain3Constraints(chain, hostKernel());
        const plan::ExecutionPlan plan = plan::planChain(chain, options);
        EXPECT_EQ(expectMisdeclaredRegionAxesRefuted(
                      chain, plan,
                      [](const plan::ExecutionPlan &) { return false; }),
                  0);
    }
    {
        ConvChainConfig cfg;
        cfg.name = "oracle-conv-chain";
        cfg.batch = 1;
        cfg.ic = 16;
        cfg.h = 16;
        cfg.w = 16;
        cfg.oc1 = 128;
        cfg.oc2 = 16;
        cfg.k1 = 3;
        cfg.k2 = 3;
        const ir::Chain chain = ir::makeConvChain(cfg);
        plan::PlannerOptions options;
        options.memCapacityBytes = 64.0 * 1024;
        options.constraints = cpuChainConstraints(chain, hostKernel());
        const plan::ExecutionPlan plan = plan::planChain(chain, options);

        Tensor input(convChainShapeI(cfg));
        Tensor w1(convChainShapeW1(cfg));
        Tensor w2(convChainShapeW2(cfg));
        Rng rng(42);
        fillUniform(input, rng);
        fillUniform(w1, rng);
        fillUniform(w2, rng);
        EXPECT_GE(expectMisdeclaredRegionAxesRefuted(
                      chain, plan,
                      [&](const plan::ExecutionPlan &racy) {
                          Tensor output(convChainShapeO(cfg));
                          analysis::RaceChecker checker(output.numel());
                          runFusedConvChain(
                              cfg, racy, ComputeEngine::best(), input, w1,
                              w2, output, ExecOptions{1, nullptr, &checker});
                          return checker.hasConflicts();
                      }),
                  1)
            << "no serial region axis with two blocks to probe (oc1 tile "
            << plan.tiles[static_cast<std::size_t>(
                   ir::axisIdByName(chain, "oc1"))]
            << ")";
    }
}

} // namespace
} // namespace chimera::exec
