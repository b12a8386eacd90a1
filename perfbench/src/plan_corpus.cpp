/**
 * @file
 * The plan-corpus workload: the compile path with nothing executed.
 * Cold planChain (no cache) over a corpus of every chain the execution
 * workloads run, chain3+ReLU, and seeded random einsum chains, with a
 * serial and a multi-threaded search taking turns. Also the planning
 * probes every traced run makes over the chains of its workload: cold
 * plans, a PlanCache in the run directory written (stores), read from
 * memory (memory hits) and read from disk through a fresh PlanCache on
 * the same directory (disk hits), and the analysis, verify and plan_io
 * calls on the way. Every plan is checked against the cold plan of its
 * chain, and each disk-hit plan is also verified.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/dependence.hpp"
#include "bench.hpp"
#include "exec/constraints.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "ir/dsl.hpp"
#include "ir/workloads.hpp"
#include "plan/plan_cache.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "stats.hpp"
#include "support/rng.hpp"
#include "verify/plan_verifier.hpp"

namespace perfbench {

using namespace chimera;

namespace {

plan::PlannerOptions
options(const solver::TileConstraints &constraints)
{
    plan::PlannerOptions o;
    o.memCapacityBytes = kCapacityBytes;
    o.constraints = constraints;
    o.threads = 1;
    return o;
}

PlannedChain
cpuEntry(const std::string &family, ir::Chain chain)
{
    const solver::TileConstraints c = exec::cpuChainConstraints(chain, hostKernel());
    return PlannedChain{family, std::move(chain), options(c), {}};
}

PlannedChain
chain3Entry(ir::Epilogue epilogue)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 12;
    cfg.m = 512;
    cfg.l = 512;
    cfg.k = 64;
    cfg.n = 64;
    cfg.p = 64;
    cfg.epilogue = epilogue;
    cfg.softmaxScale = 0.125f;
    ir::Chain chain = ir::makeGemmChain3(cfg);
    const solver::TileConstraints c = exec::gemmChain3Constraints(chain, hostKernel());
    return PlannedChain{epilogue == ir::Epilogue::Softmax ? "attention4" : "chain3",
                        std::move(chain), options(c), {}};
}

/**
 * A random einsum chain of @p length contractions, with or without a
 * batch index, extents drawn from @p rng:
 *   T0[m,a0] = A[m,k] * W0[k,a0]; T1[m,a1] = T0[m,a0] * W1[a0,a1]; ...
 */
PlannedChain
randomEinsumEntry(Rng &rng, int length, bool batch, const std::string &name)
{
    std::map<std::string, std::int64_t> extents;
    const std::string b = batch ? "b," : "";
    if (batch) {
        extents["b"] = 1 + static_cast<std::int64_t>(rng.below(4));
    }
    extents["m"] = 16 * (1 + static_cast<std::int64_t>(rng.below(16)));
    extents["k"] = 16 * (1 + static_cast<std::int64_t>(rng.below(8)));
    std::string source;
    std::string input = "A";
    std::string inner = "k";
    for (int s = 0; s < length; ++s) {
        const std::string index = std::to_string(s);
        const std::string outer = std::string("a").append(index);
        extents[outer] = 16 * (1 + static_cast<std::int64_t>(rng.below(16)));
        const std::string output = s + 1 == length ? "Out" : std::string("T").append(index);
        source += output + "[" + b + "m," + outer + "] = " + input + "[" + b + "m," + inner +
                  "] * W" + index + "[" + b + inner + "," + outer + "];";
        input = output;
        inner = outer;
    }
    ir::Chain chain = ir::parseEinsumChain(source, extents, name);
    const solver::TileConstraints c = plan::alphaConstraints(chain, 16);
    return PlannedChain{"dsl", std::move(chain), options(c), {}};
}

/**
 * The corpus. The structural mix is fixed, so every seed plans the same
 * number of chains of each kind; the seed draws the einsum extents.
 */
std::vector<PlannedChain>
makeCorpus(std::uint64_t seed)
{
    std::vector<PlannedChain> corpus;
    for (const bool softmax : {false, true}) {
        for (const ir::GemmChainWorkload &load : ir::tableIvWorkloads()) {
            ir::GemmChainConfig cfg = load.config;
            cfg.epilogue = softmax ? ir::Epilogue::Softmax : ir::Epilogue::None;
            corpus.push_back(cpuEntry(softmax ? "gemm-softmax" : "gemm", ir::makeGemmChain(cfg)));
        }
    }
    for (const bool relu : {false, true}) {
        for (const ir::ConvChainWorkload &load : ir::tableVWorkloads()) {
            ir::ConvChainConfig cfg = load.config;
            cfg.epilogue = relu ? ir::Epilogue::Relu : ir::Epilogue::None;
            corpus.push_back(cpuEntry("conv", ir::makeConvChain(cfg)));
        }
    }
    corpus.push_back(chain3Entry(ir::Epilogue::Relu));
    corpus.push_back(chain3Entry(ir::Epilogue::Softmax));
    Rng rng(subSeed(seed, 1));
    constexpr int kPerShape = 4;
    for (int length = 2; length <= 4; ++length) {
        for (const bool batch : {false, true}) {
            for (int i = 0; i < kPerShape; ++i) {
                corpus.push_back(randomEinsumEntry(
                    rng, length, batch, "dsl-" + std::to_string(corpus.size())));
            }
        }
    }
    return corpus;
}

bool
samePlan(const plan::ExecutionPlan &a, const plan::ExecutionPlan &b)
{
    return a.perm == b.perm && a.tiles == b.tiles &&
           a.predictedVolumeBytes == b.predictedVolumeBytes;
}

/** Per-call times of repeated passes over a set of chains. */
struct Samples
{
    std::vector<double> all;
    std::vector<std::vector<double>> perChain;
    std::map<std::string, std::vector<double>> byFamily;

    /**
     * One pass at every chain's fastest call. On a shared host the
     * planner's single-threaded speed moves in regimes of seconds as
     * neighbours come and go; the fastest call of each chain tracks the
     * program instead.
     */
    double fastestPass() const
    {
        double total = 0.0;
        for (const std::vector<double> &calls : perChain) {
            total += *std::min_element(calls.begin(), calls.end());
        }
        return total;
    }
};

/**
 * One way of timing a call over the chains: @p call(chain) returns the
 * plan to check against the chain's cold plan, and @p beforePass runs
 * untimed before each pass. Each call gets a span named @p callSpan;
 * pass nullptr for calls of a few microseconds, whose spans would
 * outweigh them, and the pass's span carries the layer instead.
 */
struct Lane
{
    SpanLog *spans;
    const char *passSpan;
    const char *callSpan;
    const char *what; ///< the failure message of a plan that differs
    std::function<void()> beforePass;
    std::function<plan::ExecutionPlan(PlannedChain &)> call;
};

/**
 * Passes over @p chains, the lanes taking turns, until @p budget
 * seconds passed and every lane made at least @p minPasses passes.
 * Returns each lane's calls, in @p unit per second.
 */
std::vector<Samples>
timedPasses(std::vector<PlannedChain> &chains, const std::vector<Lane> &lanes, double budget,
            int minPasses, double unit, Results &results)
{
    std::vector<Samples> samples(lanes.size());
    for (Samples &s : samples) {
        s.perChain.resize(chains.size());
    }
    SpanLog off(false);
    const double deadline = nowSeconds() + budget;
    for (int pass = 0; pass < minPasses || nowSeconds() < deadline; ++pass) {
        for (std::size_t l = 0; l < lanes.size(); ++l) {
            const Lane &lane = lanes[l];
            if (lane.beforePass) {
                lane.beforePass();
            }
            const Span passSpan(*lane.spans, lane.passSpan);
            for (std::size_t i = 0; i < chains.size(); ++i) {
                PlannedChain &entry = chains[i];
                plan::ExecutionPlan planned;
                double seconds = 0.0;
                {
                    const Span span(lane.callSpan != nullptr ? *lane.spans : off, lane.callSpan);
                    const double start = nowSeconds();
                    planned = lane.call(entry);
                    seconds = nowSeconds() - start;
                }
                samples[l].all.push_back(seconds * unit);
                samples[l].perChain[i].push_back(seconds * unit);
                samples[l].byFamily[entry.family].push_back(seconds * unit);
                results.check(samePlan(planned, entry.plan), entry.chain.name(), lane.what);
            }
        }
    }
    return samples;
}

/** Cold planning with @p threads search threads. */
Lane
coldLane(int threads, SpanLog &spans)
{
    return Lane{&spans, "bench.pass", "plan.planChain", "cold plan differs", nullptr,
                [threads](PlannedChain &e) {
                    plan::PlannerOptions o = e.options;
                    o.threads = threads;
                    return plan::planChain(e.chain, o);
                }};
}

/**
 * Median time of @p call over repeated passes, in @p unit per second.
 * @p call returns whether its result was right; that is checked
 * outside the timed region. These calls take microseconds, so one span
 * named @p spanName covers each pass.
 */
template <typename Call>
double
probe(std::vector<PlannedChain> &chains, double budget, double unit, SpanLog &spans,
      const char *spanName, Results &results, Call &&call)
{
    std::vector<double> samples;
    const double deadline = nowSeconds() + budget;
    while (samples.size() < chains.size() || nowSeconds() < deadline) {
        const Span span(spans, spanName);
        for (PlannedChain &entry : chains) {
            const double start = nowSeconds();
            const bool ok = call(entry);
            samples.push_back((nowSeconds() - start) * unit);
            results.check(ok, entry.chain.name(), spanName);
        }
    }
    return median(samples);
}

} // namespace

void
probePlanning(const Context &ctx, std::vector<PlannedChain> &chains, double budget,
              SpanLog &spans, Results &results)
{
    const double b = budget;
    results.set("plan.cold_ms",
                median(timedPasses(chains, {coldLane(1, spans)}, 0.3 * b, 1, 1e3, results)[0].all),
                "ms");

    // One counted pass per tier gives the exact counts: stores (and
    // misses) into a cache in the run directory, memory hits from it,
    // and disk hits through a fresh cache on the same directory, each
    // disk-hit plan checked against its cold plan and verified.
    const std::string cacheDir = ctx.workdir + "/plan-cache";
    std::filesystem::remove_all(cacheDir);
    std::set<std::string> fingerprints;
    std::vector<std::string> docs;
    for (PlannedChain &entry : chains) {
        const std::string fingerprint = plan::planFingerprint(entry.chain, entry.options);
        docs.push_back(plan::serializePlan(entry.chain, entry.plan, fingerprint));
        fingerprints.insert(fingerprint);
    }
    plan::PlanCache cache(cacheDir);
    const auto countedPass = [&](plan::PlanCache &through, const char *what, bool verifyPlans) {
        for (PlannedChain &entry : chains) {
            plan::PlannerOptions o = entry.options;
            o.cache = &through;
            const plan::ExecutionPlan p = plan::planChain(entry.chain, o);
            results.check(samePlan(p, entry.plan), entry.chain.name(), what);
            if (verifyPlans) {
                const verify::Report report =
                    verify::verifyExecutionPlan(entry.chain, p, verify::planVerifyOptions(o));
                if (!results.check(!report.hasErrors(), entry.chain.name(),
                                   "disk-hit plan fails verification")) {
                    std::fprintf(stderr, "%s", report.render().c_str());
                }
            }
        }
        return through.stats();
    };
    const plan::PlanCacheStats afterStores = countedPass(cache, "stored plan differs", false);
    const int memoryHits =
        countedPass(cache, "memory-hit plan differs", false).memoryHits - afterStores.memoryHits;
    plan::PlanCache firstFresh(cacheDir);
    const plan::PlanCacheStats diskPass = countedPass(firstFresh, "disk-hit plan differs", true);
    results.check(diskPass.diskHits == static_cast<int>(fingerprints.size()),
                  "plan.cache.disk_hits", "a disk lookup missed a stored plan");
    results.set("plan.cache.stores", afterStores.stores, "count");
    results.set("plan.cache.misses", afterStores.misses, "count");
    results.set("plan.cache.memory_hits", memoryHits, "count");
    results.set("plan.cache.disk_hits", diskPass.diskHits, "count");
    results.set("plan.cache.rejected", diskPass.rejectedPlans, "count");

    // The timed cache tiers: memory hits from the warm cache, disk hits
    // through a fresh cache per pass.
    std::unique_ptr<plan::PlanCache> fresh;
    const auto through = [](plan::PlanCache *c) {
        return [c](PlannedChain &e) {
            plan::PlannerOptions o = e.options;
            o.cache = c;
            return plan::planChain(e.chain, o);
        };
    };
    results.set("plan.warm_us",
                median(timedPasses(chains,
                                   {Lane{&spans, "plan.cache_memory_hits", nullptr,
                                         "memory-hit plan differs", nullptr, through(&cache)}},
                                   0.1 * b, 1, 1e6, results)[0]
                           .all),
                "us");
    results.set(
        "plan.disk_us",
        median(timedPasses(chains,
                           {Lane{&spans, "plan.cache_disk_hits", nullptr, "disk-hit plan differs",
                                 [&] { fresh = std::make_unique<plan::PlanCache>(cacheDir); },
                                 [&](PlannedChain &e) { return through(fresh.get())(e); }}},
                           0.15 * b, 1, 1e6, results)[0]
                   .all),
        "us");

    // Exact counts: they depend on the seed alone.
    double enumerated = 0, solved = 0, symmetry = 0, dominance = 0, docBytes = 0, flops = 0,
           dvBytes = 0;
    for (std::size_t i = 0; i < chains.size(); ++i) {
        const plan::ExecutionPlan &p = chains[i].plan;
        enumerated += static_cast<double>(p.search.enumerated);
        solved += static_cast<double>(p.search.solved);
        symmetry += static_cast<double>(p.search.symmetryPruned);
        dominance += static_cast<double>(p.search.dominancePruned);
        docBytes += static_cast<double>(docs[i].size());
        flops += chains[i].chain.totalFlops();
        dvBytes += p.predictedVolumeBytes;
    }
    results.set("plan.search.enumerated", enumerated, "count");
    results.set("plan.search.solved", solved, "count");
    results.set("plan.search.symmetry_pruned", symmetry, "count");
    results.set("plan.search.dominance_pruned", dominance, "count");
    results.set("plan.doc_bytes", docBytes, "B");
    results.set("model.flops", flops, "FLOP");
    results.set("model.dv_bytes", dvBytes, "B");
    results.set("model.flop_per_byte", flops / dvBytes, "FLOP/B");

    // The public calls the planner makes on its way.
    results.set("analysis.certify_ms",
                probe(chains, 0.1 * b, 1e3, spans, "analysis.certifyPlan", results,
                      [](PlannedChain &e) {
                          plan::ExecutionPlan p = e.plan;
                          plan::certifyPlan(e.chain, e.options, p);
                          return p.safety.certified;
                      }),
                "ms");
    results.set("analysis.concurrency_ms",
                probe(chains, 0.05 * b, 1e3, spans, "analysis.analyzeConcurrency", results,
                      [](PlannedChain &e) {
                          return analysis::analyzeConcurrency(e.chain, e.plan.tiles).kinds() ==
                                 e.plan.concurrency;
                      }),
                "ms");
    results.set("verify.plan_ms",
                probe(chains, 0.1 * b, 1e3, spans, "verify.verifyExecutionPlan", results,
                      [](PlannedChain &e) {
                          return !verify::verifyExecutionPlan(e.chain, e.plan,
                                                              verify::planVerifyOptions(e.options))
                                      .hasErrors();
                      }),
                "ms");
    const auto docOf = [&](const PlannedChain &e) -> const std::string & {
        return docs[static_cast<std::size_t>(&e - chains.data())];
    };
    results.set("plan_io.serialize_us",
                probe(chains, 0.05 * b, 1e6, spans, "plan_io.serializePlan", results,
                      [&](PlannedChain &e) {
                          return plan::serializePlan(e.chain, e.plan,
                                                     plan::planFingerprint(e.chain, e.options)) ==
                                 docOf(e);
                      }),
                "us");
    results.set("plan_io.deserialize_us",
                probe(chains, 0.05 * b, 1e6, spans, "plan_io.deserializePlan", results,
                      [&](PlannedChain &e) {
                          return samePlan(plan::deserializePlan(e.chain, docOf(e)), e.plan);
                      }),
                "us");
}

Results
runPlanCorpus(const Context &ctx, SpanLog &spans)
{
    Results results;
    std::vector<PlannedChain> corpus;
    Setup setup([&] {
        corpus = makeCorpus(ctx.seed);
        for (PlannedChain &entry : corpus) {
            entry.plan = plan::planChain(entry.chain, entry.options);
        }
    });
    setup.run();
    SpanLog untraced(false);

    // Cold planning, the serial and the multi-threaded search taking
    // turns; the multi-threaded search must find the same plan.
    if (!ctx.trace) {
        Lane serial = coldLane(1, untraced);
        serial.beforePass = [&] { setup.runIfDue(); };
        const std::vector<Samples> cold = timedPasses(
            corpus, {serial, coldLane(ctx.workers, untraced)}, ctx.seconds, 5, 1e3, results);
        results.set("setup_s", setup.medianSeconds(), "s");
        results.set("pass_ms", cold[0].fastestPass(), "ms");
        results.set("pass_ms_mt", cold[1].fastestPass(), "ms");
        results.set("rss_mb", peakRssMb(), "MB");
        return results;
    }

    // Traced run: the serial pass untraced and traced gives the tracing
    // overhead.
    const std::vector<Samples> cold = timedPasses(
        corpus, {coldLane(1, untraced), coldLane(1, spans), coldLane(ctx.workers, spans)},
        0.45 * ctx.seconds, 5, 1e3, results);
    for (const auto &[family, samples] : cold[1].byFamily) {
        results.set("plan.cold_ms." + family, median(samples), "ms");
    }
    probeLayers(ctx, corpus, spans, results);
    results.set("scaling_mt", cold[1].fastestPass() / cold[2].fastestPass(), "ratio");
    results.set("trace.overhead_frac", cold[1].fastestPass() / cold[0].fastestPass() - 1.0,
                "ratio");
    reportTrace(spans, results);
    return results;
}

} // namespace perfbench
