/**
 * @file
 * The gemm-chains and conv-chains workloads: a closed loop with one
 * caller that sweeps every program of the workload through the fused
 * executors, with plans made in set-up. One pass runs serially, one at
 * ctx.workers workers. Every output is checked: against the reference
 * oracle before timing, and bitwise against that checked output after
 * every timed call. Also the kernels and exec probes every traced run
 * makes: the micro-kernel ceiling, blockMatmul, and the call time of
 * the smallest fused chain.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/compute_engine.hpp"
#include "exec/constraints.hpp"
#include "exec/conv_chain_exec.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "hw/machines.hpp"
#include "ir/workloads.hpp"
#include "kernels/block_matmul.hpp"
#include "plan/planner.hpp"
#include "stats.hpp"
#include "support/aligned.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

using namespace chimera;

namespace {

/** fig5's tolerance against the reference oracle. */
constexpr float kTolerance = 5e-3f;

/** Planner options for @p execThreads workers, searching on one thread. */
plan::PlannerOptions
plannerOptions(const solver::TileConstraints &constraints, int execThreads)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = kCapacityBytes;
    options.constraints = constraints;
    options.threads = 1;
    options.execThreads = execThreads;
    if (execThreads > 1) {
        options.topology = hw::multicoreCpuTopology();
    }
    return options;
}

void
fill(std::uint64_t seed, std::initializer_list<Tensor *> tensors)
{
    Rng rng(seed);
    for (Tensor *t : tensors) {
        fillUniform(*t, rng);
    }
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.bytes())) == 0;
}

/**
 * One program of a workload: a chain, its serial plan and its plan for
 * ctx.workers workers, its inputs, and the unfused comparator.
 */
class Program
{
  public:
    virtual ~Program() = default;
    Program() = default;
    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    /** Fused run into output() under the serial or the multi-worker plan. */
    virtual void runFused(bool parallelPlan, int threads) = 0;
    /** Unfused library-style run (fixed 64-wide tiles) into unfusedOutput(). */
    virtual void runUnfused(int threads) = 0;
    virtual void reference(Tensor &out) const = 0;
    virtual Tensor &output() = 0;
    virtual Tensor &unfusedOutput() = 0;

    std::string name;     ///< e.g. "G3-softmax"
    std::string spanName; ///< "exec.<name>"
    double flops = 0.0;   ///< nominal chain FLOPs
    PlannedChain serial;  ///< the chain and its serial plan

  protected:
    /**
     * Plans @p chain serially and for @p workers workers (the serial
     * plan again when @p workers is 1).
     */
    void makePlans(const std::string &programName, const std::string &programFamily, ir::Chain chain,
              const solver::TileConstraints &constraints, int workers)
    {
        name = programName;
        spanName = "exec." + programName;
        flops = chain.totalFlops();
        const plan::PlannerOptions options = plannerOptions(constraints, 1);
        serial = PlannedChain{programFamily, std::move(chain), options, {}};
        serial.plan = plan::planChain(serial.chain, options);
        parallel_ = workers > 1
                        ? plan::planChain(serial.chain, plannerOptions(constraints, workers))
                        : serial.plan;
    }

    const plan::ExecutionPlan &planFor(bool parallelPlan) const
    {
        return parallelPlan ? parallel_ : serial.plan;
    }

  private:
    plan::ExecutionPlan parallel_;
};

class GemmProgram final : public Program
{
  public:
    GemmProgram(const ir::GemmChainConfig &config, const std::string &programFamily,
                std::uint64_t seed, int workers)
        : cfg_(config), a_(exec::gemmChainShapeA(cfg_)), b_(exec::gemmChainShapeB(cfg_)),
          d_(exec::gemmChainShapeD(cfg_)), e_(exec::gemmChainShapeE(cfg_)),
          c_(exec::gemmChainShapeC(cfg_)), eUnfused_(exec::gemmChainShapeE(cfg_))
    {
        ir::Chain chain = ir::makeGemmChain(cfg_);
        const solver::TileConstraints constraints = exec::cpuChainConstraints(chain, hostKernel());
        makePlans(cfg_.name, programFamily, std::move(chain), constraints, workers);
        fill(seed, {&a_, &b_, &d_});
    }

    void runFused(bool parallelPlan, int threads) override
    {
        exec::runFusedGemmChain(cfg_, planFor(parallelPlan), engine_, a_, b_, d_, e_,
                                exec::ExecOptions{threads});
    }

    void runUnfused(int threads) override
    {
        const exec::GemmTiles tiles{64, 64, 64};
        exec::runUnfusedGemmChain(cfg_, engine_, a_, b_, d_, c_, eUnfused_, tiles, tiles,
                                  exec::ExecOptions{threads});
    }

    void reference(Tensor &out) const override
    {
        out = Tensor(exec::gemmChainShapeE(cfg_));
        exec::referenceGemmChain(cfg_, a_, b_, d_, out);
    }

    Tensor &output() override { return e_; }
    Tensor &unfusedOutput() override { return eUnfused_; }

  private:
    const ir::GemmChainConfig cfg_;
    const exec::ComputeEngine engine_ = exec::ComputeEngine::best();
    Tensor a_, b_, d_, e_, c_, eUnfused_;
};

/** Chain-4 attention: QK^T -> softmax -> .V -> projection. */
class AttentionProgram final : public Program
{
  public:
    AttentionProgram(std::uint64_t seed, int workers)
        : cfg_(config()), a_(exec::gemmChain3ShapeA(cfg_)), b_(exec::gemmChain3ShapeB(cfg_)),
          d_(exec::gemmChain3ShapeD(cfg_)), f_(exec::gemmChain3ShapeF(cfg_)),
          e_(exec::gemmChain3ShapeE(cfg_)), c1_(std::vector<std::int64_t>{cfg_.batch, cfg_.m, cfg_.l}),
          c2_(std::vector<std::int64_t>{cfg_.batch, cfg_.m, cfg_.p}),
          eUnfused_(exec::gemmChain3ShapeE(cfg_))
    {
        ir::Chain chain = ir::makeGemmChain3(cfg_);
        const solver::TileConstraints constraints =
            exec::gemmChain3Constraints(chain, hostKernel());
        makePlans("attention4", "attention4", std::move(chain), constraints, workers);
        fill(seed, {&a_, &b_, &d_, &f_});
    }

    void runFused(bool parallelPlan, int threads) override
    {
        exec::runFusedGemmChain3(cfg_, planFor(parallelPlan), engine_, a_, b_, d_, f_, e_,
                                 exec::ExecOptions{threads});
    }

    void runUnfused(int threads) override
    {
        exec::runUnfusedGemmChain3(cfg_, engine_, a_, b_, d_, f_, c1_, c2_, eUnfused_,
                                   exec::GemmTiles{64, 64, 64}, exec::ExecOptions{threads});
    }

    void reference(Tensor &out) const override
    {
        out = Tensor(exec::gemmChain3ShapeE(cfg_));
        exec::referenceGemmChain3(cfg_, a_, b_, d_, f_, out);
    }

    Tensor &output() override { return e_; }
    Tensor &unfusedOutput() override { return eUnfused_; }

  private:
    static ir::GemmChain3Config config()
    {
        ir::GemmChain3Config cfg;
        cfg.name = "attention4";
        cfg.batch = 12;
        cfg.m = 512;
        cfg.l = 512;
        cfg.k = 64;
        cfg.n = 64;
        cfg.p = 64;
        cfg.epilogue = ir::Epilogue::Softmax;
        cfg.softmaxScale = 0.125f;
        return cfg;
    }

    const ir::GemmChain3Config cfg_;
    const exec::ComputeEngine engine_ = exec::ComputeEngine::best();
    Tensor a_, b_, d_, f_, e_, c1_, c2_, eUnfused_;
};

class ConvProgram final : public Program
{
  public:
    ConvProgram(const ir::ConvChainConfig &config, const std::string &programFamily,
                std::uint64_t seed, int workers)
        : cfg_(config), input_(exec::convChainShapeI(cfg_)), w1_(exec::convChainShapeW1(cfg_)),
          w2_(exec::convChainShapeW2(cfg_)), out_(exec::convChainShapeO(cfg_)),
          t_(exec::convChainShapeT(cfg_)), outUnfused_(exec::convChainShapeO(cfg_))
    {
        ir::Chain chain = ir::makeConvChain(cfg_);
        const solver::TileConstraints constraints = exec::cpuChainConstraints(chain, hostKernel());
        makePlans(cfg_.name, programFamily, std::move(chain), constraints, workers);
        fill(seed, {&input_, &w1_, &w2_});
    }

    void runFused(bool parallelPlan, int threads) override
    {
        exec::runFusedConvChain(cfg_, planFor(parallelPlan), engine_, input_, w1_, w2_, out_,
                                exec::ExecOptions{threads});
    }

    void runUnfused(int threads) override
    {
        const exec::ConvTiles tiles{64, 64};
        exec::runUnfusedConvChain(cfg_, engine_, input_, w1_, w2_, t_, outUnfused_, tiles, tiles,
                                  exec::ExecOptions{threads});
    }

    void reference(Tensor &out) const override
    {
        out = Tensor(exec::convChainShapeO(cfg_));
        exec::referenceConvChain(cfg_, input_, w1_, w2_, out);
    }

    Tensor &output() override { return out_; }
    Tensor &unfusedOutput() override { return outUnfused_; }

  private:
    const ir::ConvChainConfig cfg_;
    const exec::ComputeEngine engine_ = exec::ComputeEngine::best();
    Tensor input_, w1_, w2_, out_, t_, outUnfused_;
};

using Programs = std::vector<std::unique_ptr<Program>>;

Programs
gemmPrograms(std::uint64_t seed, int workers)
{
    Programs programs;
    std::uint64_t stream = 0;
    for (const bool softmax : {false, true}) {
        for (const ir::GemmChainWorkload &load : ir::tableIvWorkloads()) {
            ir::GemmChainConfig cfg = load.config;
            cfg.epilogue = softmax ? ir::Epilogue::Softmax : ir::Epilogue::None;
            if (softmax) {
                cfg.name += "-softmax";
            }
            programs.push_back(std::make_unique<GemmProgram>(
                cfg, softmax ? "gemm-softmax" : "gemm", subSeed(seed, ++stream), workers));
        }
    }
    programs.push_back(std::make_unique<AttentionProgram>(subSeed(seed, ++stream), workers));
    return programs;
}

Programs
convPrograms(std::uint64_t seed, int workers)
{
    Programs programs;
    std::uint64_t stream = 0;
    for (const bool relu : {false, true}) {
        for (const ir::ConvChainWorkload &load : ir::tableVWorkloads()) {
            ir::ConvChainConfig cfg = load.config;
            cfg.epilogue = relu ? ir::Epilogue::Relu : ir::Epilogue::None;
            if (relu) {
                cfg.name += "-relu";
            }
            programs.push_back(std::make_unique<ConvProgram>(
                cfg, relu ? "conv-relu" : "conv", subSeed(seed, ++stream), workers));
        }
    }
    return programs;
}

/** The smallest GEMM chain: its call time floors per-call overhead. */
std::unique_ptr<Program>
tinyProgram(std::uint64_t seed)
{
    ir::GemmChainConfig cfg;
    cfg.name = "gemm-tiny";
    cfg.m = 16;
    cfg.n = 16;
    cfg.k = 16;
    cfg.l = 16;
    return std::make_unique<GemmProgram>(cfg, "gemm", seed, 1);
}

/** Outputs every timed call must reproduce bit for bit. */
struct Goldens
{
    std::vector<Tensor> serial;   ///< serial plan, one worker
    std::vector<Tensor> parallel; ///< multi-worker plan, one worker
    std::vector<Tensor> unfused;  ///< unfused comparator, one worker
};

/**
 * The correctness gate run before timing: each fused output matches
 * the reference within fig5's tolerance, and the multi-worker run of
 * the multi-worker plan matches its serial run bitwise.
 */
Goldens
checkPrograms(Programs &programs, const Context &ctx, Results &results, bool checkUnfused)
{
    std::vector<Tensor> references(programs.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        jobs.emplace_back([&, i] { programs[i]->reference(references[i]); });
    }
    runConcurrently(jobs, ctx.workers);

    Goldens goldens;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        Program &p = *programs[i];
        p.runFused(false, 1);
        results.check(allClose(p.output(), references[i], kTolerance, kTolerance),
                      p.name, "fused output (serial plan) differs from the reference");
        goldens.serial.push_back(p.output());
        p.runFused(true, 1);
        results.check(allClose(p.output(), references[i], kTolerance, kTolerance),
                      p.name, "fused output (multi-worker plan) differs from the reference");
        goldens.parallel.push_back(p.output());
        p.runFused(true, ctx.workers);
        results.check(bitwiseEqual(p.output(), goldens.parallel.back()),
                      p.name, "multi-worker run differs bitwise from the serial run");
        if (checkUnfused) {
            p.runUnfused(1);
            results.check(allClose(p.unfusedOutput(), references[i], kTolerance, kTolerance),
                          p.name, "unfused comparator differs from the reference");
            goldens.unfused.push_back(p.unfusedOutput());
        }
    }
    return goldens;
}

/**
 * Per-call seconds of one pass, summarized by each program's fastest
 * call. On a shared host the speed of a call moves with the
 * neighbours: serial calls run in fast and slow regimes of seconds,
 * and a parallel call waits for its slowest worker whenever a vCPU is
 * preempted. The fastest call of each program tracks the program
 * instead (five runs each on a shared 4-vCPU VM: spread of the median
 * sweep 0.09 serial and 0.27 parallel, of the summed fastest calls 0.04
 * for both).
 */
struct Pass
{
    std::vector<std::vector<double>> callSeconds; ///< [program][sweep]

    double fastestCall(std::size_t program) const
    {
        return *std::min_element(callSeconds[program].begin(), callSeconds[program].end());
    }

    /** One sweep at every program's fastest call, seconds. */
    double fastestSweep() const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < callSeconds.size(); ++i) {
            total += fastestCall(i);
        }
        return total;
    }
};

/** One way of running the fused programs, and what it must reproduce. */
struct Lane
{
    const std::vector<Tensor> *goldens;
    bool parallelPlan;
    int threads;
    SpanLog *spans; ///< a disabled log for untraced lanes
};

/**
 * Sweeps every program through the fused executor once per lane, the
 * lanes taking turns, until @p budget seconds have passed (at least
 * kMinSweeps rounds). Taking turns spreads every lane over the whole
 * run, so each meets the same host conditions. A non-null @p setup
 * gets its chance to repeat before each round. The bitwise check after
 * each call is not timed.
 */
std::vector<Pass>
sweep(Programs &programs, const std::vector<Lane> &lanes, double budget, Setup *setup,
      Results &results)
{
    constexpr int kMinSweeps = 5;
    std::vector<Pass> passes(lanes.size());
    for (Pass &pass : passes) {
        pass.callSeconds.resize(programs.size());
    }
    const double deadline = nowSeconds() + budget;
    for (int round = 0; round < kMinSweeps || nowSeconds() < deadline; ++round) {
        if (setup != nullptr) {
            setup->runIfDue();
        }
        for (std::size_t l = 0; l < lanes.size(); ++l) {
            const Lane &lane = lanes[l];
            const Span sweepSpan(*lane.spans, "bench.sweep");
            for (std::size_t i = 0; i < programs.size(); ++i) {
                Program &p = *programs[i];
                double seconds = 0.0;
                {
                    const Span call(*lane.spans, p.spanName.c_str());
                    const double start = nowSeconds();
                    p.runFused(lane.parallelPlan, lane.threads);
                    seconds = nowSeconds() - start;
                }
                passes[l].callSeconds[i].push_back(seconds);
                results.check(bitwiseEqual(p.output(), (*lane.goldens)[i]), p.name,
                              "timed output differs from the checked output");
            }
        }
    }
    return passes;
}

/** Best GFLOP/s of the micro-kernel on resident packed panels: the ceiling. */
double
microKernelGflops(double budget, SpanLog &spans)
{
    const kernels::MicroKernel &kernel = hostKernel();
    constexpr int kc = 256;
    constexpr int kCallsPerBatch = 2000;
    const auto mr = static_cast<std::size_t>(kernel.mr);
    const auto nr = static_cast<std::size_t>(kernel.nr);
    std::vector<float> a(mr * kc, 1e-3f);
    std::vector<float> b(kc * nr, 1e-3f);
    AlignedBuffer<float> aPack = allocateAligned<float>(mr * kc);
    AlignedBuffer<float> bPack = allocateAligned<float>(kc * nr);
    AlignedBuffer<float> c = allocateAligned<float>(mr * nr);
    std::fill(c.get(), c.get() + mr * nr, 0.0f);
    kernels::packAPanel(a.data(), kc, kernel.mr, kc, kernel.mr, aPack.get());
    kernels::packBPanel(b.data(), static_cast<std::int64_t>(nr), kc, kernel.nr, kernel.nr,
                        bPack.get());
    std::vector<double> rates;
    const double deadline = nowSeconds() + budget;
    while (rates.size() < 5 || nowSeconds() < deadline) {
        const Span span(spans, "kernels.micro_kernel");
        const double start = nowSeconds();
        for (int call = 0; call < kCallsPerBatch; ++call) {
            kernel.fn(aPack.get(), bPack.get(), c.get(), kernel.nr, kc);
        }
        const double seconds = nowSeconds() - start;
        rates.push_back(2.0 * static_cast<double>(mr * nr) * kc * kCallsPerBatch / seconds / 1e9);
    }
    return *std::max_element(rates.begin(), rates.end());
}

/** Best GFLOP/s of blockMatmul at m = n = k = 256. */
double
blockMatmulGflops(double budget, std::uint64_t seed, SpanLog &spans)
{
    constexpr std::int64_t n = 256;
    Tensor a({n, n});
    Tensor b({n, n});
    Tensor c({n, n});
    fill(seed, {&a, &b});
    kernels::Workspace workspace;
    std::vector<double> rates;
    const double deadline = nowSeconds() + budget;
    while (rates.size() < 5 || nowSeconds() < deadline) {
        c.zero();
        const Span span(spans, "kernels.block_matmul");
        const double start = nowSeconds();
        kernels::blockMatmul(hostKernel(), a.data(), n, b.data(), n, c.data(), n, n, n, n,
                             workspace);
        rates.push_back(2.0 * n * n * n / (nowSeconds() - start) / 1e9);
    }
    return *std::max_element(rates.begin(), rates.end());
}

/** The unfused comparator's pass at one worker, each output checked. */
Pass
unfusedSweeps(Programs &programs, const Goldens &goldens, double budget, SpanLog &spans,
              Results &results)
{
    Pass pass;
    pass.callSeconds.resize(programs.size());
    const double deadline = nowSeconds() + budget;
    for (int sweeps = 0; sweeps < 3 || nowSeconds() < deadline; ++sweeps) {
        for (std::size_t i = 0; i < programs.size(); ++i) {
            Program &p = *programs[i];
            const double start = nowSeconds();
            {
                const Span span(spans, "baseline.unfused");
                p.runUnfused(1);
            }
            pass.callSeconds[i].push_back(nowSeconds() - start);
            results.check(bitwiseEqual(p.unfusedOutput(), goldens.unfused[i]),
                          p.name, "timed unfused output differs from the checked output");
        }
    }
    return pass;
}

/** Fastest serial call of the smallest chain, microseconds. */
double
dispatchMicros(Program &tiny, double budget, SpanLog &spans, Results &results)
{
    Tensor reference;
    tiny.reference(reference);
    std::vector<double> calls;
    const double deadline = nowSeconds() + budget;
    while (calls.size() < 100 || nowSeconds() < deadline) {
        const Span span(spans, "exec.dispatch");
        const double start = nowSeconds();
        tiny.runFused(false, 1);
        calls.push_back((nowSeconds() - start) * 1e6);
    }
    results.check(allClose(tiny.output(), reference, kTolerance, kTolerance),
                  tiny.name, "fused output differs from the reference");
    return *std::min_element(calls.begin(), calls.end());
}

} // namespace

void
probeKernelAndExec(const Context &ctx, double budget, SpanLog &spans, Results &results)
{
    results.set("kernels.micro_gflops", microKernelGflops(0.35 * budget, spans), "GFLOP/s");
    results.set("kernels.block_matmul_gflops",
                blockMatmulGflops(0.35 * budget, subSeed(ctx.seed, 1000), spans), "GFLOP/s");
    const std::unique_ptr<Program> tiny = tinyProgram(subSeed(ctx.seed, 1001));
    results.set("exec.dispatch_us", dispatchMicros(*tiny, 0.3 * budget, spans, results), "us");
}

namespace {

Results
runFusedWorkload(const Context &ctx, SpanLog &spans, bool conv)
{
    Results results;
    Programs programs;
    // Every set-up makes the same inputs and plans, so the goldens of
    // the first hold for the programs of the later ones.
    Setup setup([&] {
        programs.clear(); // free the last set-up's tensors before the next
        programs = conv ? convPrograms(ctx.seed, ctx.workers) : gemmPrograms(ctx.seed, ctx.workers);
    });
    setup.run();
    const Goldens goldens = checkPrograms(programs, ctx, results, ctx.trace);
    SpanLog untraced(false);

    if (!ctx.trace) {
        const std::vector<Pass> passes =
            sweep(programs,
                  {Lane{&goldens.serial, false, 1, &untraced},
                   Lane{&goldens.parallel, true, ctx.workers, &untraced}},
                  ctx.seconds, &setup, results);
        results.set("setup_s", setup.medianSeconds(), "s");
        results.set("pass_ms", passes[0].fastestSweep() * 1e3, "ms");
        results.set("pass_ms_mt", passes[1].fastestSweep() * 1e3, "ms");
        results.set("rss_mb", peakRssMb(), "MB");
        return results;
    }

    // Traced run: the same serial pass untraced and traced gives the
    // tracing overhead; the layer numbers come from the traced passes
    // and the probes, each call wrapped in a span.
    const std::vector<Pass> passes =
        sweep(programs,
              {Lane{&goldens.serial, false, 1, &untraced}, Lane{&goldens.serial, false, 1, &spans},
               Lane{&goldens.parallel, true, ctx.workers, &spans}},
              0.45 * ctx.seconds, nullptr, results);
    const Pass &plain = passes[0];
    const Pass &serial = passes[1];
    const Pass &multi = passes[2];
    const double unfusedSeconds =
        unfusedSweeps(programs, goldens, 0.1 * ctx.seconds, spans, results).fastestSweep();
    std::vector<PlannedChain> chains;
    for (const auto &p : programs) {
        chains.push_back(p->serial);
    }
    probeLayers(ctx, chains, spans, results);

    // Per-program detail, written to the ledger file only.
    const double serialSweep = serial.fastestSweep();
    const double multiSweep = multi.fastestSweep();
    std::map<std::string, double> familyMt;
    std::map<std::string, double> familySerial;
    double flops = 0.0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const Program &p = *programs[i];
        results.set("exec." + p.name + ".ms_1t", serial.fastestCall(i) * 1e3, "ms");
        familyMt[p.serial.family] += multi.fastestCall(i) * 1e3;
        familySerial[p.serial.family] += serial.fastestCall(i) * 1e3;
        flops += p.flops;
    }
    for (const auto &[family, ms] : familyMt) {
        results.set("exec." + family + ".ms_mt", ms, "ms");
    }
    if (!conv) {
        results.set("exec.softmax_epilogue_ms_1t",
                    familySerial["gemm-softmax"] - familySerial["gemm"], "ms");
    }
    results.set("kernels.pct_of_peak_1t",
                100.0 * flops / plain.fastestSweep() / 1e9 /
                    results.metrics().at("kernels.micro_gflops").value,
                "%");
    results.set("baseline.unfused_ms_1t", unfusedSeconds * 1e3, "ms");
    results.set("exec.fusion_speedup_1t", unfusedSeconds / serialSweep, "ratio");

    results.set("scaling_mt", serialSweep / multiSweep, "ratio");
    results.set("trace.overhead_frac", serialSweep / plain.fastestSweep() - 1.0, "ratio");
    reportTrace(spans, results);
    return results;
}

} // namespace

Results
runGemmChains(const Context &ctx, SpanLog &spans)
{
    return runFusedWorkload(ctx, spans, false);
}

Results
runConvChains(const Context &ctx, SpanLog &spans)
{
    return runFusedWorkload(ctx, spans, true);
}

} // namespace perfbench
