/**
 * @file
 * Figure 5c/5d reproduction (CPU): convolution chain fusion on the
 * Table V workloads C1-C8, without and with the ReLU intermediate.
 *
 * Baseline mapping as in fig5_cpu_gemm_chains: Relay proxy (scalar
 * kernels, unfused), PyTorch proxy (best kernel, unfused), Chimera
 * (fused planned). `--threads N` (or CHIMERA_THREADS) sets the worker
 * count of all three columns. Outputs are validated against the naive
 * oracle before timing. On this single-core substrate the conv chains are
 * compute-bound, so per the paper's own criterion ("fusion pays only
 * when the second convolution is memory-bound") the Chimera-vs-tuned
 * gap is small; the DRAM-traffic picture is in bench/fig8_memory.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "support/mathutil.hpp"

namespace chimera::bench {
namespace {

void
runFamily(ir::Epilogue epilogue, const char *title,
          const exec::ExecOptions &options)
{
    const exec::ComputeEngine best = exec::ComputeEngine::best();
    const exec::ComputeEngine scalar = exec::ComputeEngine::scalar();

    AsciiTable table({"Chain", "Relay (ms)", "PyTorch (ms)",
                      "Chimera (ms)", "order", "vs Relay", "vs PyTorch"});
    std::vector<double> vsRelay;
    std::vector<double> vsPytorch;
    for (const auto &load : ir::tableVWorkloads()) {
        ir::ConvChainConfig cfg = load.config;
        cfg.epilogue = epilogue;
        const ir::Chain chain = ir::makeConvChain(cfg);
        const plan::ExecutionPlan plan = planCpu(chain);
        ConvChainData data(cfg);

        Tensor expected(exec::convChainShapeO(cfg));
        exec::referenceConvChain(cfg, data.input, data.w1, data.w2,
                                 expected);
        exec::runFusedConvChain(cfg, plan, best, data.input, data.w1,
                                data.w2, data.output, options);
        if (!allClose(data.output, expected, 5e-3f, 5e-3f)) {
            std::printf("VALIDATION FAILED for %s\n", cfg.name.c_str());
            return;
        }

        const exec::ConvTiles tiles{64, 64};
        const double tRelay = bestOfSeconds(
            [&] {
                exec::runUnfusedConvChain(cfg, scalar, data.input, data.w1,
                                          data.w2, data.scratchT,
                                          data.output, tiles, tiles,
                                          options);
            },
            kRepeats);
        const double tPytorch = bestOfSeconds(
            [&] {
                exec::runUnfusedConvChain(cfg, best, data.input, data.w1,
                                          data.w2, data.scratchT,
                                          data.output, tiles, tiles,
                                          options);
            },
            kRepeats);
        const double tChimera = bestOfSeconds(
            [&] {
                exec::runFusedConvChain(cfg, plan, best, data.input,
                                        data.w1, data.w2, data.output,
                                        options);
            },
            kRepeats);

        vsRelay.push_back(tRelay / tChimera);
        vsPytorch.push_back(tPytorch / tChimera);
        table.addRow({cfg.name, AsciiTable::num(tRelay * 1e3, 2),
                      AsciiTable::num(tPytorch * 1e3, 2),
                      AsciiTable::num(tChimera * 1e3, 2),
                      plan::orderString(chain, plan.perm),
                      AsciiTable::num(tRelay / tChimera, 2) + "x",
                      AsciiTable::num(tPytorch / tChimera, 2) + "x"});
    }
    std::printf("--- %s ---\n%s", title, table.render().c_str());
    std::printf("geomean speedup vs Relay proxy: %.2fx, vs PyTorch proxy:"
                " %.2fx\n\n",
                geometricMean(vsRelay), geometricMean(vsPytorch));
}

} // namespace
} // namespace chimera::bench

int
main(int argc, char **argv)
{
    using namespace chimera;
    const exec::ExecOptions options{bench::threadsFromArgs(argc, argv)};
    bench::printHeader(
        "Figure 5c/5d — CPU convolution chain fusion (measured)",
        "AVX-512 fp32 implicit-GEMM convolutions (--threads N or"
        " CHIMERA_THREADS selects the worker count of every column).");
    std::printf("threads: %d\n\n", resolveThreadCount(options.threads));
    bench::runFamily(ir::Epilogue::None, "Figure 5c: conv + conv", options);
    bench::runFamily(ir::Epilogue::Relu, "Figure 5d: conv + ReLU + conv",
                     options);
    return 0;
}
