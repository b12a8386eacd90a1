/**
 * @file
 * google-benchmark microbenchmarks of the building blocks: registered
 * micro kernels, block matmul across shapes, packing routines (A/B
 * panels, the im2col panel gather), the softmax row kernel, the Algorithm-1 evaluation, and full chain
 * planning.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/constraints.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "ir/workloads.hpp"
#include "kernels/block_matmul.hpp"
#include "kernels/im2col.hpp"
#include "kernels/mma_tile.hpp"
#include "kernels/npu_mad.hpp"
#include "kernels/softmax_row.hpp"
#include "model/data_movement.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"

namespace chimera {
namespace {

void
BM_MicroKernel(benchmark::State &state, const std::string &name)
{
    const kernels::MicroKernel &kernel =
        kernels::MicroKernelRegistry::instance().byName(name);
    const int kc = 256;
    std::vector<float> aPack(static_cast<std::size_t>(kc * kernel.mr));
    std::vector<float> bPack(static_cast<std::size_t>(kc * kernel.nr));
    std::vector<float> c(
        static_cast<std::size_t>(kernel.mr * kernel.nr), 0.0f);
    Rng rng(1);
    for (auto &v : aPack) {
        v = rng.uniform(-1.0f, 1.0f);
    }
    for (auto &v : bPack) {
        v = rng.uniform(-1.0f, 1.0f);
    }
    for (auto _ : state) {
        kernel.fn(aPack.data(), bPack.data(), c.data(), kernel.nr, kc);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2LL * kernel.mr *
                            kernel.nr * kc);
}

void
RegisterMicroKernels()
{
    for (const kernels::MicroKernel &kernel :
         kernels::MicroKernelRegistry::instance().kernels()) {
        benchmark::RegisterBenchmark(
            ("BM_MicroKernel/" + kernel.name).c_str(),
            [name = kernel.name](benchmark::State &state) {
                BM_MicroKernel(state, name);
            });
    }
}

/**
 * One full softmax row of @p n scores per iteration through one compiled
 * body, reported as time per element (`time_per_elem`). Each iteration
 * first restores the scores, since the kernel overwrites them.
 */
void
BM_SoftmaxRow(benchmark::State &state, kernels::ExpScaleSumRowFn fn,
              std::int64_t n)
{
    std::vector<float> scores(static_cast<std::size_t>(n));
    Rng rng(5);
    for (float &v : scores) {
        v = rng.uniform(-8.0f, 8.0f);
    }
    std::vector<float> row(scores.size());
    for (auto _ : state) {
        std::copy(scores.begin(), scores.end(), row.begin());
        benchmark::DoNotOptimize(fn(row.data(), n, n, 0.125f));
        benchmark::ClobberMemory();
    }
    state.counters["time_per_elem"] = benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

void
RegisterSoftmaxRows()
{
    for (const kernels::SoftmaxRowKernel &kernel :
         kernels::softmaxRowKernels()) {
        for (const std::int64_t n : {64, 208, 512}) {
            benchmark::RegisterBenchmark(
                ("BM_SoftmaxRow/" + kernel.name + "/" + std::to_string(n))
                    .c_str(),
                [fn = kernel.fn, n](benchmark::State &state) {
                    BM_SoftmaxRow(state, fn, n);
                });
        }
    }
}

void
BM_BlockMatmul(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Tensor a({n, n});
    Tensor b({n, n});
    Tensor c({n, n});
    Rng rng(2);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.zero();
    const kernels::MicroKernel &kernel =
        kernels::MicroKernelRegistry::instance().select(detectSimdTier());
    kernels::Workspace workspace;
    for (auto _ : state) {
        kernels::blockMatmul(kernel, a.data(), n, b.data(), n, c.data(), n,
                             n, n, n, workspace);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_BlockMatmul)->Arg(64)->Arg(128)->Arg(256);

void
BM_PackB(benchmark::State &state)
{
    const std::int64_t kc = 256;
    const int nr = 64;
    std::vector<float> src(static_cast<std::size_t>(kc * 512));
    std::vector<float> dst(static_cast<std::size_t>(kc * nr));
    for (auto _ : state) {
        kernels::packBPanel(src.data(), 512, kc, nr, nr, dst.data());
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(state.iterations() * kc * nr * 4);
}
BENCHMARK(BM_PackB);

/**
 * One A panel of @p mr rows x @p kc steps from a 512-wide row-major
 * source, through the scalar spec or the dispatching packAPanel (the
 * compiled tier's register transpose where it has one).
 */
void
BM_PackAPanel(benchmark::State &state, bool scalar, int mr, std::int64_t kc)
{
    constexpr std::int64_t kLda = 512;
    std::vector<float> src(static_cast<std::size_t>(mr * kLda), 1.0f);
    std::vector<float> dst(static_cast<std::size_t>(kc * mr));
    for (auto _ : state) {
        if (scalar) {
            kernels::scalarPackAPanel(src.data(), kLda, mr, kc, mr,
                                      dst.data());
        } else {
            kernels::packAPanel(src.data(), kLda, mr, kc, mr, dst.data());
        }
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * kc * mr * 4);
}

void
RegisterPackAPanels()
{
    // The register transpose is compiled on AVX2 and wider builds; on a
    // scalar build packAPanel is the spec and is measured once.
    std::vector<std::pair<std::string, bool>> tiers = {{"scalar", true}};
#if defined(__AVX2__)
    tiers.emplace_back("avx2", false);
#endif
    for (const auto &[tier, scalar] : tiers) {
        for (const int mr : {6, 12}) {
            for (const std::int64_t kc : {64, 256}) {
                benchmark::RegisterBenchmark(
                    ("BM_PackAPanel/" + tier + "/mr" + std::to_string(mr) +
                     "/kc" + std::to_string(kc))
                        .c_str(),
                    [scalar = scalar, mr, kc](benchmark::State &state) {
                        BM_PackAPanel(state, scalar, mr, kc);
                    });
            }
        }
    }
}

/**
 * The conv executors' B operand for one output row of a 3x3, pad-1 conv
 * over [64, 56, 56]: the im2col patch gathered straight into the host
 * kernel's panels (gather:1), or gathered strided and then packed panel
 * by panel (gather:0, the two-copy path it replaced).
 */
void
BM_PatchPanels(benchmark::State &state)
{
    const int stride = static_cast<int>(state.range(0));
    const bool gather = state.range(1) != 0;
    constexpr std::int64_t kChans = 64, kH = 56, kW = 56;
    constexpr int kKernel = 3, kPad = 1;
    const int nr = kernels::MicroKernelRegistry::instance()
                       .select(detectSimdTier())
                       .nr;
    const std::int64_t cols = (kW + 2 * kPad - kKernel) / stride + 1;
    const std::int64_t depth = kChans * kKernel * kKernel;
    const std::int64_t panels = (cols + nr - 1) / nr;
    std::vector<float> src(static_cast<std::size_t>(kChans * kH * kW), 1.0f);
    std::vector<float> patch(static_cast<std::size_t>(depth * cols));
    std::vector<float> dst(static_cast<std::size_t>(panels * depth * nr));
    for (auto _ : state) {
        if (gather) {
            kernels::packPatchPanels(src.data(), kH * kW, kH, kW, 0, kChans,
                                     7, 0, cols, kKernel, stride, kPad, nr,
                                     dst.data());
        } else {
            kernels::packPatchRow(src.data(), kH * kW, kH, kW, 0, kChans, 7,
                                  0, cols, kKernel, stride, kPad,
                                  patch.data());
            for (std::int64_t p = 0; p < panels; ++p) {
                kernels::packBPanel(
                    patch.data() + p * nr, cols, depth,
                    static_cast<int>(std::min<std::int64_t>(nr,
                                                            cols - p * nr)),
                    nr, dst.data() + p * depth * nr);
            }
        }
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * depth * cols * 4);
}
BENCHMARK(BM_PatchPanels)
    ->ArgNames({"stride", "gather"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1});

void
BM_Algorithm1(benchmark::State &state)
{
    const ir::Chain chain =
        ir::makeGemmChain(ir::tableIvWorkloads()[1].config);
    const auto perm = plan::permFromOrderString(chain, "b,m,l,k,n");
    auto tiles = chain.fullExtents();
    tiles[1] = 64;
    tiles[4] = 64;
    for (auto _ : state) {
        const auto dm = model::computeDataMovement(chain, perm, tiles);
        benchmark::DoNotOptimize(dm.volumeBytes);
    }
}
BENCHMARK(BM_Algorithm1);

void
BM_PlanGemmChain(benchmark::State &state)
{
    const ir::Chain chain =
        ir::makeGemmChain(ir::tableIvWorkloads()[1].config);
    plan::PlannerOptions options;
    options.memCapacityBytes = 768.0 * 1024;
    options.constraints = exec::cpuChainConstraints(
        chain, kernels::MicroKernelRegistry::instance().select(
                   detectSimdTier()));
    for (auto _ : state) {
        const auto plan = plan::planChain(chain, options);
        benchmark::DoNotOptimize(plan.predictedVolumeBytes);
    }
}
BENCHMARK(BM_PlanGemmChain);

void
BM_NpuMadMatmul(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Tensor a({n, n});
    Tensor b({n, n});
    Tensor c({n, n});
    Rng rng(3);
    fillUniform(a, rng);
    fillUniform(b, rng);
    kernels::MadShape shape;
    shape.m1 = 2;
    shape.n1 = 2;
    shape.k1 = 2;
    shape.m2 = 16;
    shape.n2 = 16;
    shape.k2 = 16;
    for (auto _ : state) {
        kernels::madMatmul(a, b, c, shape);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_NpuMadMatmul)->Arg(64)->Arg(128);

void
BM_MmaTiled(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Tensor a({n, n});
    Tensor b({n, n});
    Tensor c({n, n});
    Rng rng(4);
    fillUniform(a, rng);
    fillUniform(b, rng);
    for (auto _ : state) {
        const kernels::MmaStats stats = kernels::mmaMatmulTiled(a, b, c);
        benchmark::DoNotOptimize(stats.mmaOps);
    }
    state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MmaTiled)->Arg(64)->Arg(128);

} // namespace
} // namespace chimera

int
main(int argc, char **argv)
{
    chimera::RegisterMicroKernels();
    chimera::RegisterSoftmaxRows();
    chimera::RegisterPackAPanels();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
