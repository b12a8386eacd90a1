#include "exec/gemm_chain3_exec.hpp"

#include <algorithm>
#include <cstring>

#include "exec/constraints.hpp"
#include "exec/region_schedule.hpp"
#include "kernels/softmax_row.hpp"
#include "support/error.hpp"
#include "tensor/reference.hpp"

namespace chimera::exec {

using ir::Epilogue;
using ir::GemmChain3Config;

namespace {

std::vector<std::int64_t>
shapeOf(const GemmChain3Config &c, std::int64_t rows, std::int64_t cols)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, rows, cols}
                       : std::vector<std::int64_t>{rows, cols};
}

} // namespace

std::vector<std::int64_t>
gemmChain3ShapeA(const GemmChain3Config &c)
{
    return shapeOf(c, c.m, c.k);
}

std::vector<std::int64_t>
gemmChain3ShapeB(const GemmChain3Config &c)
{
    return shapeOf(c, c.k, c.l);
}

std::vector<std::int64_t>
gemmChain3ShapeD(const GemmChain3Config &c)
{
    return shapeOf(c, c.l, c.p);
}

std::vector<std::int64_t>
gemmChain3ShapeF(const GemmChain3Config &c)
{
    return shapeOf(c, c.p, c.n);
}

std::vector<std::int64_t>
gemmChain3ShapeE(const GemmChain3Config &c)
{
    return shapeOf(c, c.m, c.n);
}

solver::TileConstraints
gemmChain3Constraints(const ir::Chain &chain,
                      const kernels::MicroKernel &kernel)
{
    solver::TileConstraints constraints =
        cpuChainConstraints(chain, kernel);
    const ir::AxisId p = ir::axisIdByName(chain, "p");
    constraints.minTile.erase(p);
    constraints.multipleOf.erase(p);
    constraints.fixed[p] =
        chain.axes()[static_cast<std::size_t>(p)].extent;
    // Softmax (the fused 4-op attention pattern) normalizes C1 rows
    // over l, so the executor keeps a full scores row on chip: the
    // softmax completes on the region before GEMM2 consumes it, with
    // no deferred division or cross-block row sums.
    if (chain.intermediateEpilogue() == Epilogue::Softmax) {
        const ir::AxisId l = ir::axisIdByName(chain, "l");
        constraints.minTile.erase(l);
        constraints.multipleOf.erase(l);
        constraints.fixed[l] =
            chain.axes()[static_cast<std::size_t>(l)].extent;
    }
    return constraints;
}

void
runFusedGemmChain3(const GemmChain3Config &config,
                   const plan::ExecutionPlan &plan,
                   const ComputeEngine &engine, const Tensor &a,
                   const Tensor &b, const Tensor &d, const Tensor &f,
                   Tensor &e, const ExecOptions &options)
{
    CHIMERA_CHECK(a.shape() == gemmChain3ShapeA(config) &&
                      b.shape() == gemmChain3ShapeB(config) &&
                      d.shape() == gemmChain3ShapeD(config) &&
                      f.shape() == gemmChain3ShapeF(config) &&
                      e.shape() == gemmChain3ShapeE(config),
                  "three-GEMM chain tensor shape mismatch");

    // The walker splits the b/m region loops by the plan's concurrency
    // table. Under a sound table every (b, m) region is independent — it
    // owns its C1 tile and C2 panel and writes disjoint E rows — and
    // splits across workers; the l and k reduction loops stay serial
    // ascending inside a region, keeping the output bits identical to
    // the serial executor at every thread count.
    const ir::Chain chain = ir::makeGemmChain3(config);
    const RegionWalker walker(chain, plan, options);
    const ir::AxisId bAx =
        config.batch > 1 ? ir::axisIdByName(chain, "b") : -1;
    const ir::AxisId mAx = ir::axisIdByName(chain, "m");
    const std::int64_t tn = walker.tile(ir::axisIdByName(chain, "n"));
    const std::int64_t tk = walker.tile(ir::axisIdByName(chain, "k"));
    const std::int64_t tl = walker.tile(ir::axisIdByName(chain, "l"));
    CHIMERA_CHECK(walker.tile(ir::axisIdByName(chain, "p")) == config.p,
                  "the fused 3-chain executor requires T_P = P");
    CHIMERA_CHECK(config.epilogue != Epilogue::Softmax || tl == config.l,
                  "the fused attention chain requires T_L = L (full"
                  " scores row on chip for the softmax)");

    const std::int64_t M = config.m, N = config.n, K = config.k,
                       L = config.l, P = config.p;
    e.zero();

    // Scratch: the C1 tile and the C2 panel.
    const std::int64_t rows = walker.tile(bAx) * walker.tile(mAx);
    walker.run("exec.chain3",
               {static_cast<std::size_t>(rows * tl),
                static_cast<std::size_t>(rows * P)},
               [&](const Region &region) {
        float *c1Tile = region.scratch(0);
        float *c2Panel = region.scratch(1);
        const BlockRange bBlk = region.block(bAx);
        const BlockRange mBlk = region.block(mAx);
        const std::int64_t b0 = bBlk.start, bb = bBlk.size;
        const std::int64_t m0 = mBlk.start, mm = mBlk.size;

        std::memset(c2Panel, 0,
                    static_cast<std::size_t>(bb * mm * P) * sizeof(float));
        for (std::int64_t l0 = 0; l0 < L; l0 += tl) {
            const std::int64_t ll = std::min<std::int64_t>(tl, L - l0);
            std::memset(c1Tile, 0,
                        static_cast<std::size_t>(bb * mm * ll) *
                            sizeof(float));
            for (std::int64_t k0 = 0; k0 < K; k0 += tk) {
                const std::int64_t kk = std::min<std::int64_t>(tk, K - k0);
                for (std::int64_t bi = 0; bi < bb; ++bi) {
                    engine.matmul(
                        a.data() + ((b0 + bi) * M + m0) * K + k0, K,
                        b.data() + ((b0 + bi) * K + k0) * L + l0, L,
                        c1Tile + bi * mm * ll, ll, mm, ll, kk);
                }
            }
            if (config.epilogue == Epilogue::Relu) {
                for (std::int64_t i = 0; i < bb * mm * ll; ++i) {
                    c1Tile[i] = std::max(c1Tile[i], 0.0f);
                }
            } else if (config.epilogue == Epilogue::Softmax) {
                // T_L = L (checked above): the whole scores row is on
                // chip, so the softmax completes here — exp, row sum
                // and division — before GEMM2 consumes the region.
                for (std::int64_t bi = 0; bi < bb; ++bi) {
                    for (std::int64_t r = 0; r < mm; ++r) {
                        float *row = c1Tile + (bi * mm + r) * ll;
                        const float inv =
                            1.0f / kernels::expScaleSumRow(
                                       row, ll, ll, config.softmaxScale);
                        for (std::int64_t j = 0; j < ll; ++j) {
                            row[j] *= inv;
                        }
                    }
                }
            }
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                engine.matmul(c1Tile + bi * mm * ll, ll,
                              d.data() + ((b0 + bi) * L + l0) * P, P,
                              c2Panel + bi * mm * P, P, mm, P, ll);
            }
        }
        for (std::int64_t n0 = 0; n0 < N; n0 += tn) {
            const std::int64_t nn = std::min<std::int64_t>(tn, N - n0);
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                engine.matmul(c2Panel + bi * mm * P, P,
                              f.data() + (b0 + bi) * P * N + n0, N,
                              e.data() + ((b0 + bi) * M + m0) * N + n0, N,
                              mm, nn, P);
            }
        }
    });
}

void
runUnfusedGemmChain3(const GemmChain3Config &config,
                     const ComputeEngine &engine, const Tensor &a,
                     const Tensor &b, const Tensor &d, const Tensor &f,
                     Tensor &scratchC1, Tensor &scratchC2, Tensor &e,
                     const GemmTiles &tiles, const ExecOptions &options)
{
    CHIMERA_CHECK(scratchC1.shape() == shapeOf(config, config.m, config.l),
                  "C1 scratch shape mismatch");
    CHIMERA_CHECK(scratchC2.shape() == shapeOf(config, config.m, config.p),
                  "C2 scratch shape mismatch");
    // A race checker passed here is sized to the final E output; the
    // scratch-writing GEMMs run unchecked.
    ExecOptions scratchOptions = options;
    scratchOptions.raceCheck = nullptr;
    runTiledBatchGemm(engine, a, b, scratchC1, tiles, scratchOptions);
    ref::chainEpilogue(scratchC1, config.epilogue, config.softmaxScale,
                       false);
    runTiledBatchGemm(engine, scratchC1, d, scratchC2, tiles,
                      scratchOptions);
    runTiledBatchGemm(engine, scratchC2, f, e, tiles, options);
}

void
referenceGemmChain3(const GemmChain3Config &config, const Tensor &a,
                    const Tensor &b, const Tensor &d, const Tensor &f,
                    Tensor &e)
{
    Tensor c1(shapeOf(config, config.m, config.l));
    Tensor c2(shapeOf(config, config.m, config.p));
    auto mm = [&](const Tensor &x, const Tensor &y, Tensor &z) {
        if (config.batch > 1) {
            ref::batchGemm(x, y, z);
        } else {
            ref::gemm(x, y, z);
        }
    };
    mm(a, b, c1);
    ref::chainEpilogue(c1, config.epilogue, config.softmaxScale, false);
    mm(c1, d, c2);
    mm(c2, f, e);
}

} // namespace chimera::exec
