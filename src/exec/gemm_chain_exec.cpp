#include "exec/gemm_chain_exec.hpp"

#include <algorithm>
#include <cstring>

#include "exec/region_schedule.hpp"
#include "ir/builders.hpp"
#include "kernels/softmax_row.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "tensor/reference.hpp"

namespace chimera::exec {

using ir::Epilogue;
using ir::GemmChainConfig;

namespace {

void
checkShape(const Tensor &t, const std::vector<std::int64_t> &expected,
           const char *what)
{
    CHIMERA_CHECK(t.shape() == expected,
                  std::string("unexpected shape for ") + what + ": got " +
                      t.shapeString());
}

} // namespace

std::vector<std::int64_t>
gemmChainShapeA(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.m, c.k}
                       : std::vector<std::int64_t>{c.m, c.k};
}

std::vector<std::int64_t>
gemmChainShapeB(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.k, c.l}
                       : std::vector<std::int64_t>{c.k, c.l};
}

std::vector<std::int64_t>
gemmChainShapeD(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.l, c.n}
                       : std::vector<std::int64_t>{c.l, c.n};
}

std::vector<std::int64_t>
gemmChainShapeE(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.m, c.n}
                       : std::vector<std::int64_t>{c.m, c.n};
}

std::vector<std::int64_t>
gemmChainShapeC(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.m, c.l}
                       : std::vector<std::int64_t>{c.m, c.l};
}

void
runFusedGemmChain(const GemmChainConfig &config,
                  const plan::ExecutionPlan &plan,
                  const ComputeEngine &engine, const Tensor &a,
                  const Tensor &b, const Tensor &d, Tensor &e,
                  const ExecOptions &options)
{
    checkShape(a, gemmChainShapeA(config), "A");
    checkShape(b, gemmChainShapeB(config), "B");
    checkShape(d, gemmChainShapeD(config), "D");
    checkShape(e, gemmChainShapeE(config), "E");

    // The walker splits the b/m/l region loops by the plan's concurrency
    // table. Under a sound table b/m are parallel (distinct blocks write
    // disjoint E rows and softmax row sums) while l — which accumulates
    // into E via GEMM2 and into rowSum — stays serial ascending inside
    // each task, so the per-element accumulation order and the output
    // bits match the serial executor at every thread count.
    const ir::Chain chain = ir::makeGemmChain(config);
    const RegionWalker walker(chain, plan, options);
    const ir::AxisId bAx =
        config.batch > 1 ? ir::axisIdByName(chain, "b") : -1;
    const ir::AxisId mAx = ir::axisIdByName(chain, "m");
    const ir::AxisId lAx = ir::axisIdByName(chain, "l");
    const std::int64_t tn = walker.tile(ir::axisIdByName(chain, "n"));
    const std::int64_t tk = walker.tile(ir::axisIdByName(chain, "k"));

    const std::int64_t bigM = config.m;
    const std::int64_t bigN = config.n;
    const std::int64_t bigK = config.k;
    const std::int64_t bigL = config.l;

    // The softmax row-sum side buffer is shared: blocks write disjoint
    // rows.
    std::vector<float> rowSum;
    if (config.epilogue == Epilogue::Softmax) {
        rowSum.assign(static_cast<std::size_t>(config.batch * bigM), 0.0f);
    }
    e.zero();

    const std::int64_t perBatchA = bigM * bigK;
    const std::int64_t perBatchB = bigK * bigL;
    const std::int64_t perBatchD = bigL * bigN;
    const std::int64_t perBatchE = bigM * bigN;

    // Scratch: the on-chip region buffer for C.
    const auto cFloats = static_cast<std::size_t>(
        walker.tile(bAx) * walker.tile(mAx) * walker.tile(lAx));
    walker.run("exec.gemm_chain", {cFloats}, [&](const Region &region) {
        float *cBase = region.scratch(0);
        const BlockRange bBlk = region.block(bAx);
        const BlockRange mBlk = region.block(mAx);
        const BlockRange lBlk = region.block(lAx);
        const std::int64_t b0 = bBlk.start, bb = bBlk.size;
        const std::int64_t m0 = mBlk.start, mm = mBlk.size;
        const std::int64_t l0 = lBlk.start, ll = lBlk.size;

        std::memset(cBase, 0,
                    static_cast<std::size_t>(bb * mm * ll) * sizeof(float));

        // GEMM1: accumulate all k blocks into the region.
        for (std::int64_t k0 = 0; k0 < bigK; k0 += tk) {
            const std::int64_t kk = std::min<std::int64_t>(tk, bigK - k0);
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                const float *aBlk =
                    a.data() + (b0 + bi) * perBatchA + m0 * bigK + k0;
                const float *bBlk =
                    b.data() + (b0 + bi) * perBatchB + k0 * bigL + l0;
                engine.matmul(aBlk, bigK, bBlk, bigL, cBase + bi * mm * ll,
                              ll, mm, ll, kk);
            }
        }

        // Fused epilogue on the on-chip region.
        if (config.epilogue == Epilogue::Relu) {
            for (std::int64_t i = 0; i < bb * mm * ll; ++i) {
                cBase[i] = std::max(cBase[i], 0.0f);
            }
        } else if (config.epilogue == Epilogue::Softmax) {
            // exp now; sum rides along; division deferred (§VI-B).
            // Causal masking zeroes future positions (global column
            // l0+j beyond global row m0+r) on chip, so the deferred
            // normalization stays exact.
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                for (std::int64_t r = 0; r < mm; ++r) {
                    const std::int64_t valid =
                        config.causalMask ? (m0 + r) - l0 + 1 : ll;
                    rowSum[static_cast<std::size_t>(
                        (b0 + bi) * bigM + m0 + r)] +=
                        kernels::expScaleSumRow(cBase + (bi * mm + r) * ll,
                                                ll, valid,
                                                config.softmaxScale);
                }
            }
        }

        // GEMM2: consume the region across all n blocks.
        for (std::int64_t n0 = 0; n0 < bigN; n0 += tn) {
            const std::int64_t nn = std::min<std::int64_t>(tn, bigN - n0);
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                const float *dBlk =
                    d.data() + (b0 + bi) * perBatchD + l0 * bigN + n0;
                float *eBlk =
                    e.data() + (b0 + bi) * perBatchE + m0 * bigN + n0;
                engine.matmul(cBase + bi * mm * ll, ll, dBlk, bigN, eBlk,
                              bigN, mm, nn, ll);
            }
        }

        // Deferred softmax division. l is serial ascending inside the
        // task that owns these E rows, so the last l block finishes
        // their GEMM2 accumulation and their row sums; its region's
        // race claim already covers the rows.
        if (config.epilogue == Epilogue::Softmax && l0 + ll == bigL) {
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                for (std::int64_t r = 0; r < mm; ++r) {
                    const std::int64_t row = (b0 + bi) * bigM + m0 + r;
                    const float inv =
                        1.0f / rowSum[static_cast<std::size_t>(row)];
                    float *p = e.data() + row * bigN;
                    for (std::int64_t j = 0; j < bigN; ++j) {
                        p[j] *= inv;
                    }
                }
            }
        }
    });
}

void
runTiledBatchGemm(const ComputeEngine &engine, const Tensor &a,
                  const Tensor &b, Tensor &c, const GemmTiles &tiles,
                  const ExecOptions &options)
{
    const bool batched = a.rank() == 3;
    CHIMERA_CHECK(a.rank() == b.rank() && a.rank() == c.rank() &&
                      (a.rank() == 2 || a.rank() == 3),
                  "tiled GEMM expects rank 2 or 3 tensors");
    const std::int64_t batch = batched ? a.shape()[0] : 1;
    const std::int64_t m = a.shape()[batched ? 1 : 0];
    const std::int64_t k = a.shape()[batched ? 2 : 1];
    const std::int64_t n = b.shape()[batched ? 2 : 1];
    CHIMERA_CHECK(b.shape()[batched ? 1 : 0] == k &&
                      c.shape()[batched ? 1 : 0] == m &&
                      c.shape()[batched ? 2 : 1] == n,
                  "tiled GEMM shape mismatch");

    c.zero();
    analysis::RaceChecker *race = options.raceCheck;
    if (race != nullptr) {
        CHIMERA_CHECK(race->numElements() == c.numel(),
                      "race checker must be sized to the GEMM output");
        race->beginPhase("tiled batch gemm");
    }
    // (batch, m-tile) blocks own disjoint C rows; the k loop accumulates
    // and stays serial ascending inside each block (bitwise-reproducible
    // across thread counts).
    const std::int64_t mTiles = ceilDiv(m, tiles.tm);
    const std::int64_t tasks = batch * mTiles;
    obs::Span execSpan(obs::trace(), "exec.tiled_gemm", "exec");
    execSpan.arg("tasks", tasks);
    dispatchChunks(execPool(options), tasks,
                   [&](std::int64_t task, int) {
        const std::int64_t bi = task / mTiles;
        const std::int64_t m0 = (task % mTiles) * tiles.tm;
        const float *aBase = a.data() + bi * m * k;
        const float *bBase = b.data() + bi * k * n;
        float *cBase = c.data() + bi * m * n;
        const std::int64_t mm = std::min<std::int64_t>(tiles.tm, m - m0);
        if (race != nullptr) {
            race->claimRange(task, bi * m * n + m0 * n,
                             bi * m * n + (m0 + mm) * n);
        }
        for (std::int64_t k0 = 0; k0 < k; k0 += tiles.tk) {
            const std::int64_t kk =
                std::min<std::int64_t>(tiles.tk, k - k0);
            for (std::int64_t n0 = 0; n0 < n; n0 += tiles.tn) {
                const std::int64_t nn =
                    std::min<std::int64_t>(tiles.tn, n - n0);
                engine.matmul(aBase + m0 * k + k0, k,
                              bBase + k0 * n + n0, n,
                              cBase + m0 * n + n0, n, mm, nn, kk);
            }
        }
        return ChunkTasks{};
    });
}

void
runUnfusedGemmChain(const GemmChainConfig &config,
                    const ComputeEngine &engine, const Tensor &a,
                    const Tensor &b, const Tensor &d, Tensor &scratchC,
                    Tensor &e, const GemmTiles &tiles1,
                    const GemmTiles &tiles2, const ExecOptions &options)
{
    checkShape(scratchC, gemmChainShapeC(config), "C scratch");
    // A race checker passed here is sized to the final E output; the
    // first GEMM writes the differently-shaped scratch, so it runs
    // unchecked.
    ExecOptions firstOptions = options;
    firstOptions.raceCheck = nullptr;
    runTiledBatchGemm(engine, a, b, scratchC, tiles1, firstOptions);
    ref::chainEpilogue(scratchC, config.epilogue, config.softmaxScale,
                       config.causalMask);
    runTiledBatchGemm(engine, scratchC, d, e, tiles2, options);
}

void
referenceGemmChain(const GemmChainConfig &config, const Tensor &a,
                   const Tensor &b, const Tensor &d, Tensor &e)
{
    Tensor c(gemmChainShapeC(config));
    if (config.batch > 1) {
        ref::batchGemm(a, b, c);
    } else {
        ref::gemm(a, b, c);
    }
    ref::chainEpilogue(c, config.epilogue, config.softmaxScale,
                       config.causalMask);
    if (config.batch > 1) {
        ref::batchGemm(c, d, e);
    } else {
        ref::gemm(c, d, e);
    }
}

} // namespace chimera::exec
