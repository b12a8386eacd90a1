#include "exec/conv_chain_exec.hpp"

#include <algorithm>
#include <cstring>

#include "exec/region_schedule.hpp"
#include "kernels/im2col.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "tensor/reference.hpp"

namespace chimera::exec {

using ir::ConvChainConfig;
using ir::Epilogue;

namespace {

/**
 * A row-major [rows x depth] weight matrix packed once per call into
 * the engine's A panels: one set per block of @p blockRows rows (the
 * executor's channel tile), each over the full reduction depth. A
 * matmul over the block at @p row0 and k steps from @p k0 on reads
 * block(row0, k0) in place. Engines without a panel layout get the
 * strided view only, and nothing is packed.
 */
class PackedWeights
{
  public:
    PackedWeights(const ComputeEngine &engine, const float *w,
                  std::int64_t rows, std::int64_t depth,
                  std::int64_t blockRows)
        : w_(w), depth_(depth), blockRows_(blockRows),
          mr_(engine.panelRows())
    {
        if (mr_ == 0) {
            return;
        }
        blockElems_ = roundUp(std::min(blockRows, rows), mr_) * depth;
        panels_ = allocateAligned<float>(static_cast<std::size_t>(
            ceilDiv(rows, blockRows) * blockElems_));
        for (std::int64_t row0 = 0; row0 < rows; row0 += blockRows) {
            kernels::packAPanels(w + row0 * depth, depth,
                                 std::min(blockRows, rows - row0), depth,
                                 mr_, panels_.get() +
                                          row0 / blockRows * blockElems_);
        }
    }

    Operand block(std::int64_t row0, std::int64_t k0) const
    {
        CHIMERA_ASSERT(row0 % blockRows_ == 0, "weight block misaligned");
        Operand op{w_ + row0 * depth_ + k0, depth_, {}};
        if (mr_ != 0) {
            op.panels = {panels_.get() + row0 / blockRows_ * blockElems_,
                         depth_ * mr_, k0};
        }
        return op;
    }

  private:
    const float *w_;
    std::int64_t depth_;
    std::int64_t blockRows_;
    int mr_;
    std::int64_t blockElems_ = 0;
    AlignedBuffer<float> panels_;
};

/** Floats an im2col patch of @p depth x @p cols takes as a B operand. */
std::int64_t
patchElems(const ComputeEngine &engine, std::int64_t depth,
           std::int64_t cols)
{
    const int nr = engine.panelCols();
    return depth * (nr == 0 ? cols : roundUp(cols, nr));
}

/**
 * Gathers an im2col patch (kernels/im2col.hpp) as matmul's B operand:
 * straight into the engine's panels, or as a strided [depth x cols]
 * matrix for engines without a panel layout.
 */
Operand
gatherPatch(const ComputeEngine &engine, const float *src,
            std::int64_t chanStride, std::int64_t h, std::int64_t w,
            std::int64_t chan0, std::int64_t chans, std::int64_t outRow,
            std::int64_t col0, std::int64_t cols, int kernel, int stride,
            int pad, float *dst)
{
    const int nr = engine.panelCols();
    if (nr == 0) {
        kernels::packPatchRow(src, chanStride, h, w, chan0, chans, outRow,
                              col0, cols, kernel, stride, pad, dst);
        return {dst, cols, {}};
    }
    kernels::packPatchPanels(src, chanStride, h, w, chan0, chans, outRow,
                             col0, cols, kernel, stride, pad, nr, dst);
    return {nullptr, 0, {dst, chans * kernel * kernel * nr, 0}};
}

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
convChainShapeI(const ConvChainConfig &c)
{
    return {c.batch, c.ic, c.h, c.w};
}

std::vector<std::int64_t>
convChainShapeW1(const ConvChainConfig &c)
{
    return {c.oc1, c.ic, c.k1, c.k1};
}

std::vector<std::int64_t>
convChainShapeW2(const ConvChainConfig &c)
{
    return {c.oc2, c.oc1, c.k2, c.k2};
}

std::vector<std::int64_t>
convChainShapeT(const ConvChainConfig &c)
{
    return {c.batch, c.oc1, c.oh1(), c.ow1()};
}

std::vector<std::int64_t>
convChainShapeO(const ConvChainConfig &c)
{
    return {c.batch, c.oc2, c.oh2(), c.ow2()};
}

void
runFusedConvChain(const ConvChainConfig &config,
                  const plan::ExecutionPlan &plan,
                  const ComputeEngine &engine, const Tensor &input,
                  const Tensor &w1, const Tensor &w2, Tensor &output,
                  const ExecOptions &options)
{
    checkShape(input, convChainShapeI(config), "I");
    checkShape(w1, convChainShapeW1(config), "W1");
    checkShape(w2, convChainShapeW2(config), "W2");
    checkShape(output, convChainShapeO(config), "O");

    // The walker splits the b/oc1/oh/ow region loops by the plan's
    // concurrency table (kernel axes are not reorderable and never
    // reach the region walk). Under a sound table the b/oh/ow blocks
    // are dependence-free (disjoint output windows) and run in
    // parallel, while the oc1 block loop — the reduction dimension of
    // conv2, every one of whose blocks accumulates into the same output
    // elements — runs serially ascending inside each region, which
    // keeps the per-element accumulation order (and the output bits)
    // identical to the serial executor at every thread count.
    const ir::Chain chain = ir::makeConvChain(config);
    const RegionWalker walker(chain, plan, options);
    const ir::AxisId bAx =
        config.batch > 1 ? ir::axisIdByName(chain, "b") : -1;
    const ir::AxisId ohAx = ir::axisIdByName(chain, "oh");
    const ir::AxisId owAx = ir::axisIdByName(chain, "ow");
    const ir::AxisId oc1Ax = ir::axisIdByName(chain, "oc1");
    const std::int64_t toc2 = walker.tile(ir::axisIdByName(chain, "oc2"));
    const std::int64_t tic = walker.tile(ir::axisIdByName(chain, "ic"));
    const std::int64_t toh = walker.tile(ohAx);
    const std::int64_t tow = walker.tile(owAx);
    const std::int64_t toc1 = walker.tile(oc1Ax);

    const std::int64_t oh1 = config.oh1();
    const std::int64_t ow1 = config.ow1();
    const std::int64_t oh2 = config.oh2();
    const std::int64_t ow2 = config.ow2();
    const int k1 = config.k1;
    const int k2 = config.k2;
    const int st1 = config.stride1;
    const int st2 = config.stride2;
    const int pad1 = config.effectivePad1();
    const int pad2 = config.effectivePad2();

    output.zero();

    const std::int64_t w1Ld = config.ic * k1 * k1;
    const std::int64_t w2Ld = config.oc1 * k2 * k2;
    const std::int64_t inChanStride = config.h * config.w;
    const std::int64_t inBatchStride = config.ic * inChanStride;
    const std::int64_t outChanStride = oh2 * ow2;
    const std::int64_t outBatchStride = config.oc2 * outChanStride;

    // Scratch: the on-chip intermediate region (maximal size over
    // regions) and the im2col patch buffers for conv1 and conv2.
    const std::int64_t midHMax = st2 * (toh - 1) + k2;
    const std::int64_t midWMax = st2 * (tow - 1) + k2;
    // W1 and W2 are packed once per call, per oc1 / oc2 block over the
    // full reduction depth; every matmul below slices them at its k
    // offset, and gathers its im2col patch straight into B panels.
    const PackedWeights w1Panels(engine, w1.data(), config.oc1, w1Ld, toc1);
    const PackedWeights w2Panels(engine, w2.data(), config.oc2, w2Ld, toc2);
    walker.run(
        "exec.conv_chain",
        {static_cast<std::size_t>(walker.tile(bAx) * toc1 * midHMax *
                                  midWMax),
         static_cast<std::size_t>(patchElems(engine, tic * k1 * k1,
                                             midWMax)),
         static_cast<std::size_t>(patchElems(engine, toc1 * k2 * k2,
                                             tow))},
        [&](const Region &region) {
        float *tRegion = region.scratch(0);
        float *patch1 = region.scratch(1);
        float *patch2 = region.scratch(2);
        const BlockRange bBlk = region.block(bAx);
        const BlockRange hBlk = region.block(ohAx);
        const BlockRange wBlk = region.block(owAx);
        const BlockRange cBlk = region.block(oc1Ax);
        const std::int64_t b0 = bBlk.start, bb = bBlk.size;
        const std::int64_t h0 = hBlk.start, hh = hBlk.size;
        const std::int64_t w0 = wBlk.start, ww = wBlk.size;
        const std::int64_t c0 = cBlk.start, cc = cBlk.size;

        // Halo-inflated intermediate slice covered by this region.
        const std::int64_t midH = st2 * (hh - 1) + k2;
        const std::int64_t midW = st2 * (ww - 1) + k2;
        const std::int64_t tRowLo = h0 * st2 - pad2;
        const std::int64_t tColLo = w0 * st2 - pad2;
        const std::int64_t ldRow = midW;
        const std::int64_t ldChan = midH * midW;
        const std::int64_t ldBatch = cc * ldChan;
        std::memset(tRegion, 0,
                    static_cast<std::size_t>(bb * ldBatch) * sizeof(float));

        // conv1: fill the valid part of the region via implicit GEMM.
        for (std::int64_t bi = 0; bi < bb; ++bi) {
            const float *inBase =
                input.data() + (b0 + bi) * inBatchStride;
            for (std::int64_t r = 0; r < midH; ++r) {
                const std::int64_t tRow = tRowLo + r;
                if (tRow < 0 || tRow >= oh1) {
                    continue; // conv2 zero padding stays zero
                }
                const std::int64_t colLoValid = std::max<std::int64_t>(
                    0, -tColLo);
                const std::int64_t colHiValid = std::min<std::int64_t>(
                    midW, ow1 - tColLo);
                if (colHiValid <= colLoValid) {
                    continue;
                }
                const std::int64_t cols = colHiValid - colLoValid;
                float *cBase = tRegion + bi * ldBatch + r * ldRow +
                               colLoValid;
                for (std::int64_t ic0 = 0; ic0 < config.ic; ic0 += tic) {
                    const std::int64_t icc =
                        std::min<std::int64_t>(tic, config.ic - ic0);
                    const Operand patch = gatherPatch(
                        engine, inBase, inChanStride, config.h, config.w,
                        ic0, icc, tRow, tColLo + colLoValid, cols, k1, st1,
                        pad1, patch1);
                    engine.matmul(w1Panels.block(c0, ic0 * k1 * k1), patch,
                                  cBase, ldChan, cc, cols, icc * k1 * k1);
                }
            }
        }

        // Fused epilogue on the on-chip region (relu(0) == 0, so the
        // zero-padded border stays consistent with reference padding).
        if (config.epilogue == Epilogue::Relu) {
            for (std::int64_t i = 0; i < bb * ldBatch; ++i) {
                tRegion[i] = std::max(tRegion[i], 0.0f);
            }
        }

        // conv2: consume the region for every oc2 block.
        for (std::int64_t bi = 0; bi < bb; ++bi) {
            for (std::int64_t rr = 0; rr < hh; ++rr) {
                // Patch over the region buffer: padding is materialized,
                // so pad = 0 and coordinates are region-local.
                const Operand patch =
                    gatherPatch(engine, tRegion + bi * ldBatch, ldChan, midH,
                                midW, 0, cc, rr, 0, ww, k2, st2, 0, patch2);
                for (std::int64_t oc0 = 0; oc0 < config.oc2; oc0 += toc2) {
                    const std::int64_t occ =
                        std::min<std::int64_t>(toc2, config.oc2 - oc0);
                    float *oBase = output.data() +
                                   (b0 + bi) * outBatchStride +
                                   oc0 * outChanStride + (h0 + rr) * ow2 +
                                   w0;
                    engine.matmul(w2Panels.block(oc0, c0 * k2 * k2), patch,
                                  oBase, outChanStride, occ, ww,
                                  cc * k2 * k2);
                }
            }
        }
    });
}

void
runTiledConv2d(const ComputeEngine &engine, const Tensor &input,
               const Tensor &weight, Tensor &output, int stride, int pad,
               const ConvTiles &tiles, const ExecOptions &options)
{
    CHIMERA_CHECK(input.rank() == 4 && weight.rank() == 4 &&
                      output.rank() == 4,
                  "conv2d expects rank-4 tensors");
    const std::int64_t batch = input.shape()[0];
    const std::int64_t ic = input.shape()[1];
    const std::int64_t h = input.shape()[2];
    const std::int64_t w = input.shape()[3];
    const std::int64_t oc = weight.shape()[0];
    const int kernel = static_cast<int>(weight.shape()[2]);
    const std::int64_t oh = ref::convOutDim(h, kernel, stride, pad);
    const std::int64_t ow = ref::convOutDim(w, kernel, stride, pad);
    CHIMERA_CHECK(weight.shape()[1] == ic, "conv channel mismatch");
    checkShape(output, {batch, oc, oh, ow}, "conv output");

    output.zero();
    const std::int64_t wLd = ic * kernel * kernel;

    analysis::RaceChecker *race = options.raceCheck;
    if (race != nullptr) {
        CHIMERA_CHECK(race->numElements() == output.numel(),
                      "race checker must be sized to the conv output");
        race->beginPhase("tiled conv2d");
    }

    // Each (batch, output-row) pair writes a disjoint output row slice;
    // the ic reduction stays serial ascending inside it, so the output
    // is bitwise-identical at every thread count.
    ThreadPool *pool = execPool(options);
    const int workers = execWorkerCount(pool);
    std::vector<AlignedBuffer<float>> patches;
    patches.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        patches.push_back(allocateAligned<float>(static_cast<std::size_t>(
            patchElems(engine, std::min(tiles.tic, ic) * kernel * kernel,
                       ow))));
    }
    const PackedWeights panels(engine, weight.data(), oc, wLd, tiles.toc);

    obs::Span execSpan(obs::trace(), "exec.tiled_conv", "exec");
    execSpan.arg("tasks", batch * oh);
    dispatchChunks(pool, batch * oh,
                   [&](std::int64_t task, int worker) {
        const std::int64_t bi = task / oh;
        const std::int64_t r = task % oh;
        const float *inBase = input.data() + bi * ic * h * w;
        float *outBase = output.data() + bi * oc * oh * ow;
        float *patch = patches[static_cast<std::size_t>(worker)].get();
        if (race != nullptr) {
            for (std::int64_t oc0 = 0; oc0 < oc; ++oc0) {
                const std::int64_t at =
                    bi * oc * oh * ow + oc0 * oh * ow + r * ow;
                race->claimRange(task, at, at + ow);
            }
        }
        for (std::int64_t ic0 = 0; ic0 < ic; ic0 += tiles.tic) {
            const std::int64_t icc =
                std::min<std::int64_t>(tiles.tic, ic - ic0);
            const Operand patchOp =
                gatherPatch(engine, inBase, h * w, h, w, ic0, icc, r, 0, ow,
                            kernel, stride, pad, patch);
            for (std::int64_t oc0 = 0; oc0 < oc; oc0 += tiles.toc) {
                const std::int64_t occ =
                    std::min<std::int64_t>(tiles.toc, oc - oc0);
                engine.matmul(panels.block(oc0, ic0 * kernel * kernel),
                              patchOp, outBase + oc0 * oh * ow + r * ow,
                              oh * ow, occ, ow, icc * kernel * kernel);
            }
        }
        return ChunkTasks{};
    });
}

void
runUnfusedConvChain(const ConvChainConfig &config,
                    const ComputeEngine &engine, const Tensor &input,
                    const Tensor &w1, const Tensor &w2, Tensor &scratchT,
                    Tensor &output, const ConvTiles &tiles1,
                    const ConvTiles &tiles2, const ExecOptions &options)
{
    checkShape(scratchT, convChainShapeT(config), "T scratch");
    // A race checker passed here is sized to the final output; the first
    // conv writes the differently-shaped scratch, so it runs unchecked.
    ExecOptions firstOptions = options;
    firstOptions.raceCheck = nullptr;
    runTiledConv2d(engine, input, w1, scratchT, config.stride1,
                   config.effectivePad1(), tiles1, firstOptions);
    if (config.epilogue == Epilogue::Relu) {
        ref::reluInPlace(scratchT);
    }
    runTiledConv2d(engine, scratchT, w2, output, config.stride2,
                   config.effectivePad2(), tiles2, options);
}

void
referenceConvChain(const ConvChainConfig &config, const Tensor &input,
                   const Tensor &w1, const Tensor &w2, Tensor &output)
{
    Tensor t(convChainShapeT(config));
    ref::conv2d(input, w1, t, config.stride1, config.effectivePad1());
    if (config.epilogue == Epilogue::Relu) {
        ref::reluInPlace(t);
    }
    ref::conv2d(t, w2, output, config.stride2, config.effectivePad2());
}

} // namespace chimera::exec
