#include "ir/builders.hpp"

#include "support/error.hpp"
#include "tensor/reference.hpp"

namespace chimera::ir {

namespace {

/** Access dimension with a single unit-coefficient axis term. */
AccessDim
axisDim(AxisId axis)
{
    return AccessDim{{AccessTerm{axis, 1}}};
}

/** Access dimension with a constant (axis-free) extent of 1 per tile. */
AccessDim
constDim()
{
    return AccessDim{};
}

} // namespace

std::int64_t
ConvChainConfig::oh1() const
{
    return ref::convOutDim(h, k1, stride1, effectivePad1());
}

std::int64_t
ConvChainConfig::ow1() const
{
    return ref::convOutDim(w, k1, stride1, effectivePad1());
}

std::int64_t
ConvChainConfig::oh2() const
{
    return ref::convOutDim(oh1(), k2, stride2, effectivePad2());
}

std::int64_t
ConvChainConfig::ow2() const
{
    return ref::convOutDim(ow1(), k2, stride2, effectivePad2());
}

Chain
makeGemmChain(const GemmChainConfig &config)
{
    CHIMERA_CHECK(config.batch >= 1 && config.m >= 1 && config.n >= 1 &&
                      config.k >= 1 && config.l >= 1,
                  "GEMM chain extents must be positive");
    CHIMERA_CHECK(!config.causalMask ||
                      (config.epilogue == Epilogue::Softmax &&
                       config.m == config.l),
                  "causal masking requires softmax and square scores");
    Chain chain(config.name);

    const bool hasBatch = config.batch > 1;
    const AxisId b = hasBatch ? chain.addAxis("b", config.batch) : -1;
    const AxisId m = chain.addAxis("m", config.m);
    const AxisId n = chain.addAxis("n", config.n);
    const AxisId k = chain.addAxis("k", config.k);
    const AxisId l = chain.addAxis("l", config.l);

    auto withBatch = [&](std::vector<AccessDim> dims) {
        if (hasBatch) {
            dims.insert(dims.begin(), axisDim(b));
        }
        return dims;
    };

    const int tA = chain.addTensor(TensorDecl{
        "A", TensorKind::Input, withBatch({axisDim(m), axisDim(k)}), 4});
    const int tB = chain.addTensor(TensorDecl{
        "B", TensorKind::Input, withBatch({axisDim(k), axisDim(l)}), 4});
    const int tC = chain.addTensor(
        TensorDecl{"C", TensorKind::Intermediate,
                   withBatch({axisDim(m), axisDim(l)}), 4});
    const int tD = chain.addTensor(TensorDecl{
        "D", TensorKind::Input, withBatch({axisDim(l), axisDim(n)}), 4});
    const int tE = chain.addTensor(TensorDecl{
        "E", TensorKind::Output, withBatch({axisDim(m), axisDim(n)}), 4});

    auto withBatchLoop = [&](std::vector<AxisId> loops) {
        if (hasBatch) {
            loops.insert(loops.begin(), b);
        }
        return loops;
    };

    auto withBatchDims = [&](std::vector<AccessDim> dims) {
        if (hasBatch) {
            dims.insert(dims.begin(), axisDim(b));
        }
        return dims;
    };
    chain.addOp(OpDecl{"gemm1", OpKind::Gemm, withBatchLoop({m, k, l}),
                       {tA, tB, tC}, tC,
                       withBatchDims({axisDim(m), axisDim(k), axisDim(l)})});
    chain.addOp(OpDecl{"gemm2", OpKind::Gemm, withBatchLoop({m, l, n}),
                       {tC, tD, tE}, tE,
                       withBatchDims({axisDim(m), axisDim(l), axisDim(n)})});
    chain.setIntermediateEpilogue(config.epilogue);
    chain.validate();
    return chain;
}

Chain
makeConvChain(const ConvChainConfig &config)
{
    CHIMERA_CHECK(config.batch >= 1 && config.ic >= 1 && config.h >= 1 &&
                      config.w >= 1 && config.oc1 >= 1 && config.oc2 >= 1,
                  "conv chain extents must be positive");
    CHIMERA_CHECK(config.k1 >= 1 && config.k2 >= 1 && config.stride1 >= 1 &&
                      config.stride2 >= 1,
                  "conv chain kernel/stride must be positive");
    CHIMERA_CHECK(config.oh2() >= 1 && config.ow2() >= 1,
                  "conv chain output collapses to zero size");
    Chain chain(config.name);

    const bool hasBatch = config.batch > 1;
    const AxisId bAx = hasBatch ? chain.addAxis("b", config.batch) : -1;
    const AxisId oc2Ax = chain.addAxis("oc2", config.oc2);
    const AxisId ohAx = chain.addAxis("oh", config.oh2());
    const AxisId owAx = chain.addAxis("ow", config.ow2());
    const AxisId oc1Ax = chain.addAxis("oc1", config.oc1);
    const AxisId icAx = chain.addAxis("ic", config.ic);
    const AxisId kh2Ax =
        config.k2 > 1 ? chain.addAxis("kh2", config.k2, false) : -1;
    const AxisId kw2Ax =
        config.k2 > 1 ? chain.addAxis("kw2", config.k2, false) : -1;
    const AxisId kh1Ax =
        config.k1 > 1 ? chain.addAxis("kh1", config.k1, false) : -1;
    const AxisId kw1Ax =
        config.k1 > 1 ? chain.addAxis("kw1", config.k1, false) : -1;

    // Input spatial index: h = (oh*st2 + kh2)*st1 + kh1 (padding shifts
    // only the origin, not the footprint).
    auto inputSpatialDim = [&](AxisId outAx, AxisId kInnerAx,
                               AxisId kOuterAx) {
        AccessDim dim;
        dim.terms.push_back(AccessTerm{
            outAx,
            static_cast<std::int64_t>(config.stride1) * config.stride2});
        if (kOuterAx >= 0) {
            dim.terms.push_back(AccessTerm{kOuterAx, config.stride1});
        }
        if (kInnerAx >= 0) {
            dim.terms.push_back(AccessTerm{kInnerAx, 1});
        }
        return dim;
    };
    // Intermediate spatial index: oh1 = oh*st2 + kh2.
    auto midSpatialDim = [&](AxisId outAx, AxisId kOuterAx) {
        AccessDim dim;
        dim.terms.push_back(
            AccessTerm{outAx, static_cast<std::int64_t>(config.stride2)});
        if (kOuterAx >= 0) {
            dim.terms.push_back(AccessTerm{kOuterAx, 1});
        }
        return dim;
    };
    auto kernelDim = [&](AxisId kAx) {
        return kAx >= 0 ? axisDim(kAx) : constDim();
    };
    auto withBatch = [&](std::vector<AccessDim> dims) {
        if (hasBatch) {
            dims.insert(dims.begin(), axisDim(bAx));
        }
        return dims;
    };

    const int tI = chain.addTensor(TensorDecl{
        "I", TensorKind::Input,
        withBatch({axisDim(icAx), inputSpatialDim(ohAx, kh1Ax, kh2Ax),
                   inputSpatialDim(owAx, kw1Ax, kw2Ax)}),
        4});
    const int tW1 = chain.addTensor(
        TensorDecl{"W1", TensorKind::Input,
                   {axisDim(oc1Ax), axisDim(icAx), kernelDim(kh1Ax),
                    kernelDim(kw1Ax)},
                   4});
    const int tT = chain.addTensor(TensorDecl{
        "T", TensorKind::Intermediate,
        withBatch({axisDim(oc1Ax), midSpatialDim(ohAx, kh2Ax),
                   midSpatialDim(owAx, kw2Ax)}),
        4});
    const int tW2 = chain.addTensor(
        TensorDecl{"W2", TensorKind::Input,
                   {axisDim(oc2Ax), axisDim(oc1Ax), kernelDim(kh2Ax),
                    kernelDim(kw2Ax)},
                   4});
    const int tO = chain.addTensor(
        TensorDecl{"O", TensorKind::Output,
                   withBatch({axisDim(oc2Ax), axisDim(ohAx), axisDim(owAx)}),
                   4});

    auto withBatchLoop = [&](std::vector<AxisId> loops) {
        if (hasBatch) {
            loops.insert(loops.begin(), bAx);
        }
        std::vector<AxisId> filtered;
        for (AxisId a : loops) {
            if (a >= 0) {
                filtered.push_back(a);
            }
        }
        return filtered;
    };

    auto withBatchDims = [&](std::vector<AccessDim> dims) {
        if (hasBatch) {
            dims.insert(dims.begin(), axisDim(bAx));
        }
        return dims;
    };
    // conv1's per-block iteration space covers the halo-inflated region of
    // the intermediate demanded by the consumer block, so effectiveIters
    // accounts for sliding-window re-computation.
    chain.addOp(OpDecl{
        "conv1", OpKind::Conv2d,
        withBatchLoop({oc1Ax, ohAx, owAx, kh2Ax, kw2Ax, icAx, kh1Ax, kw1Ax}),
        {tI, tW1, tT}, tT,
        withBatchDims({axisDim(oc1Ax), midSpatialDim(ohAx, kh2Ax),
                       midSpatialDim(owAx, kw2Ax), axisDim(icAx),
                       kernelDim(kh1Ax), kernelDim(kw1Ax)})});
    chain.addOp(OpDecl{"conv2", OpKind::Conv2d,
                       withBatchLoop({oc2Ax, ohAx, owAx, oc1Ax, kh2Ax,
                                      kw2Ax}),
                       {tT, tW2, tO}, tO,
                       withBatchDims({axisDim(oc2Ax), axisDim(ohAx),
                                      axisDim(owAx), axisDim(oc1Ax),
                                      kernelDim(kh2Ax), kernelDim(kw2Ax)})});
    chain.setIntermediateEpilogue(config.epilogue);
    chain.validate();
    return chain;
}

Chain
makeGemmChain3(const GemmChain3Config &config)
{
    CHIMERA_CHECK(config.batch >= 1 && config.m >= 1 && config.n >= 1 &&
                      config.k >= 1 && config.l >= 1 && config.p >= 1,
                  "GEMM chain-3 extents must be positive");
    Chain chain(config.name);

    const bool hasBatch = config.batch > 1;
    const AxisId b = hasBatch ? chain.addAxis("b", config.batch) : -1;
    const AxisId m = chain.addAxis("m", config.m);
    const AxisId n = chain.addAxis("n", config.n);
    const AxisId k = chain.addAxis("k", config.k);
    const AxisId l = chain.addAxis("l", config.l);
    const AxisId p = chain.addAxis("p", config.p);

    auto withBatch = [&](std::vector<AccessDim> dims) {
        if (hasBatch) {
            dims.insert(dims.begin(), axisDim(b));
        }
        return dims;
    };
    auto withBatchLoop = [&](std::vector<AxisId> loops) {
        if (hasBatch) {
            loops.insert(loops.begin(), b);
        }
        return loops;
    };
    auto withBatchDims = [&](std::vector<AccessDim> dims) {
        if (hasBatch) {
            dims.insert(dims.begin(), axisDim(b));
        }
        return dims;
    };

    const int tA = chain.addTensor(TensorDecl{
        "A", TensorKind::Input, withBatch({axisDim(m), axisDim(k)}), 4});
    const int tB = chain.addTensor(TensorDecl{
        "B", TensorKind::Input, withBatch({axisDim(k), axisDim(l)}), 4});
    const int tC1 = chain.addTensor(
        TensorDecl{"C1", TensorKind::Intermediate,
                   withBatch({axisDim(m), axisDim(l)}), 4});
    const int tD = chain.addTensor(TensorDecl{
        "D", TensorKind::Input, withBatch({axisDim(l), axisDim(p)}), 4});
    const int tC2 = chain.addTensor(
        TensorDecl{"C2", TensorKind::Intermediate,
                   withBatch({axisDim(m), axisDim(p)}), 4});
    const int tF = chain.addTensor(TensorDecl{
        "F", TensorKind::Input, withBatch({axisDim(p), axisDim(n)}), 4});
    const int tE = chain.addTensor(TensorDecl{
        "E", TensorKind::Output, withBatch({axisDim(m), axisDim(n)}), 4});

    chain.addOp(OpDecl{"gemm1", OpKind::Gemm, withBatchLoop({m, k, l}),
                       {tA, tB, tC1}, tC1,
                       withBatchDims({axisDim(m), axisDim(k), axisDim(l)})});
    chain.addOp(OpDecl{"gemm2", OpKind::Gemm, withBatchLoop({m, l, p}),
                       {tC1, tD, tC2}, tC2,
                       withBatchDims({axisDim(m), axisDim(l), axisDim(p)})});
    chain.addOp(OpDecl{"gemm3", OpKind::Gemm, withBatchLoop({m, p, n}),
                       {tC2, tF, tE}, tE,
                       withBatchDims({axisDim(m), axisDim(p), axisDim(n)})});
    chain.setIntermediateEpilogue(config.epilogue);
    chain.validate();
    return chain;
}

Chain
makeSingleGemm(std::int64_t batch, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::string &name)
{
    CHIMERA_CHECK(batch >= 1 && m >= 1 && n >= 1 && k >= 1,
                  "GEMM extents must be positive");
    Chain chain(name);
    const bool hasBatch = batch > 1;
    const AxisId b = hasBatch ? chain.addAxis("b", batch) : -1;
    const AxisId mAx = chain.addAxis("m", m);
    const AxisId nAx = chain.addAxis("n", n);
    const AxisId kAx = chain.addAxis("k", k);

    auto withBatch = [&](std::vector<AccessDim> dims) {
        if (hasBatch) {
            dims.insert(dims.begin(), AccessDim{{AccessTerm{b, 1}}});
        }
        return dims;
    };
    const int tA = chain.addTensor(
        TensorDecl{"A", TensorKind::Input,
                   withBatch({AccessDim{{AccessTerm{mAx, 1}}},
                              AccessDim{{AccessTerm{kAx, 1}}}}),
                   4});
    const int tB = chain.addTensor(
        TensorDecl{"B", TensorKind::Input,
                   withBatch({AccessDim{{AccessTerm{kAx, 1}}},
                              AccessDim{{AccessTerm{nAx, 1}}}}),
                   4});
    const int tC = chain.addTensor(
        TensorDecl{"C", TensorKind::Output,
                   withBatch({AccessDim{{AccessTerm{mAx, 1}}},
                              AccessDim{{AccessTerm{nAx, 1}}}}),
                   4});
    std::vector<AxisId> loops = {mAx, kAx, nAx};
    std::vector<AccessDim> iterDims = {AccessDim{{AccessTerm{mAx, 1}}},
                                       AccessDim{{AccessTerm{kAx, 1}}},
                                       AccessDim{{AccessTerm{nAx, 1}}}};
    if (hasBatch) {
        loops.insert(loops.begin(), b);
        iterDims.insert(iterDims.begin(), AccessDim{{AccessTerm{b, 1}}});
    }
    chain.addOp(
        OpDecl{"gemm", OpKind::Gemm, loops, {tA, tB, tC}, tC, iterDims});
    chain.validate();
    return chain;
}

Chain
makeSingleConv(std::int64_t batch, std::int64_t ic, std::int64_t h,
               std::int64_t w, std::int64_t oc, int kernel, int stride,
               int pad, const std::string &name)
{
    CHIMERA_CHECK(batch >= 1 && ic >= 1 && h >= 1 && w >= 1 && oc >= 1 &&
                      kernel >= 1 && stride >= 1 && pad >= 0,
                  "conv extents must be positive");
    const std::int64_t oh = ref::convOutDim(h, kernel, stride, pad);
    const std::int64_t ow = ref::convOutDim(w, kernel, stride, pad);
    CHIMERA_CHECK(oh >= 1 && ow >= 1, "conv output collapses to zero");

    Chain chain(name);
    const bool hasBatch = batch > 1;
    const AxisId bAx = hasBatch ? chain.addAxis("b", batch) : -1;
    const AxisId ocAx = chain.addAxis("oc", oc);
    const AxisId ohAx = chain.addAxis("oh", oh);
    const AxisId owAx = chain.addAxis("ow", ow);
    const AxisId icAx = chain.addAxis("ic", ic);
    const AxisId khAx = kernel > 1 ? chain.addAxis("kh", kernel, false) : -1;
    const AxisId kwAx = kernel > 1 ? chain.addAxis("kw", kernel, false) : -1;

    auto spatial = [&](AxisId outAx, AxisId kAx) {
        AccessDim dim;
        dim.terms.push_back(
            AccessTerm{outAx, static_cast<std::int64_t>(stride)});
        if (kAx >= 0) {
            dim.terms.push_back(AccessTerm{kAx, 1});
        }
        return dim;
    };
    auto kDim = [&](AxisId kAx) {
        return kAx >= 0 ? axisDim(kAx) : constDim();
    };
    auto withBatch = [&](std::vector<AccessDim> dims) {
        if (hasBatch) {
            dims.insert(dims.begin(), axisDim(bAx));
        }
        return dims;
    };

    const int tI = chain.addTensor(
        TensorDecl{"I", TensorKind::Input,
                   withBatch({axisDim(icAx), spatial(ohAx, khAx),
                              spatial(owAx, kwAx)}),
                   4});
    const int tW = chain.addTensor(
        TensorDecl{"W", TensorKind::Input,
                   {axisDim(ocAx), axisDim(icAx), kDim(khAx), kDim(kwAx)},
                   4});
    const int tO = chain.addTensor(
        TensorDecl{"O", TensorKind::Output,
                   withBatch({axisDim(ocAx), axisDim(ohAx), axisDim(owAx)}),
                   4});

    std::vector<AxisId> loops = {ocAx, ohAx, owAx, icAx};
    std::vector<AccessDim> iterDims = {axisDim(ocAx), axisDim(ohAx),
                                       axisDim(owAx), axisDim(icAx),
                                       kDim(khAx), kDim(kwAx)};
    if (khAx >= 0) {
        loops.push_back(khAx);
        loops.push_back(kwAx);
    }
    if (hasBatch) {
        loops.insert(loops.begin(), bAx);
        iterDims.insert(iterDims.begin(), axisDim(bAx));
    }
    chain.addOp(
        OpDecl{"conv", OpKind::Conv2d, loops, {tI, tW, tO}, tO, iterDims});
    chain.validate();
    return chain;
}

AxisId
axisIdByName(const Chain &chain, const std::string &name)
{
    const AxisId axis = chain.findAxis(name);
    if (axis < 0) {
        throw Error("unknown axis name: " + name);
    }
    return axis;
}

} // namespace chimera::ir
