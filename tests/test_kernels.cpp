/**
 * @file
 * Unit tests for the replaceable micro kernels: registry behaviour,
 * parameter selection (§V-B), packing (A/B panels, the im2col panel
 * gather, packed-operand block matmul), block matmul correctness for
 * every registered implementation, the fused conv executor over packed
 * weights, and the softmax row kernel at every compiled tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "exec/compute_engine.hpp"
#include "exec/conv_chain_exec.hpp"
#include "ir/builders.hpp"
#include "kernels/block_matmul.hpp"
#include "kernels/im2col.hpp"
#include "kernels/kernel_params.hpp"
#include "kernels/micro_kernel.hpp"
#include "kernels/softmax_row.hpp"
#include "plan/planner.hpp"
#include "support/aligned.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tensor/reference.hpp"
#include "tensor/tensor.hpp"

namespace chimera::kernels {
namespace {

TEST(KernelParams, CascadeLakeChoiceMatchesPaper)
{
    // 32 ZMM registers -> (MI, NI, MII) = (6, 4, 2), 30 registers used.
    const CpuKernelParams params = selectCpuKernelParams(32);
    EXPECT_EQ(params.mi, 6);
    EXPECT_EQ(params.ni, 4);
    EXPECT_EQ(params.mii, 2);
    EXPECT_EQ(params.registersUsed, 30);
    EXPECT_NEAR(params.arithmeticIntensity, 2.4, 1e-9);
}

TEST(KernelParams, Avx2Choice)
{
    // 16 YMM registers -> (6, 2, 2): the classic 6x16 fp32 AVX2 tile.
    const CpuKernelParams params = selectCpuKernelParams(16);
    EXPECT_EQ(params.mi, 6);
    EXPECT_EQ(params.ni, 2);
    EXPECT_EQ(params.mii, 2);
    EXPECT_LE(params.registersUsed, 16);
}

TEST(KernelParams, AiFormula)
{
    // AI = MI*NI*KI / (KI*(MI+NI) + 2*MI*NI).
    EXPECT_DOUBLE_EQ(kernelArithmeticIntensity(6, 4, 24),
                     6.0 * 4 * 24 / (24.0 * 10 + 2 * 24));
    EXPECT_THROW(kernelArithmeticIntensity(0, 4, 24), Error);
}

TEST(KernelParams, BudgetAlwaysRespected)
{
    for (int regs : {8, 12, 16, 24, 32, 64}) {
        const CpuKernelParams params = selectCpuKernelParams(regs);
        EXPECT_LE(params.registersUsed, regs) << "regs " << regs;
        EXPECT_EQ(params.mi % params.mii, 0);
        EXPECT_GE(params.mii, 2);
    }
}

TEST(Registry, ScalarAlwaysPresent)
{
    const MicroKernelRegistry &registry = MicroKernelRegistry::instance();
    const MicroKernel &scalar = registry.select(SimdTier::Scalar);
    EXPECT_EQ(scalar.tier, SimdTier::Scalar);
    EXPECT_EQ(scalar.mr, kScalarMr);
    EXPECT_EQ(scalar.nr, kScalarNr);
}

TEST(Registry, SelectPicksWidestAvailable)
{
    const MicroKernelRegistry &registry = MicroKernelRegistry::instance();
    const MicroKernel &best = registry.select(SimdTier::Avx512);
    // On this build host AVX-512 is compiled in.
    for (const MicroKernel &kernel : registry.kernels()) {
        EXPECT_LE(static_cast<int>(kernel.tier),
                  static_cast<int>(best.tier));
    }
}

TEST(Registry, ByNameLookup)
{
    const MicroKernelRegistry &registry = MicroKernelRegistry::instance();
    EXPECT_EQ(registry.byName("scalar_6x16").mr, 6);
    EXPECT_THROW(registry.byName("nope"), Error);
}

TEST(Registry, AddRejectsMalformed)
{
    MicroKernelRegistry registry;
    EXPECT_THROW(registry.add(MicroKernel{"bad", SimdTier::Scalar, 0, 8,
                                          &scalarMicroKernel}),
                 Error);
}

TEST(Packing, APanelTransposesAndPads)
{
    // A is 2 rows x 3 cols; pack into mr=4 panels of kc=3.
    const float a[6] = {1, 2, 3, 4, 5, 6};
    float dst[12];
    packAPanel(a, 3, 2, 3, 4, dst);
    // dst[k*mr + m] = a[m*lda + k]
    EXPECT_FLOAT_EQ(dst[0], 1.0f); // k0 m0
    EXPECT_FLOAT_EQ(dst[1], 4.0f); // k0 m1
    EXPECT_FLOAT_EQ(dst[2], 0.0f); // pad
    EXPECT_FLOAT_EQ(dst[4], 2.0f); // k1 m0
    EXPECT_FLOAT_EQ(dst[5], 5.0f); // k1 m1
    EXPECT_FLOAT_EQ(dst[8], 3.0f); // k2 m0
}

TEST(Packing, BPanelCopiesAndPads)
{
    const float b[6] = {1, 2, 3, 4, 5, 6}; // 2 rows x 3 cols, ldb=3
    float dst[8];
    packBPanel(b, 3, 2, 3, 4, dst);
    EXPECT_FLOAT_EQ(dst[0], 1.0f);
    EXPECT_FLOAT_EQ(dst[2], 3.0f);
    EXPECT_FLOAT_EQ(dst[3], 0.0f); // pad
    EXPECT_FLOAT_EQ(dst[4], 4.0f);
    EXPECT_FLOAT_EQ(dst[7], 0.0f);
}

/** Parameterized over every registered micro kernel. */
class MicroKernelCorrectness
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MicroKernelCorrectness, ExactTileMatchesReference)
{
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().byName(GetParam());
    const int kc = 37;
    Tensor a({kernel.mr, kc});
    Tensor b({kc, kernel.nr});
    Tensor c({kernel.mr, kernel.nr});
    Tensor expected({kernel.mr, kernel.nr});
    Rng rng(99);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(c, rng);
    expected = c;

    // Reference: expected += a * b.
    Tensor prod({kernel.mr, kernel.nr});
    ref::gemm(a, b, prod);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        expected[i] += prod[i];
    }

    std::vector<float> aPack(static_cast<std::size_t>(kc) *
                             static_cast<std::size_t>(kernel.mr));
    std::vector<float> bPack(static_cast<std::size_t>(kc) *
                             static_cast<std::size_t>(kernel.nr));
    packAPanel(a.data(), kc, kernel.mr, kc, kernel.mr, aPack.data());
    packBPanel(b.data(), kernel.nr, kc, kernel.nr, kernel.nr, bPack.data());
    kernel.fn(aPack.data(), bPack.data(), c.data(), kernel.nr, kc);

    EXPECT_TRUE(allClose(c, expected, 1e-4f, 1e-4f))
        << "kernel " << kernel.name
        << " maxdiff=" << maxAbsDiff(c, expected);
}

TEST_P(MicroKernelCorrectness, KcOneWorks)
{
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().byName(GetParam());
    Tensor a({kernel.mr, 1});
    Tensor b({1, kernel.nr});
    Tensor c({kernel.mr, kernel.nr});
    fillPattern(a);
    fillPattern(b);
    c.zero();
    Tensor expected({kernel.mr, kernel.nr});
    ref::gemm(a, b, expected);

    std::vector<float> aPack(static_cast<std::size_t>(kernel.mr));
    std::vector<float> bPack(static_cast<std::size_t>(kernel.nr));
    packAPanel(a.data(), 1, kernel.mr, 1, kernel.mr, aPack.data());
    packBPanel(b.data(), kernel.nr, 1, kernel.nr, kernel.nr, bPack.data());
    kernel.fn(aPack.data(), bPack.data(), c.data(), kernel.nr, 1);
    EXPECT_TRUE(allClose(c, expected, 1e-5f, 1e-6f));
}

std::vector<std::string>
registeredKernelNames()
{
    std::vector<std::string> names;
    for (const MicroKernel &kernel :
         MicroKernelRegistry::instance().kernels()) {
        names.push_back(kernel.name);
    }
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, MicroKernelCorrectness,
                         ::testing::ValuesIn(registeredKernelNames()));

/** Block matmul across odd shapes, every kernel. */
class BlockMatmulCorrectness
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::tuple<int, int, int>>>
{
};

TEST_P(BlockMatmulCorrectness, MatchesReference)
{
    const MicroKernel &kernel = MicroKernelRegistry::instance().byName(
        std::get<0>(GetParam()));
    const auto [m, n, k] = std::get<1>(GetParam());

    Tensor a({m, k});
    Tensor b({k, n});
    Tensor c({m, n});
    Tensor expected({m, n});
    Rng rng(7);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.zero();
    ref::gemm(a, b, expected);

    Workspace workspace;
    blockMatmul(kernel, a.data(), k, b.data(), n, c.data(), n, m, n, k,
                workspace);
    EXPECT_TRUE(allClose(c, expected, 1e-4f, 1e-4f))
        << "kernel " << kernel.name << " shape " << m << "x" << n << "x"
        << k << " maxdiff " << maxAbsDiff(c, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockMatmulCorrectness,
    ::testing::Combine(::testing::ValuesIn(registeredKernelNames()),
                       ::testing::Values(std::make_tuple(1, 1, 1),
                                         std::make_tuple(6, 64, 16),
                                         std::make_tuple(7, 65, 3),
                                         std::make_tuple(13, 17, 19),
                                         std::make_tuple(48, 96, 32),
                                         std::make_tuple(5, 200, 1),
                                         std::make_tuple(64, 64, 64))));

TEST(BlockMatmul, AccumulatesIntoExistingC)
{
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().select(detectSimdTier());
    Tensor a({8, 4});
    Tensor b({4, 8});
    Tensor c({8, 8});
    Rng rng(3);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.fill(2.0f);

    Tensor expected({8, 8});
    ref::gemm(a, b, expected);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        expected[i] += 2.0f;
    }
    Workspace workspace;
    blockMatmul(kernel, a.data(), 4, b.data(), 8, c.data(), 8, 8, 8, 4,
                workspace);
    EXPECT_TRUE(allClose(c, expected, 1e-4f, 1e-4f));
}

TEST(BlockMatmul, StridedViews)
{
    // Operate on the top-left 5x6x7 sub-blocks of larger tensors.
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().select(detectSimdTier());
    Tensor a({10, 20});
    Tensor b({20, 30});
    Tensor c({10, 30});
    Rng rng(5);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.zero();

    Workspace workspace;
    blockMatmul(kernel, a.data(), 20, b.data(), 30, c.data(), 30, 5, 6, 7,
                workspace);

    for (int i = 0; i < 5; ++i) {
        for (int j = 0; j < 6; ++j) {
            float acc = 0.0f;
            for (int p = 0; p < 7; ++p) {
                acc += a.at({i, p}) * b.at({p, j});
            }
            EXPECT_NEAR(c.at({i, j}), acc, 1e-4f);
        }
    }
    // Outside the sub-block C stays zero.
    EXPECT_FLOAT_EQ(c.at({6, 0}), 0.0f);
    EXPECT_FLOAT_EQ(c.at({0, 7}), 0.0f);
}

TEST(NaiveBlockMatmul, MatchesReference)
{
    Tensor a({9, 11});
    Tensor b({11, 13});
    Tensor c({9, 13});
    Tensor expected({9, 13});
    Rng rng(13);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.zero();
    ref::gemm(a, b, expected);
    naiveBlockMatmul(a.data(), 11, b.data(), 13, c.data(), 13, 9, 13, 11);
    EXPECT_TRUE(allClose(c, expected, 1e-4f, 1e-4f));
}

/** Bitwise equality of two float buffers. */
bool
sameBits(const float *a, const float *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(Packing, SimdAPanelMatchesScalarSpec)
{
    // mr 6 and 12 take the register transpose where it is compiled; 4
    // runs the scalar loop. The tail past kc*mr must stay untouched.
    constexpr float kSentinel = -7.0f;
    for (const int mr : {4, 6, 12}) {
        for (int rows = 1; rows <= mr; ++rows) {
            for (std::int64_t kc = 1; kc <= 40; ++kc) {
                const std::int64_t lda = kc + 3;
                std::vector<float> a(static_cast<std::size_t>(rows * lda));
                Rng rng(static_cast<std::uint64_t>(mr * 1000 + rows * 50 + kc));
                for (float &v : a) {
                    v = rng.uniform(-1.0f, 1.0f);
                }
                const std::size_t size = static_cast<std::size_t>(kc * mr);
                std::vector<float> spec(size + 8, kSentinel);
                std::vector<float> simd(size + 8, kSentinel);
                scalarPackAPanel(a.data(), lda, rows, kc, mr, spec.data());
                packAPanel(a.data(), lda, rows, kc, mr, simd.data());
                ASSERT_TRUE(sameBits(spec.data(), simd.data(), size + 8))
                    << "mr " << mr << " rows " << rows << " kc " << kc;
            }
        }
    }
}

TEST(Packing, PatchPanelsMatchPatchRowThenBPanel)
{
    // [C=3, H=5, W=9] source; output rows run past h so kernel rows
    // fall outside [0, h), and windows cross both column borders.
    const std::int64_t chans = 2, chan0 = 1, h = 5, w = 9;
    std::vector<float> src(static_cast<std::size_t>(3 * h * w));
    Rng rng(21);
    for (float &v : src) {
        v = rng.uniform(-1.0f, 1.0f);
    }
    for (const int stride : {1, 2, 4}) {
        for (const int pad : {0, 1}) {
            for (const int kernel : {1, 3}) {
                const std::int64_t depth = chans * kernel * kernel;
                for (std::int64_t outRow = 0; outRow <= h / stride + 1;
                     ++outRow) {
                    for (const std::int64_t col0 : {0, 1, 3}) {
                        for (const std::int64_t cols : {1, 2, 5, 11}) {
                            for (const int nr : {3, 8, 16}) {
                                std::vector<float> patch(
                                    static_cast<std::size_t>(depth * cols));
                                packPatchRow(src.data(), h * w, h, w, chan0,
                                             chans, outRow, col0, cols,
                                             kernel, stride, pad,
                                             patch.data());
                                const std::int64_t panels =
                                    (cols + nr - 1) / nr;
                                const std::size_t size =
                                    static_cast<std::size_t>(panels * depth *
                                                             nr);
                                std::vector<float> spec(size, -7.0f);
                                for (std::int64_t p = 0; p < panels; ++p) {
                                    packBPanel(
                                        patch.data() + p * nr, cols, depth,
                                        static_cast<int>(std::min<
                                                         std::int64_t>(
                                            nr, cols - p * nr)),
                                        nr, spec.data() + p * depth * nr);
                                }
                                std::vector<float> gathered(size, -9.0f);
                                packPatchPanels(src.data(), h * w, h, w,
                                                chan0, chans, outRow, col0,
                                                cols, kernel, stride, pad,
                                                nr, gathered.data());
                                ASSERT_TRUE(sameBits(spec.data(),
                                                     gathered.data(), size))
                                    << "stride " << stride << " pad " << pad
                                    << " kernel " << kernel << " row "
                                    << outRow << " col0 " << col0
                                    << " cols " << cols << " nr " << nr;
                            }
                        }
                    }
                }
            }
        }
    }
}

/** Packed-operand blockMatmul over every registered micro kernel. */
class PackedOperands : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PackedOperands, PanelsGiveTheStridedResultBitwise)
{
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().byName(GetParam());
    const int mr = kernel.mr;
    const int nr = kernel.nr;
    // Panels cover kOffset + k steps; the matmul reads from kOffset on.
    constexpr std::int64_t kOffset = 5;
    Workspace workspace;
    for (const std::int64_t m : {1, mr - 1, mr, mr + 1, 3 * mr + 2}) {
        for (const std::int64_t n : {1, nr - 1, nr, nr + 1, 2 * nr + 3}) {
            for (const std::int64_t k : {1, 7, 64}) {
                if (m < 1 || n < 1) {
                    continue;
                }
                const std::int64_t depth = kOffset + k;
                Tensor a({m, depth});
                Tensor b({depth, n});
                Tensor c0({m, n});
                Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
                fillUniform(a, rng);
                fillUniform(b, rng);
                fillUniform(c0, rng);

                const std::int64_t mPanels = (m + mr - 1) / mr;
                const std::int64_t nPanels = (n + nr - 1) / nr;
                std::vector<float> aPanels(
                    static_cast<std::size_t>(mPanels * depth * mr));
                packAPanels(a.data(), depth, m, depth, mr, aPanels.data());
                std::vector<float> bPanels(
                    static_cast<std::size_t>(nPanels * depth * nr));
                for (std::int64_t p = 0; p < nPanels; ++p) {
                    packBPanel(b.data() + p * nr, n, depth,
                               static_cast<int>(
                                   std::min<std::int64_t>(nr, n - p * nr)),
                               nr, bPanels.data() + p * depth * nr);
                }
                const PanelView aView{aPanels.data(), depth * mr, kOffset};
                const PanelView bView{bPanels.data(), depth * nr, kOffset};

                Tensor strided = c0;
                blockMatmul(kernel, a.data() + kOffset, depth,
                            b.data() + kOffset * n, n, strided.data(), n, m,
                            n, k, workspace);
                const std::pair<bool, bool> modes[] = {
                    {true, false}, {false, true}, {true, true}};
                for (const auto &[packA, packB] : modes) {
                    Tensor packed = c0;
                    blockMatmul(kernel, packA ? nullptr : a.data() + kOffset,
                                depth, packA ? aView : PanelView{},
                                packB ? nullptr : b.data() + kOffset * n, n,
                                packB ? bView : PanelView{}, packed.data(), n,
                                m, n, k, workspace);
                    ASSERT_TRUE(sameBits(strided.data(), packed.data(),
                                         static_cast<std::size_t>(m * n)))
                        << kernel.name << " m " << m << " n " << n << " k "
                        << k << " packed A " << packA << " packed B "
                        << packB;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, PackedOperands,
                         ::testing::ValuesIn(registeredKernelNames()));

TEST(ConvChainPacking, RaggedTilesAreThreadInvariantAndMatchReference)
{
    // oc1 = 14 in tiles of 4, ic = 10 in tiles of 3, oc2 = 9 in tiles
    // of 4: every channel loop ends on a ragged block, so the packed
    // weights are sliced at block and k offsets that are not multiples
    // of the register tile.
    ir::ConvChainConfig cfg;
    cfg.batch = 2;
    cfg.ic = 10;
    cfg.h = 9;
    cfg.w = 11;
    cfg.oc1 = 14;
    cfg.oc2 = 9;
    cfg.k1 = 3;
    cfg.k2 = 3;
    cfg.epilogue = ir::Epilogue::Relu;
    const ir::Chain chain = ir::makeConvChain(cfg);
    plan::PlannerOptions options;
    options.memCapacityBytes = 64.0 * 1024;
    plan::ExecutionPlan plan = plan::planChain(chain, options);
    for (const auto &[name, size] : {std::pair<const char *, std::int64_t>{
                                         "oc1", 4},
                                     {"ic", 3},
                                     {"oc2", 4},
                                     {"oh", 4},
                                     {"ow", 5}}) {
        plan.tiles[static_cast<std::size_t>(ir::axisIdByName(chain, name))] =
            size;
    }

    Tensor input(exec::convChainShapeI(cfg));
    Tensor w1(exec::convChainShapeW1(cfg));
    Tensor w2(exec::convChainShapeW2(cfg));
    Rng rng(33);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);
    Tensor expected(exec::convChainShapeO(cfg));
    exec::referenceConvChain(cfg, input, w1, w2, expected);

    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    Tensor serial(exec::convChainShapeO(cfg));
    exec::runFusedConvChain(cfg, plan, engine, input, w1, w2, serial,
                            exec::ExecOptions{1});
    EXPECT_TRUE(allClose(serial, expected, 2e-3f, 2e-3f))
        << maxAbsDiff(serial, expected);
    for (const int threads : {2, 4}) {
        Tensor output(exec::convChainShapeO(cfg));
        exec::runFusedConvChain(cfg, plan, engine, input, w1, w2, output,
                                exec::ExecOptions{threads});
        EXPECT_TRUE(sameBits(serial.data(), output.data(),
                             static_cast<std::size_t>(serial.numel())))
            << threads << " threads";
    }

    // The emulated NPU reads strided views: no panels are packed for it.
    Tensor npu(exec::convChainShapeO(cfg));
    exec::runFusedConvChain(cfg, plan, exec::ComputeEngine::emulatedNpu(),
                            input, w1, w2, npu);
    EXPECT_TRUE(allClose(npu, expected, 2e-3f, 2e-3f))
        << maxAbsDiff(npu, expected);
}

/** Parameterized over every compiled softmax row tier, scalar spec first. */
class SoftmaxRow : public ::testing::TestWithParam<std::size_t>
{
  protected:
    ExpScaleSumRowFn fn() const
    {
        return softmaxRowKernels()[GetParam()].fn;
    }
};

/** Distance in ulps between two finite floats of the same sign. */
std::int64_t
ulpDistance(float a, float b)
{
    return std::llabs(static_cast<std::int64_t>(std::bit_cast<std::int32_t>(a)) -
                      std::bit_cast<std::int32_t>(b));
}

TEST_P(SoftmaxRow, ExpWithinTwoUlpOfStdExp)
{
    constexpr float kLo = -87.3f;
    constexpr float kHi = 88.7f;
    constexpr std::int64_t kPoints = 1 << 20;
    std::vector<float> row(static_cast<std::size_t>(kPoints));
    for (std::int64_t i = 0; i < kPoints; ++i) {
        row[static_cast<std::size_t>(i)] =
            kLo + (kHi - kLo) * static_cast<float>(i) /
                      static_cast<float>(kPoints - 1);
    }
    row.back() = kHi;
    const std::vector<float> x = row;
    fn()(row.data(), kPoints, kPoints, 1.0f);
    std::int64_t worst = 0;
    float worstX = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const std::int64_t ulps = ulpDistance(row[i], std::exp(x[i]));
        if (ulps > worst) {
            worst = ulps;
            worstX = x[i];
        }
    }
    EXPECT_LE(worst, 2) << "at x = " << worstX;
}

TEST_P(SoftmaxRow, OverflowsToInfAndUnderflowsToZero)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const std::vector<float> big = {88.73f, 88.8f, 89.0f, 100.0f, 1e10f,
                                    kInf};
    const std::vector<float> tiny = {-104.01f, -105.0f, -150.0f, -1e4f,
                                     -1e30f, -kInf};
    std::vector<float> row = big;
    const auto n = static_cast<std::int64_t>(row.size());
    EXPECT_EQ(fn()(row.data(), n, n, 1.0f), kInf);
    for (float v : row) {
        EXPECT_EQ(v, kInf);
    }
    row = tiny;
    EXPECT_EQ(fn()(row.data(), n, n, 1.0f), 0.0f);
    for (float v : row) {
        EXPECT_EQ(v, 0.0f);
    }
}

TEST_P(SoftmaxRow, NanInIsNanOut)
{
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> row = {0.5f, kNan, -1.0f, 2.0f, kNan};
    // Position 4 lies past valid: it is zeroed, not read.
    const float sum = fn()(row.data(), 5, 4, 1.0f);
    EXPECT_TRUE(std::isnan(sum));
    EXPECT_TRUE(std::isnan(row[1]));
    EXPECT_LE(ulpDistance(row[0], std::exp(0.5f)), 2);
    EXPECT_LE(ulpDistance(row[2], std::exp(-1.0f)), 2);
    EXPECT_LE(ulpDistance(row[3], std::exp(2.0f)), 2);
    EXPECT_EQ(row[4], 0.0f);

    std::vector<float> masked = {1.0f, kNan, kNan};
    EXPECT_FALSE(std::isnan(fn()(masked.data(), 3, 1, 1.0f)));
    EXPECT_EQ(masked[1], 0.0f);
    EXPECT_EQ(masked[2], 0.0f);
}

TEST_P(SoftmaxRow, EveryLengthAndValidPrefix)
{
    constexpr float kScale = 0.37f;
    constexpr float kGuard = 12345.0f;
    Rng rng(5);
    for (std::int64_t n = 1; n <= 70; ++n) {
        std::vector<float> x(static_cast<std::size_t>(n));
        for (float &v : x) {
            v = rng.uniform(-8.0f, 8.0f);
        }
        for (std::int64_t valid = -1; valid <= n + 1; ++valid) {
            std::vector<float> row = x;
            row.push_back(kGuard);
            const float sum = fn()(row.data(), n, valid, kScale);
            double written = 0.0;
            for (std::int64_t j = 0; j < n; ++j) {
                const float got = row[static_cast<std::size_t>(j)];
                if (j >= valid) {
                    EXPECT_EQ(std::bit_cast<std::uint32_t>(got), 0u)
                        << "n " << n << " valid " << valid << " j " << j;
                    continue;
                }
                const float want =
                    std::exp(kScale * x[static_cast<std::size_t>(j)]);
                EXPECT_LE(ulpDistance(got, want), 2)
                    << "n " << n << " valid " << valid << " j " << j;
                written += got;
            }
            EXPECT_EQ(row.back(), kGuard) << "wrote past n = " << n;
            EXPECT_LE(std::abs(sum - written), 1e-6 * written)
                << "n " << n << " valid " << valid;
        }
    }
}

TEST_P(SoftmaxRow, SameBitsAtEveryAlignment)
{
    constexpr std::int64_t kMaxN = 70;
    AlignedBuffer<float> buffer =
        allocateAligned<float>(static_cast<std::size_t>(kMaxN + 16));
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(buffer.get()) % 64, 0u);
    Rng rng(6);
    for (std::int64_t n : {1, 7, 15, 16, 17, 33, 64, 70}) {
        std::vector<float> x(static_cast<std::size_t>(n));
        for (float &v : x) {
            v = rng.uniform(-6.0f, 6.0f);
        }
        for (std::int64_t valid : {n / 2, n}) {
            std::vector<float> first;
            float firstSum = 0.0f;
            for (std::int64_t offset = 0; offset < 16; ++offset) {
                float *row = buffer.get() + offset;
                std::copy(x.begin(), x.end(), row);
                const float sum = fn()(row, n, valid, 0.5f);
                std::vector<float> out(row, row + n);
                if (offset == 0) {
                    first = out;
                    firstSum = sum;
                    continue;
                }
                EXPECT_EQ(std::bit_cast<std::uint32_t>(sum),
                          std::bit_cast<std::uint32_t>(firstSum))
                    << "n " << n << " offset " << offset;
                EXPECT_EQ(std::memcmp(out.data(), first.data(),
                                      out.size() * sizeof(float)),
                          0)
                    << "n " << n << " offset " << offset;
            }
        }
    }
}

TEST(SoftmaxRowDispatch, EntryPointRunsTheWidestCompiledTier)
{
    const std::vector<SoftmaxRowKernel> &tiers = softmaxRowKernels();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front().name, "scalar");
    Rng rng(8);
    std::vector<float> x(45);
    for (float &v : x) {
        v = rng.uniform(-4.0f, 4.0f);
    }
    std::vector<float> viaEntry = x;
    std::vector<float> viaWidest = x;
    const float a = expScaleSumRow(viaEntry.data(), 45, 30, 0.25f);
    const float b = tiers.back().fn(viaWidest.data(), 45, 30, 0.25f);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b));
    EXPECT_EQ(viaEntry, viaWidest);
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, SoftmaxRow,
    ::testing::Range<std::size_t>(0, softmaxRowKernels().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return softmaxRowKernels()[info.param].name;
    });

} // namespace
} // namespace chimera::kernels
