#include "exec/compute_engine.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernels/mma_tile.hpp"
#include "kernels/npu_mad.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::exec {

namespace {

/**
 * Per-thread packing workspace. The engine used to hold one shared
 * `mutable Workspace`, which made even a `const ComputeEngine &` unsafe
 * to share across threads (concurrent matmul calls raced on the packing
 * buffers). Buffers grow monotonically and live for the thread's
 * lifetime, so pool workers pay the allocation once and reuse it across
 * every engine and every block.
 */
kernels::Workspace &
threadWorkspace()
{
    static thread_local kernels::Workspace workspace;
    return workspace;
}

/**
 * Strided, accumulating matmul through the emulated NPU mad kernel:
 * per (rows x cols x depth) block, operands are packed into the fractal
 * layout, the six-loop mad computation runs, and the packed result is
 * added back to C.
 */
void
madStridedMatmul(const float *a, std::int64_t lda, const float *b,
                 std::int64_t ldb, float *c, std::int64_t ldc,
                 std::int64_t m, std::int64_t n, std::int64_t k)
{
    kernels::MadShape shape;
    shape.m1 = 4;
    shape.n1 = 4;
    shape.k1 = 4;
    shape.m2 = 16;
    shape.n2 = 16;
    shape.k2 = 16;

    std::vector<float> aPack(static_cast<std::size_t>(shape.m1 * shape.k1 *
                                                      shape.m2 * shape.k2));
    std::vector<float> bPack(static_cast<std::size_t>(shape.k1 * shape.n1 *
                                                      shape.n2 * shape.k2));
    std::vector<float> cPack(static_cast<std::size_t>(shape.m1 * shape.n1 *
                                                      shape.m2 * shape.n2));
    for (std::int64_t m0 = 0; m0 < m; m0 += shape.rows()) {
        const std::int64_t rows =
            std::min<std::int64_t>(shape.rows(), m - m0);
        for (std::int64_t n0 = 0; n0 < n; n0 += shape.cols()) {
            const std::int64_t cols =
                std::min<std::int64_t>(shape.cols(), n - n0);
            std::fill(cPack.begin(), cPack.end(), 0.0f);
            for (std::int64_t k0 = 0; k0 < k; k0 += shape.depth()) {
                const std::int64_t depth =
                    std::min<std::int64_t>(shape.depth(), k - k0);
                kernels::packMadA(a + m0 * lda + k0, lda, rows, depth,
                                  shape, aPack.data());
                kernels::packMadB(b + k0 * ldb + n0, ldb, depth, cols,
                                  shape, bPack.data());
                kernels::madCompute(aPack.data(), bPack.data(),
                                    cPack.data(), shape);
            }
            kernels::unpackMadC(cPack.data(), shape, c + m0 * ldc + n0,
                                ldc, rows, cols);
        }
    }
}

/**
 * Strided, accumulating matmul through the emulated GPU mma kernel:
 * operands are zero-padded into fragment-aligned staging tensors, the
 * 2x2-tile mma schedule runs, and the valid region is added back.
 */
void
mmaStridedMatmul(const float *a, std::int64_t lda, const float *b,
                 std::int64_t ldb, float *c, std::int64_t ldc,
                 std::int64_t m, std::int64_t n, std::int64_t k)
{
    const std::int64_t step = 2 * kernels::kMmaDim;
    const std::int64_t mp = roundUp(m, step);
    const std::int64_t np = roundUp(n, step);
    const std::int64_t kp = roundUp(k, step);

    Tensor aPad({mp, kp});
    Tensor bPad({kp, np});
    Tensor cPad({mp, np});
    aPad.zero();
    bPad.zero();
    for (std::int64_t i = 0; i < m; ++i) {
        std::memcpy(aPad.data() + i * kp, a + i * lda,
                    static_cast<std::size_t>(k) * sizeof(float));
    }
    for (std::int64_t i = 0; i < k; ++i) {
        std::memcpy(bPad.data() + i * np, b + i * ldb,
                    static_cast<std::size_t>(n) * sizeof(float));
    }
    (void)kernels::mmaMatmulTiled(aPad, bPad, cPad);
    for (std::int64_t i = 0; i < m; ++i) {
        const float *src = cPad.data() + i * np;
        float *dst = c + i * ldc;
        for (std::int64_t j = 0; j < n; ++j) {
            dst[j] += src[j];
        }
    }
}

} // namespace

ComputeEngine::ComputeEngine(const kernels::MicroKernel &kernel)
    : backend_(Backend::MicroKernel), kernel_(&kernel)
{
}

ComputeEngine
ComputeEngine::best()
{
    return ComputeEngine(
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
}

ComputeEngine
ComputeEngine::scalar()
{
    return ComputeEngine(
        kernels::MicroKernelRegistry::instance().select(SimdTier::Scalar));
}

ComputeEngine
ComputeEngine::naive()
{
    ComputeEngine engine;
    engine.backend_ = Backend::Naive;
    return engine;
}

ComputeEngine
ComputeEngine::emulatedNpu()
{
    ComputeEngine engine;
    engine.backend_ = Backend::NpuMad;
    return engine;
}

ComputeEngine
ComputeEngine::emulatedGpu()
{
    ComputeEngine engine;
    engine.backend_ = Backend::GpuMma;
    return engine;
}

void
ComputeEngine::matmul(const float *a, std::int64_t lda, const float *b,
                      std::int64_t ldb, float *c, std::int64_t ldc,
                      std::int64_t m, std::int64_t n, std::int64_t k) const
{
    switch (backend_) {
      case Backend::MicroKernel:
        kernels::blockMatmul(*kernel_, a, lda, b, ldb, c, ldc, m, n, k,
                             threadWorkspace());
        return;
      case Backend::Naive:
        kernels::naiveBlockMatmul(a, lda, b, ldb, c, ldc, m, n, k);
        return;
      case Backend::NpuMad:
        madStridedMatmul(a, lda, b, ldb, c, ldc, m, n, k);
        return;
      case Backend::GpuMma:
        mmaStridedMatmul(a, lda, b, ldb, c, ldc, m, n, k);
        return;
    }
}

void
ComputeEngine::matmul(const Operand &a, const Operand &b, float *c,
                      std::int64_t ldc, std::int64_t m, std::int64_t n,
                      std::int64_t k) const
{
    if (backend_ == Backend::MicroKernel) {
        kernels::blockMatmul(*kernel_, a.data, a.ld, a.panels, b.data, b.ld,
                             b.panels, c, ldc, m, n, k, threadWorkspace());
        return;
    }
    CHIMERA_ASSERT(a.panels.panels == nullptr && b.panels.panels == nullptr,
                   "packed panels given to a strided-only backend");
    matmul(a.data, a.ld, b.data, b.ld, c, ldc, m, n, k);
}

int
ComputeEngine::panelRows() const
{
    return backend_ == Backend::MicroKernel ? kernel_->mr : 0;
}

int
ComputeEngine::panelCols() const
{
    return backend_ == Backend::MicroKernel ? kernel_->nr : 0;
}

const char *
ComputeEngine::name() const
{
    switch (backend_) {
      case Backend::MicroKernel: return kernel_->name.c_str();
      case Backend::Naive: return "naive";
      case Backend::NpuMad: return "npu_mad_emulated";
      case Backend::GpuMma: return "gpu_mma_emulated";
    }
    return "?";
}

} // namespace chimera::exec
