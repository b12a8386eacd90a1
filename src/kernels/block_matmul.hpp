#pragma once

/**
 * @file
 * Block-level matrix multiply built on the replaceable micro kernel:
 * packs operand panels and walks MR x NR register tiles. This is the
 * computation performed inside one inter-block computation block; the
 * executors (src/exec) call it once per block in the planned order.
 * An executor that already holds an operand in the packed panel layout
 * (constant weights packed once per call, an im2col patch gathered
 * straight into panels) passes a PanelView and nothing is repacked.
 */

#include <cstdint>

#include "kernels/micro_kernel.hpp"
#include "support/aligned.hpp"

namespace chimera::kernels {

/** Reusable packing/scratch buffers; grows monotonically. */
class Workspace
{
  public:
    /** Returns a buffer of at least @p elems floats for packed A. */
    float *ensureA(std::size_t elems);

    /** Returns a buffer of at least @p elems floats for packed B. */
    float *ensureB(std::size_t elems);

    /** Returns a zeroable scratch of at least @p elems floats. */
    float *ensureScratch(std::size_t elems);

  private:
    AlignedBuffer<float> a_;
    AlignedBuffer<float> b_;
    AlignedBuffer<float> scratch_;
    std::size_t aCap_ = 0;
    std::size_t bCap_ = 0;
    std::size_t scratchCap_ = 0;
};

/**
 * Packs one A panel: dst[k*mr + m] = a[m*lda + k], zero-padded when
 * @p rows < @p mr. Compiled AVX2 tiers transpose 8 k steps at a time
 * in registers for mr 6 and 12 (the registered kernels' panel heights);
 * other mr and the k tail run the scalar spec. Both give the same bits.
 */
void packAPanel(const float *a, std::int64_t lda, int rows, std::int64_t kc,
                int mr, float *dst);

/** The portable scalar loop packAPanel is specified by. */
void scalarPackAPanel(const float *a, std::int64_t lda, int rows,
                      std::int64_t kc, int mr, float *dst);

/**
 * Packs every A panel of a row-major [m x k] matrix: panel p holds rows
 * [p*mr, p*mr + mr) in packAPanel's layout at dst + p*k*mr.
 */
void packAPanels(const float *a, std::int64_t lda, std::int64_t m,
                 std::int64_t k, int mr, float *dst);

/**
 * Packs one B panel: dst[k*nr + n] = b[k*ldb + n], zero-padded when
 * @p cols < @p nr.
 */
void packBPanel(const float *b, std::int64_t ldb, std::int64_t kc, int cols,
                int nr, float *dst);

/**
 * An operand already in the micro kernel's panel layout (packAPanel's
 * for A, packBPanel's for B). Panel p starts at panels + p*panelStride
 * and a matmul reads its k steps from step @p kOffset on, so one set of
 * panels packed over the full reduction depth serves every k slice. A
 * null @p panels means "pack from the strided view".
 */
struct PanelView
{
    const float *panels = nullptr;
    std::int64_t panelStride = 0;
    std::int64_t kOffset = 0;
};

/**
 * C[m x n] += A[m x k] * B[k x n] on strided buffers using @p kernel.
 * Edge tiles are computed into a zeroed scratch and accumulated back.
 */
void blockMatmul(const MicroKernel &kernel, const float *a, std::int64_t lda,
                 const float *b, std::int64_t ldb, float *c, std::int64_t ldc,
                 std::int64_t m, std::int64_t n, std::int64_t k,
                 Workspace &workspace);

/**
 * blockMatmul over operands that may already be packed: a set
 * @p aPanels / @p bPanels is read in place (the strided pointer is then
 * unused and may be null), an unset one is packed from its strided view.
 * Every micro-kernel call sees the same panel values, k depth and
 * edge-tile path as the strided overload, so the result is bitwise the
 * same.
 */
void blockMatmul(const MicroKernel &kernel, const float *a, std::int64_t lda,
                 const PanelView &aPanels, const float *b, std::int64_t ldb,
                 const PanelView &bPanels, float *c, std::int64_t ldc,
                 std::int64_t m, std::int64_t n, std::int64_t k,
                 Workspace &workspace);

/**
 * Reference block matmul without packing or SIMD: the ablation study's
 * "micro kernel disabled" configuration (Figure 10, version without M).
 */
void naiveBlockMatmul(const float *a, std::int64_t lda, const float *b,
                      std::int64_t ldb, float *c, std::int64_t ldc,
                      std::int64_t m, std::int64_t n, std::int64_t k);

} // namespace chimera::kernels
