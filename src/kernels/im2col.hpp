#pragma once

/**
 * @file
 * Implicit-GEMM (im2col) gathers for one output row of an NCHW
 * convolution: the B operand of the conv executors' matmuls. The
 * receptive fields of output columns [col0, col0 + cols) form a
 * [chans*kernel*kernel x cols] matrix, row (c*kernel + i)*kernel + j.
 */

#include <cstdint>

namespace chimera::kernels {

/**
 * Gathers the patch as a row-major strided matrix: dst[kk*cols + x].
 * Reads a [C, H, W] source (channel stride @p chanStride) with implicit
 * zero padding. This is the gather packPatchPanels is specified by.
 */
void packPatchRow(const float *src, std::int64_t chanStride, std::int64_t h,
                  std::int64_t w, std::int64_t chan0, std::int64_t chans,
                  std::int64_t outRow, std::int64_t col0, std::int64_t cols,
                  int kernel, int stride, int pad, float *dst);

/**
 * Gathers the same patch straight into packBPanel's layout: panel p
 * holds columns [p*nr, p*nr + nr) at dst + p*K*nr (K =
 * chans*kernel*kernel), element (kk, x) at [kk*nr + x - p*nr], zero past
 * @p cols. Equals packPatchRow followed by packBPanel on every panel,
 * bitwise; a stride-1 row is one in-bounds memcpy per panel.
 */
void packPatchPanels(const float *src, std::int64_t chanStride,
                     std::int64_t h, std::int64_t w, std::int64_t chan0,
                     std::int64_t chans, std::int64_t outRow,
                     std::int64_t col0, std::int64_t cols, int kernel,
                     int stride, int pad, int nr, float *dst);

} // namespace chimera::kernels
