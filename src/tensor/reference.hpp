#pragma once

/**
 * @file
 * Naive reference implementations of every operator Chimera optimizes.
 *
 * These are the correctness oracles for the fused executors and the
 * compute kernels of the unfused "library" baseline's slow path. They are
 * deliberately simple loop nests with no tiling or SIMD.
 */

#include "tensor/tensor.hpp"

namespace chimera::ir {
enum class Epilogue;
} // namespace chimera::ir

namespace chimera::ref {

/** C[M,N] = A[M,K] * B[K,N]. */
void gemm(const Tensor &a, const Tensor &b, Tensor &c);

/** C[B,M,N] = A[B,M,K] * B[B,K,N] per batch. */
void batchGemm(const Tensor &a, const Tensor &b, Tensor &c);

/**
 * NCHW direct convolution with implicit zero padding.
 * input [N,C,H,W], weight [OC,C,KH,KW], output [N,OC,OH,OW] where
 * OH = (H + 2*pad - KH)/stride + 1 (and likewise OW).
 */
void conv2d(const Tensor &input, const Tensor &weight, Tensor &output,
            int stride, int pad);

/** Elementwise max(x, 0), in place. */
void reluInPlace(Tensor &t);

/** Row-wise softmax over the last dimension. */
void softmaxLastDim(Tensor &t);

/**
 * A GEMM chain's intermediate epilogue on a materialized [batch?, rows,
 * cols] scores tensor, in place: reluInPlace for Relu; for Softmax,
 * scale by @p softmaxScale, then (with @p causalMask) set column j > row
 * r to -inf, then softmaxLastDim. The unfused and reference paths share
 * it; the fused block bodies keep their own on-chip code.
 */
void chainEpilogue(Tensor &scores, ir::Epilogue epilogue, float softmaxScale,
                   bool causalMask);

/** out = a + b elementwise; shapes must match. */
void add(const Tensor &a, const Tensor &b, Tensor &out);

/** Adds bias[N] to every row of t[..., N], in place. */
void addBiasLastDim(Tensor &t, const Tensor &bias);

/** tanh-approximation GELU, in place. */
void geluInPlace(Tensor &t);

/** Layer norm over the last dimension with gamma/beta of size [N]. */
void layerNormLastDim(Tensor &t, const Tensor &gamma, const Tensor &beta,
                      float epsilon = 1e-5f);

/** Output spatial extent for conv2d: (in + 2*pad - kernel)/stride + 1. */
std::int64_t convOutDim(std::int64_t in, std::int64_t kernel, int stride,
                        int pad);

} // namespace chimera::ref
