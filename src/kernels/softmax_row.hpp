#pragma once

/**
 * @file
 * The fused softmax epilogue's row kernel (§VI-B): exp now, the row sum
 * alongside, the division deferred to the caller.
 *
 * Both fused GEMM-chain executors run their softmax through this one
 * kernel, so the memory-bound epilogue keeps pace with the compute-bound
 * micro kernels around it. Like the micro kernels it has a portable
 * scalar spec plus AVX2+FMA and AVX-512 bodies under the same
 * compile-time guards; the widest compiled body is the one that runs.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace chimera::kernels {

/**
 * Writes row[j] = exp(scale * row[j]) for j < @p valid and row[j] = 0
 * for @p valid <= j < @p n, and returns the sum of the written values.
 *
 * @p valid may be <= 0 (the row becomes zeros and the sum is 0) or
 * >= @p n (the whole row is live). A NaN in a live position stays NaN
 * there and makes the sum NaN; exp overflows to +inf above ~88.72 and
 * underflows to 0 below ~-103.97. The output bits and the sum depend
 * only on the values, @p n, @p valid and @p scale — never on the row's
 * address — so a row computes the same wherever it sits in a scratch
 * buffer.
 */
float expScaleSumRow(float *row, std::int64_t n, std::int64_t valid,
                     float scale);

/** Signature shared by every implementation of expScaleSumRow. */
using ExpScaleSumRowFn = float (*)(float *row, std::int64_t n,
                                   std::int64_t valid, float scale);

/** One compiled implementation. */
struct SoftmaxRowKernel
{
    std::string name;
    ExpScaleSumRowFn fn = nullptr;
};

/**
 * Every compiled implementation, widest last: the scalar spec first,
 * and last the one expScaleSumRow runs.
 */
const std::vector<SoftmaxRowKernel> &softmaxRowKernels();

/**
 * The portable spec: std::exp per element and a sequential float sum.
 */
float scalarExpScaleSumRow(float *row, std::int64_t n, std::int64_t valid,
                           float scale);

} // namespace chimera::kernels
