#include "kernels/softmax_row.hpp"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__) || defined(__AVX512F__)
// GCC 12's AVX-512 intrinsic headers self-initialize the "undefined"
// pass-through operand of max/min/roundscale/scalef/extract, which
// -Wuninitialized then reports at every inlined call (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace chimera::kernels {

float
scalarExpScaleSumRow(float *row, std::int64_t n, std::int64_t valid,
                     float scale)
{
    float sum = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) {
        if (j >= valid) {
            row[j] = 0.0f;
            continue;
        }
        row[j] = std::exp(scale * row[j]);
        sum += row[j];
    }
    return sum;
}

#if defined(__AVX2__) || defined(__AVX512F__)

namespace {

// Cephes-style expf: exp(x) = 2^k * exp(r) with k = round(x * log2(e))
// and r = x - k * ln2 in [-ln2/2, ln2/2], ln2 split in two so k * ln2
// subtracts exactly; exp(r) = 1 + r + r^2 * P(r) with P of degree 5.
// Inputs are clamped to [kExpLo, kExpHi] first — wide enough that the
// 2^k scaling itself overflows to +inf above ~88.72 and rounds to 0
// below ~-103.97, narrow enough that k fits the scaling below. The clamp
// keeps the input operand second in max/min, so a NaN passes through.
constexpr float kExpHi = 89.0f;
constexpr float kExpLo = -104.5f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kP0 = 1.9875691500e-4f;
constexpr float kP1 = 1.3981999507e-3f;
constexpr float kP2 = 8.3334519073e-3f;
constexpr float kP3 = 4.1665795894e-2f;
constexpr float kP4 = 1.6666665459e-1f;
constexpr float kP5 = 5.0000001201e-1f;

/** Horizontal sum of 8 lanes in a fixed pairwise order. */
inline float
sumLanes(__m256 v)
{
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

} // namespace

#endif // __AVX2__ || __AVX512F__

#if defined(__AVX2__)

namespace {

/** exp of 8 lanes; 2^k goes on in two exponent-bit halves. */
inline __m256
exp256(__m256 x)
{
    x = _mm256_min_ps(_mm256_set1_ps(kExpHi),
                      _mm256_max_ps(_mm256_set1_ps(kExpLo), x));
    const __m256 k = _mm256_round_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256 r = _mm256_fnmadd_ps(k, _mm256_set1_ps(kLn2Hi), x);
    r = _mm256_fnmadd_ps(k, _mm256_set1_ps(kLn2Lo), r);
    __m256 p = _mm256_set1_ps(kP0);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP1));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP2));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP4));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP5));
    p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
    p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
    // k is in [-151, 128]; 2^k = 2^h * 2^(k-h) with h = k >> 1 keeps
    // both factors normal, so the first multiply is exact and the
    // second rounds once — into the subnormals or to +inf as needed.
    const __m256i ki = _mm256_cvtps_epi32(k);
    const __m256i h = _mm256_srai_epi32(ki, 1);
    const __m256i bias = _mm256_set1_epi32(127);
    const __m256 pow1 = _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_add_epi32(h, bias), 23));
    const __m256 pow2 = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_add_epi32(_mm256_sub_epi32(ki, h), bias), 23));
    return _mm256_mul_ps(_mm256_mul_ps(p, pow1), pow2);
}

/** All-ones in lanes i < @p count, zero elsewhere. */
inline __m256i
laneMask(std::int64_t count)
{
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(std::min<std::int64_t>(count, 8))),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

float
avx2ExpScaleSumRow(float *row, std::int64_t n, std::int64_t valid,
                   float scale)
{
    const std::int64_t live = std::clamp<std::int64_t>(valid, 0, n);
    const __m256 s = _mm256_set1_ps(scale);
    __m256 acc = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= live; j += 8) {
        const __m256 e = exp256(_mm256_mul_ps(s, _mm256_loadu_ps(row + j)));
        _mm256_storeu_ps(row + j, e);
        acc = _mm256_add_ps(acc, e);
    }
    if (j < live) {
        const __m256i liveMask = laneMask(live - j);
        const __m256 e = _mm256_and_ps(
            exp256(_mm256_mul_ps(s, _mm256_maskload_ps(row + j, liveMask))),
            _mm256_castsi256_ps(liveMask));
        _mm256_maskstore_ps(row + j, laneMask(n - j), e);
        acc = _mm256_add_ps(acc, e);
        j += 8;
    }
    if (j < n) {
        std::fill(row + j, row + n, 0.0f);
    }
    return sumLanes(acc);
}

} // namespace

#endif // __AVX2__

#if defined(__AVX512F__)

namespace {

/** exp of 16 lanes; vscalefps does the 2^k scaling. */
inline __m512
exp512(__m512 x)
{
    x = _mm512_min_ps(_mm512_set1_ps(kExpHi),
                      _mm512_max_ps(_mm512_set1_ps(kExpLo), x));
    const __m512 k = _mm512_roundscale_ps(
        _mm512_mul_ps(x, _mm512_set1_ps(kLog2e)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m512 r = _mm512_fnmadd_ps(k, _mm512_set1_ps(kLn2Hi), x);
    r = _mm512_fnmadd_ps(k, _mm512_set1_ps(kLn2Lo), r);
    __m512 p = _mm512_set1_ps(kP0);
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kP1));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kP2));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kP3));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kP4));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kP5));
    p = _mm512_fmadd_ps(p, _mm512_mul_ps(r, r), r);
    p = _mm512_add_ps(p, _mm512_set1_ps(1.0f));
    return _mm512_scalef_ps(p, k);
}

/** Mask of lanes i < @p count. */
inline __mmask16
laneMask16(std::int64_t count)
{
    return count >= 16 ? static_cast<__mmask16>(0xFFFF)
                       : static_cast<__mmask16>((1u << count) - 1u);
}

float
avx512ExpScaleSumRow(float *row, std::int64_t n, std::int64_t valid,
                     float scale)
{
    const std::int64_t live = std::clamp<std::int64_t>(valid, 0, n);
    const __m512 s = _mm512_set1_ps(scale);
    __m512 acc = _mm512_setzero_ps();
    std::int64_t j = 0;
    for (; j + 16 <= live; j += 16) {
        const __m512 e = exp512(_mm512_mul_ps(s, _mm512_loadu_ps(row + j)));
        _mm512_storeu_ps(row + j, e);
        acc = _mm512_add_ps(acc, e);
    }
    if (j < live) {
        const __mmask16 liveMask = laneMask16(live - j);
        const __m512 e = _mm512_maskz_mov_ps(
            liveMask,
            exp512(_mm512_mul_ps(s, _mm512_maskz_loadu_ps(liveMask, row + j))));
        _mm512_mask_storeu_ps(row + j, laneMask16(n - j), e);
        acc = _mm512_add_ps(acc, e);
        j += 16;
    }
    if (j < n) {
        std::fill(row + j, row + n, 0.0f);
    }
    const __m256 lo = _mm512_castps512_ps256(acc);
    const __m256 hi = _mm256_castpd_ps(
        _mm512_extractf64x4_pd(_mm512_castps_pd(acc), 1));
    return sumLanes(_mm256_add_ps(lo, hi));
}

} // namespace

#endif // __AVX512F__

float
expScaleSumRow(float *row, std::int64_t n, std::int64_t valid, float scale)
{
#if defined(__AVX512F__)
    return avx512ExpScaleSumRow(row, n, valid, scale);
#elif defined(__AVX2__)
    return avx2ExpScaleSumRow(row, n, valid, scale);
#else
    return scalarExpScaleSumRow(row, n, valid, scale);
#endif
}

const std::vector<SoftmaxRowKernel> &
softmaxRowKernels()
{
    static const std::vector<SoftmaxRowKernel> kernels = {
        {"scalar", &scalarExpScaleSumRow},
#if defined(__AVX2__)
        {"avx2", &avx2ExpScaleSumRow},
#endif
#if defined(__AVX512F__)
        {"avx512", &avx512ExpScaleSumRow},
#endif
    };
    return kernels;
}

} // namespace chimera::kernels
