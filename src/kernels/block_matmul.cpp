#include "kernels/block_matmul.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"
#include "support/mathutil.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace chimera::kernels {

namespace {

float *
ensureCapacity(AlignedBuffer<float> &buffer, std::size_t &capacity,
               std::size_t elems)
{
    if (elems > capacity) {
        buffer = allocateAligned<float>(elems);
        capacity = elems;
    }
    return buffer.get();
}

} // namespace

float *
Workspace::ensureA(std::size_t elems)
{
    return ensureCapacity(a_, aCap_, elems);
}

float *
Workspace::ensureB(std::size_t elems)
{
    return ensureCapacity(b_, bCap_, elems);
}

float *
Workspace::ensureScratch(std::size_t elems)
{
    return ensureCapacity(scratch_, scratchCap_, elems);
}

void
scalarPackAPanel(const float *a, std::int64_t lda, int rows,
                 std::int64_t kc, int mr, float *dst)
{
    CHIMERA_ASSERT(rows >= 1 && rows <= mr, "bad A panel rows");
    for (std::int64_t k = 0; k < kc; ++k) {
        float *out = dst + k * mr;
        for (int m = 0; m < rows; ++m) {
            out[m] = a[static_cast<std::int64_t>(m) * lda + k];
        }
        for (int m = rows; m < mr; ++m) {
            out[m] = 0.0f;
        }
    }
}

#if defined(__AVX2__)

namespace {

/** In-register transpose: r[i] lane j becomes r[j] lane i. */
inline void
transpose8x8(__m256 r[8])
{
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/**
 * packAPanel for mr a multiple of 6: each group of 6 rows (zero rows
 * past @p rows) is transposed 8 k steps at a time and stored 6 lanes
 * per k step; the k tail runs the scalar spec.
 */
void
avx2PackAPanel(const float *a, std::int64_t lda, int rows, std::int64_t kc,
               int mr, float *dst)
{
    const __m256i six = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, 0, 0);
    std::int64_t k = 0;
    for (; k + 8 <= kc; k += 8) {
        for (int g = 0; g < mr; g += 6) {
            __m256 r[8];
            for (int m = 0; m < 8; ++m) {
                r[m] = m < 6 && g + m < rows
                           ? _mm256_loadu_ps(
                                 a + static_cast<std::int64_t>(g + m) * lda +
                                 k)
                           : _mm256_setzero_ps();
            }
            transpose8x8(r);
            for (int j = 0; j < 8; ++j) {
                _mm256_maskstore_ps(dst + (k + j) * mr + g, six, r[j]);
            }
        }
    }
    if (k < kc) {
        scalarPackAPanel(a + k, lda, rows, kc - k, mr, dst + k * mr);
    }
}

} // namespace

#endif // __AVX2__

void
packAPanel(const float *a, std::int64_t lda, int rows, std::int64_t kc,
           int mr, float *dst)
{
#if defined(__AVX2__)
    if (mr % 6 == 0) {
        CHIMERA_ASSERT(rows >= 1 && rows <= mr, "bad A panel rows");
        avx2PackAPanel(a, lda, rows, kc, mr, dst);
        return;
    }
#endif
    scalarPackAPanel(a, lda, rows, kc, mr, dst);
}

void
packAPanels(const float *a, std::int64_t lda, std::int64_t m,
            std::int64_t k, int mr, float *dst)
{
    for (std::int64_t row0 = 0; row0 < m; row0 += mr) {
        packAPanel(a + row0 * lda, lda,
                   static_cast<int>(std::min<std::int64_t>(mr, m - row0)),
                   k, mr, dst + (row0 / mr) * k * mr);
    }
}

void
packBPanel(const float *b, std::int64_t ldb, std::int64_t kc, int cols,
           int nr, float *dst)
{
    CHIMERA_ASSERT(cols >= 1 && cols <= nr, "bad B panel cols");
    for (std::int64_t k = 0; k < kc; ++k) {
        float *out = dst + k * nr;
        const float *src = b + k * ldb;
        std::memcpy(out, src, static_cast<std::size_t>(cols) *
                                  sizeof(float));
        for (int n = cols; n < nr; ++n) {
            out[n] = 0.0f;
        }
    }
}

void
blockMatmul(const MicroKernel &kernel, const float *a, std::int64_t lda,
            const float *b, std::int64_t ldb, float *c, std::int64_t ldc,
            std::int64_t m, std::int64_t n, std::int64_t k,
            Workspace &workspace)
{
    blockMatmul(kernel, a, lda, PanelView{}, b, ldb, PanelView{}, c, ldc, m,
                n, k, workspace);
}

void
blockMatmul(const MicroKernel &kernel, const float *a, std::int64_t lda,
            const PanelView &aPanels, const float *b, std::int64_t ldb,
            const PanelView &bPanels, float *c, std::int64_t ldc,
            std::int64_t m, std::int64_t n, std::int64_t k,
            Workspace &workspace)
{
    CHIMERA_ASSERT(m >= 1 && n >= 1 && k >= 1, "empty block");
    const int mr = kernel.mr;
    const int nr = kernel.nr;
    const std::int64_t mPanels = ceilDiv(m, mr);
    const std::int64_t nPanels = ceilDiv(n, nr);

    // B panels: read in place, or packed once here: bPack[panel][k][nr].
    const float *bBase = nullptr;
    std::int64_t bStride = bPanels.panelStride;
    if (bPanels.panels != nullptr) {
        bBase = bPanels.panels + bPanels.kOffset * nr;
    } else {
        bStride = k * nr;
        float *bPack = workspace.ensureB(static_cast<std::size_t>(
            bStride * nPanels));
        for (std::int64_t np = 0; np < nPanels; ++np) {
            const std::int64_t col0 = np * nr;
            const int cols = static_cast<int>(std::min<std::int64_t>(
                nr, n - col0));
            packBPanel(b + col0, ldb, k, cols, nr, bPack + np * bStride);
        }
        bBase = bPack;
    }

    float *aPack = aPanels.panels == nullptr
                       ? workspace.ensureA(static_cast<std::size_t>(k) *
                                           static_cast<std::size_t>(mr))
                       : nullptr;
    float *scratch = workspace.ensureScratch(
        static_cast<std::size_t>(mr) * static_cast<std::size_t>(nr));

    for (std::int64_t mp = 0; mp < mPanels; ++mp) {
        const std::int64_t row0 = mp * mr;
        const int rows = static_cast<int>(std::min<std::int64_t>(
            mr, m - row0));
        const float *aPanel = aPack;
        if (aPack != nullptr) {
            packAPanel(a + row0 * lda, lda, rows, k, mr, aPack);
        } else {
            aPanel = aPanels.panels + mp * aPanels.panelStride +
                     aPanels.kOffset * mr;
        }
        for (std::int64_t np = 0; np < nPanels; ++np) {
            const std::int64_t col0 = np * nr;
            const int cols = static_cast<int>(std::min<std::int64_t>(
                nr, n - col0));
            float *cTile = c + row0 * ldc + col0;
            const float *bPanel = bBase + np * bStride;
            if (rows == mr && cols == nr) {
                kernel.fn(aPanel, bPanel, cTile, ldc, static_cast<int>(k));
            } else {
                std::memset(scratch, 0,
                            static_cast<std::size_t>(mr) *
                                static_cast<std::size_t>(nr) *
                                sizeof(float));
                kernel.fn(aPanel, bPanel, scratch, nr, static_cast<int>(k));
                for (int r = 0; r < rows; ++r) {
                    const float *src = scratch + r * nr;
                    float *dst = cTile + static_cast<std::int64_t>(r) * ldc;
                    for (int col = 0; col < cols; ++col) {
                        dst[col] += src[col];
                    }
                }
            }
        }
    }
}

void
naiveBlockMatmul(const float *a, std::int64_t lda, const float *b,
                 std::int64_t ldb, float *c, std::int64_t ldc,
                 std::int64_t m, std::int64_t n, std::int64_t k)
{
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t p = 0; p < k; ++p) {
            const float av = a[i * lda + p];
            const float *brow = b + p * ldb;
            float *crow = c + i * ldc;
            for (std::int64_t j = 0; j < n; ++j) {
                crow[j] += av * brow[j];
            }
        }
    }
}

} // namespace chimera::kernels
