#include "kernels/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::kernels {

namespace {

/** dst[i] = src[i * stride] for i < n; a literal stride lets it vectorize. */
template <int kStride>
void
copyStrided(const float *src, float *dst, std::int64_t n)
{
    for (std::int64_t i = 0; i < n; ++i) {
        dst[i] = src[i * kStride];
    }
}

void
copyStrided(const float *src, int stride, float *dst, std::int64_t n)
{
    switch (stride) {
      case 1:
        std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
        return;
      case 2: copyStrided<2>(src, dst, n); return;
      case 4: copyStrided<4>(src, dst, n); return;
      default:
        for (std::int64_t i = 0; i < n; ++i) {
            dst[i] = src[i * stride];
        }
    }
}

} // namespace

void
packPatchRow(const float *src, std::int64_t chanStride, std::int64_t h,
             std::int64_t w, std::int64_t chan0, std::int64_t chans,
             std::int64_t outRow, std::int64_t col0, std::int64_t cols,
             int kernel, int stride, int pad, float *dst)
{
    for (std::int64_t c = 0; c < chans; ++c) {
        const float *chanBase = src + (chan0 + c) * chanStride;
        for (int ki = 0; ki < kernel; ++ki) {
            const std::int64_t row = outRow * stride + ki - pad;
            for (int kj = 0; kj < kernel; ++kj) {
                float *out =
                    dst + ((c * kernel + ki) * kernel + kj) * cols;
                if (row < 0 || row >= h) {
                    std::memset(out, 0,
                                static_cast<std::size_t>(cols) *
                                    sizeof(float));
                    continue;
                }
                const float *rowBase = chanBase + row * w;
                for (std::int64_t x = 0; x < cols; ++x) {
                    const std::int64_t col =
                        (col0 + x) * stride + kj - pad;
                    out[x] = (col >= 0 && col < w) ? rowBase[col] : 0.0f;
                }
            }
        }
    }
}

void
packPatchPanels(const float *src, std::int64_t chanStride, std::int64_t h,
                std::int64_t w, std::int64_t chan0, std::int64_t chans,
                std::int64_t outRow, std::int64_t col0, std::int64_t cols,
                int kernel, int stride, int pad, int nr, float *dst)
{
    CHIMERA_ASSERT(nr >= 1 && cols >= 1, "bad patch panel shape");
    const std::int64_t depth = chans * kernel * kernel;
    const std::int64_t panelStride = depth * nr;
    const std::int64_t nPanels = ceilDiv(cols, nr);
    for (std::int64_t c = 0; c < chans; ++c) {
        const float *chanBase = src + (chan0 + c) * chanStride;
        for (int ki = 0; ki < kernel; ++ki) {
            const std::int64_t row = outRow * stride + ki - pad;
            const bool rowIn = row >= 0 && row < h;
            const float *rowBase = rowIn ? chanBase + row * w : nullptr;
            for (int kj = 0; kj < kernel; ++kj) {
                // Column x reads source column x*stride + off; [xLo, xHi)
                // is the in-bounds part (empty when the row is outside).
                const std::int64_t off = col0 * stride + kj - pad;
                std::int64_t xLo = cols;
                std::int64_t xHi = cols;
                if (rowIn) {
                    xLo = std::clamp<std::int64_t>(
                        off >= 0 ? 0 : ceilDiv(-off, stride), 0, cols);
                    xHi = std::clamp<std::int64_t>(
                        w - off <= 0 ? 0 : ceilDiv(w - off, stride), xLo,
                        cols);
                }
                const std::int64_t kk = (c * kernel + ki) * kernel + kj;
                for (std::int64_t p = 0; p < nPanels; ++p) {
                    float *out = dst + p * panelStride + kk * nr;
                    const std::int64_t x0 = p * nr;
                    const std::int64_t lo = std::clamp(xLo, x0, x0 + nr);
                    const std::int64_t hi = std::clamp(xHi, lo, x0 + nr);
                    std::memset(out, 0, static_cast<std::size_t>(lo - x0) *
                                            sizeof(float));
                    if (hi > lo) {
                        copyStrided(rowBase + off + lo * stride, stride,
                                    out + (lo - x0), hi - lo);
                    }
                    std::memset(out + (hi - x0), 0,
                                static_cast<std::size_t>(x0 + nr - hi) *
                                    sizeof(float));
                }
            }
        }
    }
}

} // namespace chimera::kernels
