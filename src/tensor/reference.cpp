#include "tensor/reference.hpp"

#include <cmath>
#include <limits>

#include "ir/chain.hpp"
#include "support/error.hpp"

namespace chimera::ref {

void
gemm(const Tensor &a, const Tensor &b, Tensor &c)
{
    CHIMERA_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
                  "gemm expects rank-2 tensors");
    const std::int64_t m = a.shape()[0];
    const std::int64_t k = a.shape()[1];
    const std::int64_t n = b.shape()[1];
    CHIMERA_CHECK(b.shape()[0] == k && c.shape()[0] == m && c.shape()[1] == n,
                  "gemm shape mismatch");
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::int64_t p = 0; p < k; ++p) {
                acc += pa[i * k + p] * pb[p * n + j];
            }
            pc[i * n + j] = acc;
        }
    }
}

void
batchGemm(const Tensor &a, const Tensor &b, Tensor &c)
{
    CHIMERA_CHECK(a.rank() == 3 && b.rank() == 3 && c.rank() == 3,
                  "batchGemm expects rank-3 tensors");
    const std::int64_t batch = a.shape()[0];
    const std::int64_t m = a.shape()[1];
    const std::int64_t k = a.shape()[2];
    const std::int64_t n = b.shape()[2];
    CHIMERA_CHECK(b.shape()[0] == batch && b.shape()[1] == k &&
                      c.shape()[0] == batch && c.shape()[1] == m &&
                      c.shape()[2] == n,
                  "batchGemm shape mismatch");
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    for (std::int64_t bi = 0; bi < batch; ++bi) {
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (std::int64_t p = 0; p < k; ++p) {
                    acc += pa[(bi * m + i) * k + p] * pb[(bi * k + p) * n + j];
                }
                pc[(bi * m + i) * n + j] = acc;
            }
        }
    }
}

std::int64_t
convOutDim(std::int64_t in, std::int64_t kernel, int stride, int pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

void
conv2d(const Tensor &input, const Tensor &weight, Tensor &output, int stride,
       int pad)
{
    CHIMERA_CHECK(input.rank() == 4 && weight.rank() == 4 &&
                      output.rank() == 4,
                  "conv2d expects rank-4 tensors");
    const std::int64_t n = input.shape()[0];
    const std::int64_t c = input.shape()[1];
    const std::int64_t h = input.shape()[2];
    const std::int64_t w = input.shape()[3];
    const std::int64_t oc = weight.shape()[0];
    const std::int64_t kh = weight.shape()[2];
    const std::int64_t kw = weight.shape()[3];
    const std::int64_t oh = convOutDim(h, kh, stride, pad);
    const std::int64_t ow = convOutDim(w, kw, stride, pad);
    CHIMERA_CHECK(weight.shape()[1] == c, "conv2d channel mismatch");
    CHIMERA_CHECK(output.shape()[0] == n && output.shape()[1] == oc &&
                      output.shape()[2] == oh && output.shape()[3] == ow,
                  "conv2d output shape mismatch");

    const float *pi = input.data();
    const float *pw = weight.data();
    float *po = output.data();
    for (std::int64_t ni = 0; ni < n; ++ni) {
        for (std::int64_t oci = 0; oci < oc; ++oci) {
            for (std::int64_t ohi = 0; ohi < oh; ++ohi) {
                for (std::int64_t owi = 0; owi < ow; ++owi) {
                    float acc = 0.0f;
                    for (std::int64_t ci = 0; ci < c; ++ci) {
                        for (std::int64_t khi = 0; khi < kh; ++khi) {
                            const std::int64_t hi =
                                ohi * stride + khi - pad;
                            if (hi < 0 || hi >= h) {
                                continue;
                            }
                            for (std::int64_t kwi = 0; kwi < kw; ++kwi) {
                                const std::int64_t wi =
                                    owi * stride + kwi - pad;
                                if (wi < 0 || wi >= w) {
                                    continue;
                                }
                                acc += pi[((ni * c + ci) * h + hi) * w + wi] *
                                       pw[((oci * c + ci) * kh + khi) * kw +
                                          kwi];
                            }
                        }
                    }
                    po[((ni * oc + oci) * oh + ohi) * ow + owi] = acc;
                }
            }
        }
    }
}

void
reluInPlace(Tensor &t)
{
    float *p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        p[i] = p[i] > 0.0f ? p[i] : 0.0f;
    }
}

void
softmaxLastDim(Tensor &t)
{
    CHIMERA_CHECK(t.rank() >= 1, "softmax needs at least rank 1");
    const std::int64_t cols = t.shape().back();
    const std::int64_t rows = t.numel() / cols;
    float *p = t.data();
    for (std::int64_t r = 0; r < rows; ++r) {
        float *row = p + r * cols;
        float maxVal = row[0];
        for (std::int64_t j = 1; j < cols; ++j) {
            maxVal = std::max(maxVal, row[j]);
        }
        float sum = 0.0f;
        for (std::int64_t j = 0; j < cols; ++j) {
            row[j] = std::exp(row[j] - maxVal);
            sum += row[j];
        }
        const float inv = 1.0f / sum;
        for (std::int64_t j = 0; j < cols; ++j) {
            row[j] *= inv;
        }
    }
}

void
chainEpilogue(Tensor &scores, ir::Epilogue epilogue, float softmaxScale,
              bool causalMask)
{
    if (epilogue == ir::Epilogue::Relu) {
        reluInPlace(scores);
        return;
    }
    if (epilogue != ir::Epilogue::Softmax) {
        return;
    }
    float *p = scores.data();
    for (std::int64_t i = 0; i < scores.numel(); ++i) {
        p[i] *= softmaxScale;
    }
    if (causalMask) {
        const std::int64_t cols = scores.shape().back();
        const std::int64_t rows = scores.shape()[scores.rank() - 2];
        for (std::int64_t row = 0; row < scores.numel() / cols; ++row) {
            for (std::int64_t j = row % rows + 1; j < cols; ++j) {
                p[row * cols + j] = -std::numeric_limits<float>::infinity();
            }
        }
    }
    softmaxLastDim(scores);
}

void
add(const Tensor &a, const Tensor &b, Tensor &out)
{
    CHIMERA_CHECK(a.shape() == b.shape() && a.shape() == out.shape(),
                  "add shape mismatch");
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        po[i] = pa[i] + pb[i];
    }
}

void
addBiasLastDim(Tensor &t, const Tensor &bias)
{
    CHIMERA_CHECK(bias.rank() == 1 && bias.shape()[0] == t.shape().back(),
                  "bias length must match the last dimension");
    const std::int64_t cols = t.shape().back();
    const std::int64_t rows = t.numel() / cols;
    float *p = t.data();
    const float *pb = bias.data();
    for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t j = 0; j < cols; ++j) {
            p[r * cols + j] += pb[j];
        }
    }
}

void
geluInPlace(Tensor &t)
{
    constexpr float kSqrt2OverPi = 0.7978845608028654f;
    float *p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        const float x = p[i];
        const float inner = kSqrt2OverPi * (x + 0.044715f * x * x * x);
        p[i] = 0.5f * x * (1.0f + std::tanh(inner));
    }
}

void
layerNormLastDim(Tensor &t, const Tensor &gamma, const Tensor &beta,
                 float epsilon)
{
    const std::int64_t cols = t.shape().back();
    CHIMERA_CHECK(gamma.rank() == 1 && gamma.shape()[0] == cols &&
                      beta.rank() == 1 && beta.shape()[0] == cols,
                  "layernorm gamma/beta must match the last dimension");
    const std::int64_t rows = t.numel() / cols;
    float *p = t.data();
    const float *pg = gamma.data();
    const float *pbt = beta.data();
    for (std::int64_t r = 0; r < rows; ++r) {
        float *row = p + r * cols;
        float mean = 0.0f;
        for (std::int64_t j = 0; j < cols; ++j) {
            mean += row[j];
        }
        mean /= static_cast<float>(cols);
        float var = 0.0f;
        for (std::int64_t j = 0; j < cols; ++j) {
            const float d = row[j] - mean;
            var += d * d;
        }
        var /= static_cast<float>(cols);
        const float invStd = 1.0f / std::sqrt(var + epsilon);
        for (std::int64_t j = 0; j < cols; ++j) {
            row[j] = (row[j] - mean) * invStd * pg[j] + pbt[j];
        }
    }
}

} // namespace chimera::ref
