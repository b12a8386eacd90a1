#pragma once

/**
 * @file
 * The compute engine used inside one computation block: either the
 * replaceable micro kernel path (packed panels + register tiles) or the
 * naive strided loop nest. The ablation study's "micro kernel" knob
 * (Figure 10) toggles between the two.
 */

#include <cstdint>

#include "kernels/block_matmul.hpp"
#include "kernels/micro_kernel.hpp"

namespace chimera::exec {

/**
 * One matmul operand: a row-major strided view, plus panels already in
 * the engine's packed layout when the caller holds them. The
 * micro-kernel backend reads set panels in place and packs the view
 * otherwise; backends without a panel layout read the view only.
 */
struct Operand
{
    const float *data = nullptr;
    std::int64_t ld = 0;
    kernels::PanelView panels;
};

/** Dispatches block matmuls to the selected implementation. */
class ComputeEngine
{
  public:
    /** Engine using the widest micro kernel for the running CPU. */
    static ComputeEngine best();

    /** Engine using the scalar reference micro kernel. */
    static ComputeEngine scalar();

    /** Engine bypassing micro kernels entirely (ablation v without M). */
    static ComputeEngine naive();

    /**
     * Engine backed by the emulated NPU cube-unit `mad` kernel (§V-B):
     * operands are packed into the fractal layout per block and the
     * six-loop mad computation runs on the host. Demonstrates the
     * replaceable-micro-kernel substitution at executor level — every
     * fused executor runs unchanged on this backend.
     */
    static ComputeEngine emulatedNpu();

    /** Engine backed by the emulated GPU mma 2x2-fragment kernel. */
    static ComputeEngine emulatedGpu();

    /** Engine pinned to a specific registered kernel. */
    explicit ComputeEngine(const kernels::MicroKernel &kernel);

    /**
     * C[m x n] += A[m x k] * B[k x n] on strided fp32 buffers.
     *
     * Thread-safe on a shared const engine: packing buffers come from a
     * per-thread workspace, so concurrent matmul calls from pool
     * workers never race (each worker reuses its own buffers).
     */
    void matmul(const float *a, std::int64_t lda, const float *b,
                std::int64_t ldb, float *c, std::int64_t ldc,
                std::int64_t m, std::int64_t n, std::int64_t k) const;

    /**
     * C[m x n] += A[m x k] * B[k x n] where either operand may come as
     * panels in the layout panelRows()/panelCols() describe. Bitwise
     * the same as the strided matmul on the views the panels hold.
     */
    void matmul(const Operand &a, const Operand &b, float *c,
                std::int64_t ldc, std::int64_t m, std::int64_t n,
                std::int64_t k) const;

    /**
     * Panel height (mr) and width (nr) of the packed operands matmul
     * reads; 0 for backends that read strided views only, which must
     * then be given no panels.
     */
    int panelRows() const;
    int panelCols() const;

    /** Name for reports ("avx512_6x64", "naive", ...). */
    const char *name() const;

  private:
    enum class Backend
    {
        MicroKernel, ///< packed panels + registered CPU kernel
        Naive, ///< plain strided loops
        NpuMad, ///< emulated cube-unit mad (fractal packing)
        GpuMma, ///< emulated Tensor-Core fragments (2x2 tiles)
    };

    ComputeEngine() = default;

    Backend backend_ = Backend::Naive;
    const kernels::MicroKernel *kernel_ = nullptr;
};

} // namespace chimera::exec
