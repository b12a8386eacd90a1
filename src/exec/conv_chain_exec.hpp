#pragma once

/**
 * @file
 * Executors for convolution chains (Figure 1b).
 *
 * The fused executor materializes, per planned region (b/oc1/oh/ow
 * tiles), the halo-inflated slice of the intermediate feature map in an
 * on-chip buffer: conv1 produces it via implicit GEMM (each row's
 * im2col patch gathered straight into the micro kernel's B panels,
 * against W1 panels packed once per call), the optional ReLU is applied
 * in place, and conv2 consumes it for every oc2 block before the buffer
 * is reused. Overlapping halos between adjacent spatial regions are
 * recomputed, the re-computation cost the paper accepts for 3x3
 * producers (§VI-B).
 *
 * The unfused executor is the library-style baseline: conv1 writes the
 * full intermediate to DRAM, then conv2 reads it back. It packs its
 * weights and gathers its patches the same way, so the two differ by
 * fusion only.
 */

#include "exec/compute_engine.hpp"
#include "exec/exec_options.hpp"
#include "ir/builders.hpp"
#include "plan/planner.hpp"
#include "tensor/tensor.hpp"

namespace chimera::exec {

/** Expected tensor shapes for a conv chain config. */
std::vector<std::int64_t> convChainShapeI(const ir::ConvChainConfig &c);
std::vector<std::int64_t> convChainShapeW1(const ir::ConvChainConfig &c);
std::vector<std::int64_t> convChainShapeW2(const ir::ConvChainConfig &c);
std::vector<std::int64_t> convChainShapeT(const ir::ConvChainConfig &c);
std::vector<std::int64_t> convChainShapeO(const ir::ConvChainConfig &c);

/**
 * Runs the fused chain O = conv2(epilogue(conv1(I, W1)), W2) under
 * @p plan (produced for the chain built by makeConvChain).
 *
 * Which region blocks are distributed across @p options threads is
 * decided by the plan's concurrency table (see analysis/dependence.hpp
 * and plan::effectiveConcurrency), not hardcoded: under a sound table
 * the batch/oh/ow blocks write disjoint output windows and run in
 * parallel, while the oc1 block loop — conv2's reduction dimension —
 * runs serially ascending inside each region, so the output is
 * bitwise-identical at every thread count. Unblessed axes are refused
 * (executed serially).
 */
void runFusedConvChain(const ir::ConvChainConfig &config,
                       const plan::ExecutionPlan &plan,
                       const ComputeEngine &engine, const Tensor &input,
                       const Tensor &w1, const Tensor &w2, Tensor &output,
                       const ExecOptions &options = {});

/** Channel tiles for the unfused per-conv executor. */
struct ConvTiles
{
    std::int64_t toc = 64;
    std::int64_t tic = 64;
};

/**
 * Single tiled NCHW convolution via implicit GEMM (zero-pads like
 * ref::conv2d). Output is overwritten. Independent (batch, output-row)
 * pairs are split across threads.
 */
void runTiledConv2d(const ComputeEngine &engine, const Tensor &input,
                    const Tensor &weight, Tensor &output, int stride,
                    int pad, const ConvTiles &tiles,
                    const ExecOptions &options = {});

/**
 * Unfused chain: conv1 -> DRAM intermediate -> epilogue -> conv2.
 *
 * @param scratchT [batch, OC1, OH1, OW1] DRAM intermediate.
 */
void runUnfusedConvChain(const ir::ConvChainConfig &config,
                         const ComputeEngine &engine, const Tensor &input,
                         const Tensor &w1, const Tensor &w2,
                         Tensor &scratchT, Tensor &output,
                         const ConvTiles &tiles1, const ConvTiles &tiles2,
                         const ExecOptions &options = {});

/** Whole-chain oracle built on ref::conv2d. */
void referenceConvChain(const ir::ConvChainConfig &config,
                        const Tensor &input, const Tensor &w1,
                        const Tensor &w2, Tensor &output);

} // namespace chimera::exec
