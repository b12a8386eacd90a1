#pragma once

/**
 * @file
 * Executors for batch GEMM chains (Figure 1a).
 *
 * The fused executor walks the planner's block schedule: regions of the
 * intermediate C (indexed by the b/m/l tiles) are produced fully
 * on-chip by GEMM1, transformed by the fused epilogue, and consumed by
 * GEMM2 before the region buffer is reused — exactly the contract the
 * analytical model assumes. Softmax is fused per §VI-B: exp is applied
 * to the on-chip region, the row sums accumulate alongside GEMM2, and
 * the division is swapped to a final pass over E.
 *
 * The unfused executor is the library-style baseline: GEMM1 to DRAM,
 * epilogue pass, GEMM2 from DRAM — same micro kernel, no cross-operator
 * locality.
 */

#include "exec/compute_engine.hpp"
#include "exec/exec_options.hpp"
#include "ir/builders.hpp"
#include "plan/planner.hpp"
#include "tensor/tensor.hpp"

namespace chimera::exec {

/**
 * Runs the fused chain E = epilogue(A x B) x D under @p plan.
 *
 * Which region loops are distributed across @p options threads is
 * decided by the plan's concurrency table (see analysis/dependence.hpp
 * and plan::effectiveConcurrency), not hardcoded here: under a sound
 * table the batch/m blocks are independent (disjoint E rows and softmax
 * row sums) and run in parallel, while the accumulating l loop runs
 * serially ascending inside each task, so the output is
 * bitwise-identical at every thread count. Axes the analysis does not
 * bless as parallel are refused (executed serially).
 *
 * @param config  Chain shapes and epilogue.
 * @param plan    Planner output for the chain built by makeGemmChain.
 * @param engine  Block compute engine.
 * @param a       [batch?, M, K] input (batch dim only when batch > 1).
 * @param b       [batch?, K, L] input.
 * @param d       [batch?, L, N] input.
 * @param e       [batch?, M, N] output (overwritten).
 * @param options Threading knobs (default: CHIMERA_THREADS/hardware).
 */
void runFusedGemmChain(const ir::GemmChainConfig &config,
                       const plan::ExecutionPlan &plan,
                       const ComputeEngine &engine, const Tensor &a,
                       const Tensor &b, const Tensor &d, Tensor &e,
                       const ExecOptions &options = {});

/** Per-GEMM cache tiles for the unfused baseline. */
struct GemmTiles
{
    std::int64_t tm = 64;
    std::int64_t tn = 64;
    std::int64_t tk = 64;
};

/**
 * Tiled batch GEMM c = a x b (c overwritten), the building block of the
 * unfused baseline. Loops blocks in m-k-n order with the given tiles;
 * the independent (batch, m-tile) blocks are split across threads.
 */
void runTiledBatchGemm(const ComputeEngine &engine, const Tensor &a,
                       const Tensor &b, Tensor &c, const GemmTiles &tiles,
                       const ExecOptions &options = {});

/**
 * Unfused chain: GEMM1 -> DRAM intermediate -> epilogue -> GEMM2.
 *
 * @param scratchC [batch?, M, L] DRAM intermediate (overwritten).
 */
void runUnfusedGemmChain(const ir::GemmChainConfig &config,
                         const ComputeEngine &engine, const Tensor &a,
                         const Tensor &b, const Tensor &d, Tensor &scratchC,
                         Tensor &e, const GemmTiles &tiles1,
                         const GemmTiles &tiles2,
                         const ExecOptions &options = {});

/** Expected tensor shapes for a chain config (batch dim iff batch>1). */
std::vector<std::int64_t> gemmChainShapeA(const ir::GemmChainConfig &c);
std::vector<std::int64_t> gemmChainShapeB(const ir::GemmChainConfig &c);
std::vector<std::int64_t> gemmChainShapeD(const ir::GemmChainConfig &c);
std::vector<std::int64_t> gemmChainShapeE(const ir::GemmChainConfig &c);
std::vector<std::int64_t> gemmChainShapeC(const ir::GemmChainConfig &c);

/**
 * Reference result for the whole chain via the naive oracle (used by
 * tests and benches to validate both executors).
 */
void referenceGemmChain(const ir::GemmChainConfig &config, const Tensor &a,
                        const Tensor &b, const Tensor &d, Tensor &e);

} // namespace chimera::exec
