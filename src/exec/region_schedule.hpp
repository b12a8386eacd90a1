#pragma once

/**
 * @file
 * The region walker every fused executor runs on (Algorithm 1's block
 * walk).
 *
 * A fused chain's region loops are read off the chain, not written per
 * executor: they are the reorderable axes that every operator of the
 * chain loops over, in plan order, blocked by the plan's tiles. That
 * gives b/m/l for a GEMM chain, b/m for the three-GEMM chain and
 * attention, and b/oc1/oh/ow for a conv chain. Everything else (k, n,
 * p, ic, oc2, kernel axes) is private to some operator and is looped
 * inside the executor's block body.
 *
 * The region loops are split by the plan's AxisConcurrency table: a
 * loop joins the parallel task space iff its axis is classified
 * Parallel; every other loop runs serially ascending inside each task.
 * The walker therefore *refuses* to parallelize an axis the dependence
 * analysis (or the plan document) did not bless — and, conversely,
 * honors a plan that mis-declares a reduction axis as parallel, which
 * is exactly what lets the dynamic race checker catch such plans (see
 * analysis/race_checker.hpp).
 *
 * RegionWalker::run owns the rest of the walk: grain chunking of the
 * task space, dispatch over the ExecOptions pool, one scratch buffer
 * per worker, race-checker claims of each region's output window
 * (derived from the output tensor's access map) and the `exec.chunk`
 * trace spans. The executor supplies only the block body.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/exec_options.hpp"
#include "ir/chain.hpp"
#include "plan/planner.hpp"

namespace chimera::exec {

/** One blocked region loop of the walk. */
struct RegionLoop
{
    ir::AxisId axis = -1;
    std::int64_t extent = 1;
    std::int64_t tile = 1;
};

/** One block of an axis: [start, start + size). */
struct BlockRange
{
    std::int64_t start = 0;
    std::int64_t size = 1;
};

/**
 * The region loops of @p chain under @p plan: the reorderable axes every
 * operator loops over, in plan.perm order, with the plan's tiles.
 */
std::vector<RegionLoop> regionLoops(const ir::Chain &chain,
                                    const plan::ExecutionPlan &plan);

/** One region handed to the block body. */
class Region
{
  public:
    /**
     * Block of @p axis in this region: the current block of a region
     * loop, the full extent of any other axis, and the unit range
     * [0, 1) for an axis the chain omits (axis < 0, e.g. the batch axis
     * of an unbatched chain).
     */
    BlockRange block(ir::AxisId axis) const
    {
        return axis < 0 ? BlockRange{}
                        : blocks_[static_cast<std::size_t>(axis)];
    }

    /** Segment @p i of this worker's scratch buffer (64-byte aligned). */
    float *scratch(std::size_t i) const { return scratch_[i]; }

    /** Flat parallel-task index (the race checker's claimant id). */
    std::int64_t task() const { return task_; }

  private:
    friend class RegionWalker;

    std::vector<BlockRange> blocks_;
    std::vector<float *> scratch_;
    std::int64_t task_ = 0;
};

/** Flat task ids one dispatch chunk covered (lo < 0: not reported). */
struct ChunkTasks
{
    std::int64_t lo = -1;
    std::int64_t hi = -1;
};

/**
 * One dispatch phase: runs @p body for every chunk in [0, chunks) on
 * @p pool and, while a trace recorder is installed, records each chunk
 * as an `exec.chunk` span with its chunk and worker (plus
 * task_lo/task_hi when the body reports them).
 */
void dispatchChunks(
    ThreadPool *pool, std::int64_t chunks,
    const std::function<ChunkTasks(std::int64_t chunk, int worker)> &body);

/**
 * Walks the regions of one (chain, plan) under one ExecOptions. The
 * chain and the plan must outlive the walker.
 */
class RegionWalker
{
  public:
    /** Throws Error when @p plan does not fit @p chain. */
    RegionWalker(const ir::Chain &chain, const plan::ExecutionPlan &plan,
                 const ExecOptions &options);

    /** Tile of @p axis (1 for an omitted axis, axis < 0). */
    std::int64_t tile(ir::AxisId axis) const
    {
        return axis < 0 ? 1 : plan_.tiles[static_cast<std::size_t>(axis)];
    }

    /** Region loops distributed across workers, in plan order. */
    const std::vector<RegionLoop> &parallelLoops() const
    {
        return parallel_;
    }

    /** Dispatch chunks under the plan's grain. */
    std::int64_t chunkCount() const;

    /**
     * Runs @p body once per region. Chunks of grain-many consecutive
     * tasks are dispatched over the pool; inside a chunk tasks run
     * ascending, and inside a task the serial loops run ascending, so
     * task ids, per-element accumulation order and output bits are the
     * same at every thread count and grain. Each worker owns one
     * scratch buffer carved into @p scratchFloats aligned segments.
     * With a race checker armed, every region claims its output window
     * before the body runs. @p spanName names the enclosing trace span
     * (args: chunks, workers).
     */
    void run(const char *spanName,
             const std::vector<std::size_t> &scratchFloats,
             const std::function<void(const Region &)> &body) const;

  private:
    const ir::Chain &chain_;
    const plan::ExecutionPlan &plan_;
    ExecOptions options_;
    ThreadPool *pool_ = nullptr;
    std::vector<RegionLoop> parallel_;
    std::vector<RegionLoop> serial_;
    std::vector<std::int64_t> grain_; ///< aligned with parallel_
};

/**
 * Names of the chain axes a fused executor distributes across workers
 * for @p plan — exactly the region loops the concurrency table blesses
 * as parallel, in plan order. Lets tests cross-check executor behavior
 * against the analysis.
 */
std::vector<std::string> fusedParallelAxes(const ir::Chain &chain,
                                           const plan::ExecutionPlan &plan);

} // namespace chimera::exec
