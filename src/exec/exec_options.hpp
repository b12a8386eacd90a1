#pragma once

/**
 * @file
 * Runtime knobs every executor entry point accepts: the worker-thread
 * policy (or an explicit pool) and an optional race checker. The fused
 * executors hand them to the region walker (exec/region_schedule.hpp),
 * the unfused ones to dispatchChunks. The plan itself (order, tiles,
 * grain) stays a planner concern.
 */

#include "analysis/race_checker.hpp"
#include "support/thread_pool.hpp"

namespace chimera::exec {

/** Execution-time options accepted by every executor entry point. */
struct ExecOptions
{
    /**
     * Worker threads for the independent block loops: >= 1 is an exact
     * count (1 = serial), <= 0 defers to CHIMERA_THREADS and then
     * hardware_concurrency. Outputs are bitwise-identical at every
     * thread count: only dependence-free block loops are split across
     * workers and reduction loops keep their serial ascending order.
     */
    int threads = 0;

    /** Explicit pool override; wins over @ref threads when non-null. */
    ThreadPool *pool = nullptr;

    /**
     * Optional shadow-memory race checker (see analysis/race_checker.hpp).
     * When non-null every parallel task tags the output elements it
     * writes; two distinct tasks claiming the same element is recorded
     * as a conflict. The checker must be sized to the executor's output
     * element count. Detection is keyed on the deterministic block-task
     * index, so it works — and is typically run — with a serial
     * execution of the suspect plan.
     */
    analysis::RaceChecker *raceCheck = nullptr;
};

/** Pool an executor should run on; nullptr means run serially. */
inline ThreadPool *
execPool(const ExecOptions &options)
{
    return options.pool != nullptr ? options.pool
                                   : poolForThreads(options.threads);
}

/** Per-thread scratch-buffer count for a resolved pool. */
inline int
execWorkerCount(const ThreadPool *pool)
{
    return pool == nullptr ? 1 : pool->size();
}

} // namespace chimera::exec
