#pragma once

/**
 * @file
 * Persistent worker-thread pool with a statically chunked parallelFor.
 *
 * The executors and the inter-block planner only parallelize loops whose
 * iterations are fully independent (disjoint output regions, candidate
 * permutations), so the pool stays deliberately simple: a parallelFor
 * splits [begin, end) into one contiguous chunk per worker, the calling
 * thread executes chunk 0, and the first exception thrown by any worker
 * (lowest worker index wins, deterministically) is rethrown to the
 * caller once every chunk has finished.
 *
 * Thread-count policy, in decreasing precedence:
 *  1. an explicit count handed to the constructor / withSize(),
 *  2. the CHIMERA_THREADS environment variable,
 *  3. std::thread::hardware_concurrency().
 * A resolved count of 1 degenerates to plain serial execution on the
 * calling thread (no worker threads are spawned, exceptions propagate
 * directly).
 */

#include <cstdint>
#include <functional>
#include <memory>

namespace chimera {

/** Hardware thread count; at least 1 even when detection fails. */
int hardwareThreadCount();

/**
 * Threads to use when no explicit count is given: CHIMERA_THREADS when
 * set to a positive integer, otherwise hardwareThreadCount().
 */
int defaultThreadCount();

/** Resolves a requested count: >= 1 is exact, <= 0 defers to
 * defaultThreadCount(). Clamped to a sane upper bound. */
int resolveThreadCount(int requested);

/** Fixed-size pool of persistent worker threads. */
class ThreadPool
{
  public:
    /** @param threads >= 1 exact size; <= 0 uses defaultThreadCount(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of workers, including the calling thread. */
    int size() const;

    /**
     * Calls fn(i, worker) exactly once for every i in [begin, end),
     * splitting the range into size() contiguous chunks (worker w gets
     * chunk w; the calling thread runs chunk 0 as worker 0). Blocks
     * until every chunk finished, then rethrows the first captured
     * exception (by worker index). Nested calls from inside a running
     * chunk execute serially on the calling worker.
     */
    void parallelFor(std::int64_t begin, std::int64_t end,
                     const std::function<void(std::int64_t, int)> &fn);

    /** Process-wide pool sized by defaultThreadCount() at first use. */
    static ThreadPool &global();

    /**
     * Process-wide pool of the resolved size (one persistent pool per
     * distinct size; created lazily and kept for the process lifetime).
     */
    static ThreadPool &withSize(int threads);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Pool for a requested executor/planner thread count: nullptr when the
 * resolved count is 1 (serial), else the shared pool of that size.
 */
ThreadPool *poolForThreads(int threads);

/**
 * parallelFor that tolerates a null pool: runs the loop serially as
 * worker 0 when @p pool is nullptr, else forwards to the pool.
 */
void parallelFor(ThreadPool *pool, std::int64_t begin, std::int64_t end,
                 const std::function<void(std::int64_t, int)> &fn);

/** A worker's contiguous sub-range of a statically split index space. */
struct ChunkRange
{
    std::int64_t begin = 0;
    std::int64_t end = 0; ///< empty when begin == end
};

/**
 * The [begin, end) sub-range of @p total items that @p worker owns under
 * the pool's static contiguous split across @p workers — the split
 * ThreadPool::parallelFor runs. The first (total % workers) workers own
 * one extra item.
 */
ChunkRange staticChunkRange(std::int64_t total, int workers, int worker);

} // namespace chimera
