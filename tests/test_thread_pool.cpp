/**
 * @file
 * Unit tests for the worker-thread pool: exact range coverage, worker
 * indices, exception propagation, the serial degenerate cases, and the
 * CHIMERA_THREADS / explicit-count resolution policy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace chimera {
namespace {

/** Scoped CHIMERA_THREADS override; restores the prior value on exit. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        const char *prev = std::getenv("CHIMERA_THREADS");
        hadPrev_ = prev != nullptr;
        if (hadPrev_) {
            prev_ = prev;
        }
        if (value == nullptr) {
            ::unsetenv("CHIMERA_THREADS");
        } else {
            ::setenv("CHIMERA_THREADS", value, 1);
        }
    }

    ~ScopedThreadsEnv()
    {
        if (hadPrev_) {
            ::setenv("CHIMERA_THREADS", prev_.c_str(), 1);
        } else {
            ::unsetenv("CHIMERA_THREADS");
        }
    }

  private:
    bool hadPrev_ = false;
    std::string prev_;
};

TEST(ThreadPool, CoversFullRangeExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    // 103 is deliberately not a multiple of 4 to exercise the remainder
    // distribution. Each index is visited by exactly one worker, so the
    // per-index slots need no synchronization.
    const std::int64_t n = 103;
    std::vector<int> visits(static_cast<std::size_t>(n), 0);
    std::vector<int> workerOf(static_cast<std::size_t>(n), -1);
    pool.parallelFor(0, n, [&](std::int64_t i, int worker) {
        visits[static_cast<std::size_t>(i)] += 1;
        workerOf[static_cast<std::size_t>(i)] = worker;
    });
    for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[static_cast<std::size_t>(i)], 1) << "index " << i;
        EXPECT_GE(workerOf[static_cast<std::size_t>(i)], 0);
        EXPECT_LT(workerOf[static_cast<std::size_t>(i)], pool.size());
    }
}

TEST(ThreadPool, ChunksAreContiguousPerWorker)
{
    ThreadPool pool(3);
    const std::int64_t n = 10;
    std::vector<int> workerOf(static_cast<std::size_t>(n), -1);
    pool.parallelFor(0, n, [&](std::int64_t i, int worker) {
        workerOf[static_cast<std::size_t>(i)] = worker;
    });
    // Static chunking: worker ids are non-decreasing over the range and
    // the calling thread owns chunk 0.
    EXPECT_EQ(workerOf.front(), 0);
    for (std::int64_t i = 1; i < n; ++i) {
        EXPECT_GE(workerOf[static_cast<std::size_t>(i)],
                  workerOf[static_cast<std::size_t>(i - 1)]);
    }
    // The split is exactly staticChunkRange's, offset by the range start.
    const std::int64_t begin = 5;
    pool.parallelFor(begin, begin + n, [&](std::int64_t i, int worker) {
        workerOf[static_cast<std::size_t>(i - begin)] = worker;
    });
    for (int w = 0; w < pool.size(); ++w) {
        const ChunkRange range = staticChunkRange(n, pool.size(), w);
        for (std::int64_t i = range.begin; i < range.end; ++i) {
            EXPECT_EQ(workerOf[static_cast<std::size_t>(i)], w)
                << "index " << i;
        }
    }
}

TEST(ThreadPool, EmptyAndNegativeRangesRunNothing)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(5, 5, [&](std::int64_t, int) { ++calls; });
    pool.parallelFor(7, 2, [&](std::int64_t, int) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, PropagatesWorkerException)
{
    ThreadPool pool(4);
    // Thrown from a non-caller chunk: index near the end of the range.
    EXPECT_THROW(pool.parallelFor(0, 64,
                                  [&](std::int64_t i, int) {
                                      if (i == 63) {
                                          throw std::runtime_error("boom");
                                      }
                                  }),
                 std::runtime_error);
    // The pool survives a throwing job and runs the next one cleanly.
    std::atomic<int> calls{0};
    pool.parallelFor(0, 16, [&](std::int64_t, int) { ++calls; });
    EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPool, PropagatesCallerChunkException)
{
    ThreadPool pool(2);
    // Index 0 always belongs to the calling thread's chunk.
    EXPECT_THROW(pool.parallelFor(0, 8,
                                  [&](std::int64_t i, int) {
                                      if (i == 0) {
                                          throw std::runtime_error("boom");
                                      }
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, PoolOfOneRunsSeriallyOnCallingThread)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::int64_t next = 0;
    pool.parallelFor(0, 20, [&](std::int64_t i, int worker) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(worker, 0);
        EXPECT_EQ(i, next); // strictly in order: plain serial loop
        ++next;
    });
    EXPECT_EQ(next, 20);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int> inner{0};
    pool.parallelFor(0, 4, [&](std::int64_t, int) {
        // A nested call must not deadlock on the same pool; it runs
        // serially on the current worker.
        pool.parallelFor(0, 8, [&](std::int64_t, int worker) {
            EXPECT_EQ(worker, 0);
            ++inner;
        });
    });
    EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, NullPoolHelperRunsSerially)
{
    std::int64_t next = 3;
    parallelFor(nullptr, 3, 9, [&](std::int64_t i, int worker) {
        EXPECT_EQ(worker, 0);
        EXPECT_EQ(i, next);
        ++next;
    });
    EXPECT_EQ(next, 9);
}

TEST(ThreadCount, ExplicitRequestWinsOverEnvironment)
{
    ScopedThreadsEnv env("7");
    EXPECT_EQ(resolveThreadCount(3), 3);
    EXPECT_EQ(resolveThreadCount(1), 1);
    EXPECT_EQ(resolveThreadCount(0), 7);
    EXPECT_EQ(resolveThreadCount(-2), 7);
}

TEST(ThreadCount, EnvForcesSerialExecution)
{
    ScopedThreadsEnv env("1");
    EXPECT_EQ(defaultThreadCount(), 1);
    // Serial resolution yields no pool at all: the executors fall back
    // to the plain in-thread loop.
    EXPECT_EQ(poolForThreads(0), nullptr);
    EXPECT_EQ(poolForThreads(1), nullptr);
}

TEST(ThreadCount, MalformedEnvFallsBackToHardware)
{
    ScopedThreadsEnv env("bananas");
    EXPECT_EQ(defaultThreadCount(), hardwareThreadCount());
}

TEST(ThreadCount, PartiallyNumericEnvIsRejectedWhole)
{
    // "4abc" used to be silently truncated to 4 threads by strtol; the
    // whole token must now be rejected, like any other malformed value.
    ScopedThreadsEnv env("4abc");
    EXPECT_EQ(defaultThreadCount(), hardwareThreadCount());
}

TEST(ThreadCount, NonPositiveEnvIsRejected)
{
    {
        ScopedThreadsEnv env("0");
        EXPECT_EQ(defaultThreadCount(), hardwareThreadCount());
    }
    {
        ScopedThreadsEnv env("-3");
        EXPECT_EQ(defaultThreadCount(), hardwareThreadCount());
    }
}

TEST(ThreadCount, SharedPoolsArePersistentPerSize)
{
    ThreadPool *a = poolForThreads(2);
    ThreadPool *b = poolForThreads(2);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a->size(), 2);
    ThreadPool *c = poolForThreads(3);
    ASSERT_NE(c, nullptr);
    EXPECT_NE(a, c);
    EXPECT_EQ(c->size(), 3);
}

TEST(StaticChunk, RangesPartitionTheTotalInOrder)
{
    for (std::int64_t total : {1, 3, 7, 8, 9, 64, 103}) {
        for (int workers : {1, 2, 3, 4, 8, 16}) {
            std::int64_t next = 0;
            for (int w = 0; w < workers; ++w) {
                const ChunkRange range =
                    staticChunkRange(total, workers, w);
                EXPECT_EQ(range.begin, next)
                    << "total " << total << " workers " << workers
                    << " worker " << w;
                EXPECT_GE(range.end, range.begin);
                next = range.end;
                // The remainder goes to the first workers: sizes never
                // differ by more than one and never increase.
                const std::int64_t size = range.end - range.begin;
                EXPECT_LE(size, total / workers + 1);
            }
            EXPECT_EQ(next, total)
                << "total " << total << " workers " << workers;
        }
    }
}

TEST(StaticChunk, DegenerateInputsAreEmptyOrClamped)
{
    const ChunkRange empty = staticChunkRange(0, 4, 0);
    EXPECT_EQ(empty.begin, empty.end);
    const ChunkRange outside = staticChunkRange(8, 4, 7);
    EXPECT_EQ(outside.begin, outside.end);
}

TEST(StaticChunk, ExhaustivePropertySweepIncludingMoreWorkersThanWork)
{
    // Exhaustive over the regime the dispatchers actually hit, with
    // the edge cases deliberately inside the sweep: total == 0
    // (everything empty) and workers > total (the trailing workers own
    // empty ranges).
    for (std::int64_t total = 0; total <= 40; ++total) {
        for (int workers = 1; workers <= 48; ++workers) {
            std::int64_t next = 0;
            std::int64_t previousSize = total + 1;
            for (int w = 0; w < workers; ++w) {
                const ChunkRange range =
                    staticChunkRange(total, workers, w);
                ASSERT_EQ(range.begin, next)
                    << "gap/overlap at total " << total << " workers "
                    << workers << " worker " << w;
                ASSERT_GE(range.end, range.begin);
                const std::int64_t size = range.end - range.begin;
                ASSERT_LE(size, previousSize)
                    << "sizes must be non-increasing";
                previousSize = size;
                next = range.end;
            }
            ASSERT_EQ(next, total);
        }
    }
}

} // namespace
} // namespace chimera
