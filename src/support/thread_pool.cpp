#include "support/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/logging.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace chimera {

namespace {

/** Backstop against absurd CHIMERA_THREADS values / requests. */
constexpr int kMaxThreads = 256;

#ifdef __linux__
/**
 * Whether CHIMERA_AFFINITY requests pinning. Read exactly once, under
 * the magic-static lock of the first caller: getenv is not safe against
 * concurrent setenv (clang-tidy concurrency-mt-unsafe), and every pool
 * worker consults this on startup — a per-worker getenv would race with
 * any test that mutates the environment while a pool spins up.
 */
bool
affinityRequested()
{
    static const bool requested = [] {
        // NOLINTNEXTLINE(concurrency-mt-unsafe): single read at first
        // use; the process does not setenv concurrently with pool start.
        const char *env = std::getenv("CHIMERA_AFFINITY");
        return env != nullptr && *env != '\0' &&
               !(env[0] == '0' && env[1] == '\0');
    }();
    return requested;
}
#endif

/** CHIMERA_AFFINITY=1: pin pool worker @p worker compactly (Linux). */
void
maybePinWorker(int worker)
{
#ifdef __linux__
    if (!affinityRequested()) {
        return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(worker % hardwareThreadCount()), &set);
    if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0) {
        static std::once_flag warned;
        std::call_once(warned, [] {
            CHIMERA_WARN(
                "CHIMERA_AFFINITY is set but pinning failed; workers"
                " run unpinned");
        });
    }
#else
    (void)worker;
#endif
}

/**
 * Set while this thread is executing a parallelFor chunk; nested
 * parallelFor calls then run inline so a loop body that itself calls a
 * parallelized routine cannot deadlock waiting on its own pool.
 */
thread_local bool tlsInsideChunk = false;

} // namespace

int
hardwareThreadCount()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

int
defaultThreadCount()
{
    // Copy the value out immediately: getenv's result can be
    // invalidated by a concurrent setenv (which is why clang-tidy's
    // concurrency-mt-unsafe flags it), and the tests legitimately
    // re-point CHIMERA_THREADS between calls, so the read cannot be
    // cached in a static. The single justified read keeps the exposure
    // to the one pointer dereference below.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): deliberate re-read; the
    // value is copied to owned storage before any further work.
    const char *raw = std::getenv("CHIMERA_THREADS");
    const std::string env = raw == nullptr ? std::string() : raw;
    if (!env.empty()) {
        errno = 0;
        char *end = nullptr;
        const long v = std::strtol(env.c_str(), &end, 10);
        const bool fullToken = *end == '\0';
        if (fullToken && errno == 0 && v >= 1) {
            return static_cast<int>(
                std::min<long>(v, static_cast<long>(kMaxThreads)));
        }
        // "4abc" must not silently run with 4 threads, nor "abc" with
        // a silent fallback: reject the whole token, warn once.
        static std::once_flag warned;
        std::call_once(warned, [&env] {
            CHIMERA_WARN("ignoring invalid CHIMERA_THREADS value \""
                         << env
                         << "\" (expected an integer >= 1); using the "
                            "hardware thread count");
        });
    }
    return hardwareThreadCount();
}

int
resolveThreadCount(int requested)
{
    if (requested >= 1) {
        return std::min(requested, kMaxThreads);
    }
    return defaultThreadCount();
}

struct ThreadPool::Impl
{
    explicit Impl(int size) : size_(size)
    {
        threads_.reserve(static_cast<std::size_t>(size_ - 1));
        for (int w = 1; w < size_; ++w) {
            threads_.emplace_back([this, w] { workerLoop(w); });
        }
    }

    ~Impl()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : threads_) {
            t.join();
        }
    }

    /** Contiguous chunk of the current job owned by @p worker. */
    void
    runChunk(int worker)
    {
        const ChunkRange range =
            staticChunkRange(end_ - begin_, size_, worker);
        tlsInsideChunk = true;
        try {
            for (std::int64_t i = begin_ + range.begin;
                 i < begin_ + range.end; ++i) {
                (*fn_)(i, worker);
            }
        } catch (...) {
            errors_[static_cast<std::size_t>(worker)] =
                std::current_exception();
        }
        tlsInsideChunk = false;
    }

    void
    workerLoop(int worker)
    {
        maybePinWorker(worker);
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(m_);
                wake_.wait(lock,
                           [&] { return stop_ || generation_ != seen; });
                if (stop_) {
                    return;
                }
                seen = generation_;
            }
            runChunk(worker);
            {
                std::lock_guard<std::mutex> lock(m_);
                if (--pending_ == 0) {
                    done_.notify_all();
                }
            }
        }
    }

    void
    parallelFor(std::int64_t begin, std::int64_t end,
                const std::function<void(std::int64_t, int)> &fn)
    {
        if (end <= begin) {
            return;
        }
        if (size_ == 1 || tlsInsideChunk) {
            for (std::int64_t i = begin; i < end; ++i) {
                fn(i, 0);
            }
            return;
        }
        // One job at a time; concurrent external submissions queue here.
        std::lock_guard<std::mutex> job(jobMutex_);
        errors_.assign(static_cast<std::size_t>(size_), nullptr);
        {
            std::lock_guard<std::mutex> lock(m_);
            fn_ = &fn;
            begin_ = begin;
            end_ = end;
            pending_ = size_ - 1;
            ++generation_;
        }
        wake_.notify_all();
        runChunk(0);
        {
            std::unique_lock<std::mutex> lock(m_);
            done_.wait(lock, [&] { return pending_ == 0; });
        }
        for (std::exception_ptr &err : errors_) {
            if (err) {
                std::rethrow_exception(err);
            }
        }
    }

    const int size_;
    std::vector<std::thread> threads_;

    std::mutex jobMutex_; ///< serializes parallelFor submissions

    std::mutex m_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::uint64_t generation_ = 0;
    int pending_ = 0;
    bool stop_ = false;

    // Current job; written under m_ before the generation bump, read by
    // workers only after observing the new generation under m_.
    const std::function<void(std::int64_t, int)> *fn_ = nullptr;
    std::int64_t begin_ = 0;
    std::int64_t end_ = 0;
    std::vector<std::exception_ptr> errors_;
};

ThreadPool::ThreadPool(int threads)
    : impl_(std::make_unique<Impl>(resolveThreadCount(threads)))
{
}

ThreadPool::~ThreadPool() = default;

int
ThreadPool::size() const
{
    return impl_->size_;
}

void
ThreadPool::parallelFor(std::int64_t begin, std::int64_t end,
                        const std::function<void(std::int64_t, int)> &fn)
{
    impl_->parallelFor(begin, end, fn);
}

ThreadPool &
ThreadPool::withSize(int threads)
{
    static std::mutex mu;
    static std::map<int, std::unique_ptr<ThreadPool>> pools;
    const int n = resolveThreadCount(threads);
    std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<ThreadPool> &slot = pools[n];
    if (!slot) {
        slot = std::make_unique<ThreadPool>(n);
    }
    return *slot;
}

ThreadPool &
ThreadPool::global()
{
    return withSize(0);
}

ThreadPool *
poolForThreads(int threads)
{
    const int n = resolveThreadCount(threads);
    return n <= 1 ? nullptr : &ThreadPool::withSize(n);
}

void
parallelFor(ThreadPool *pool, std::int64_t begin, std::int64_t end,
            const std::function<void(std::int64_t, int)> &fn)
{
    if (pool == nullptr) {
        for (std::int64_t i = begin; i < end; ++i) {
            fn(i, 0);
        }
        return;
    }
    pool->parallelFor(begin, end, fn);
}

ChunkRange
staticChunkRange(std::int64_t total, int workers, int worker)
{
    if (total <= 0 || workers <= 0 || worker < 0 || worker >= workers) {
        return {};
    }
    const std::int64_t per = total / workers;
    const std::int64_t rem = total % workers;
    const std::int64_t start =
        worker * per + std::min<std::int64_t>(worker, rem);
    return {start, start + per + (worker < rem ? 1 : 0)};
}

} // namespace chimera
