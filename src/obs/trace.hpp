#pragma once

/**
 * @file
 * Structured tracing: monotonic-clock spans with typed key/value args,
 * collected in per-thread lock-free buffers and exported as Chrome
 * trace-event JSON (loadable in Perfetto or chrome://tracing).
 *
 * Cost model:
 *  - Disabled (the default): `obs::trace()` is a single relaxed atomic
 *    load returning nullptr; a `Span` constructed with nullptr does
 *    nothing — no clock read, no allocation. bench/obs_overhead
 *    measures this path at ~1 ns/span.
 *  - Enabled: each completed span appends one event to the calling
 *    thread's buffer. The append takes no lock in steady state
 *    (segmented storage: a mutex is touched only when a thread's
 *    buffer grows by another 512-event segment).
 *
 * Enabling:
 *  - `CHIMERA_TRACE=1` turns the global recorder on for the process;
 *    if the value contains '/' or ends in ".json" it is treated as an
 *    output path and the trace is written there at process exit.
 *  - Programmatic: `TraceRecorder::enableGlobal()` (used by the
 *    `--trace-out` CLI flags), then `writeJson(path)` when done.
 *
 * All spans share one clock — `obs::nowNanos()`, steady_clock
 * nanoseconds since a process-wide epoch — so the executors'
 * per-chunk `exec.chunk` spans and the enclosing spans share one
 * timeline.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chimera::obs
{

/** Steady-clock nanoseconds since a process-wide epoch (first call). */
std::int64_t nowNanos() noexcept;

/** One typed key/value span argument. Keys must be string literals. */
struct TraceArg
{
    enum class Kind : std::uint8_t
    {
        Int,
        Float,
        Str
    };

    TraceArg() = default;
    TraceArg(const char *k, std::int64_t v) : key(k), kind(Kind::Int), i(v) {}
    TraceArg(const char *k, double v) : key(k), kind(Kind::Float), f(v) {}
    TraceArg(const char *k, std::string v) : key(k), kind(Kind::Str), s(std::move(v)) {}

    const char *key = "";
    Kind kind = Kind::Int;
    std::int64_t i = 0;
    double f = 0.0;
    std::string s;
};

/**
 * Collects trace events from any number of threads. Event name and
 * category pointers must outlive the recorder (string literals).
 */
class TraceRecorder
{
public:
    TraceRecorder();
    ~TraceRecorder();
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /// Record a complete span ("ph":"X") on the calling thread's track.
    void complete(const char *name, const char *cat, std::int64_t startNanos,
                  std::int64_t durNanos, std::vector<TraceArg> args = {});

    /// Record an instant event ("ph":"i") at now.
    void instant(const char *name, const char *cat, std::vector<TraceArg> args = {});

    /// Label the calling thread's track in trace viewers.
    void nameThread(const std::string &name);

    /// Events recorded so far (drops excluded).
    std::int64_t eventCount() const;

    /// Events dropped after a thread hit its buffer cap.
    std::int64_t droppedCount() const;

    /// Serialize everything recorded so far as Chrome trace-event JSON.
    std::string toJson() const;

    /// toJson() to a file; throws chimera::Error on IO failure.
    void writeJson(const std::string &path) const;

    /**
     * The process-wide recorder, or nullptr when tracing is disabled.
     * First call consults CHIMERA_TRACE; afterwards this is one
     * relaxed atomic load.
     */
    static TraceRecorder *global() noexcept;

    /// Turn the global recorder on (idempotent); returns it.
    static TraceRecorder *enableGlobal();

    struct Event;
    struct Buffer; ///< opaque; public only for the internal TLS cache

private:
    Buffer &threadBuffer();
    void append(Event &&event);

    const std::uint64_t id_; ///< distinguishes recorders in the TLS cache
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<Buffer>> buffers_;
    std::atomic<std::int64_t> dropped_{0};
};

/** Shorthand for TraceRecorder::global(). */
inline TraceRecorder *trace() noexcept
{
    return TraceRecorder::global();
}

/**
 * RAII span: captures the start time on construction (when the
 * recorder is non-null) and records a complete event on destruction
 * or at end(). Args attach via the fluent arg() overloads; all are
 * no-ops when the span was constructed with a null recorder.
 */
class Span
{
public:
    Span(TraceRecorder *recorder, const char *name, const char *cat) noexcept
        : recorder_(recorder), name_(name), cat_(cat)
    {
        if (recorder_ != nullptr)
            start_ = nowNanos();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span() { end(); }

    Span &arg(const char *key, std::int64_t v)
    {
        if (recorder_ != nullptr)
            args_.emplace_back(key, v);
        return *this;
    }

    Span &arg(const char *key, int v) { return arg(key, static_cast<std::int64_t>(v)); }

    Span &arg(const char *key, double v)
    {
        if (recorder_ != nullptr)
            args_.emplace_back(key, v);
        return *this;
    }

    Span &arg(const char *key, std::string v)
    {
        if (recorder_ != nullptr)
            args_.emplace_back(key, std::move(v));
        return *this;
    }

    /// Close the span now (idempotent; the destructor calls this).
    void end()
    {
        if (recorder_ == nullptr)
            return;
        recorder_->complete(name_, cat_, start_, nowNanos() - start_, std::move(args_));
        recorder_ = nullptr;
    }

    bool enabled() const noexcept { return recorder_ != nullptr; }

private:
    TraceRecorder *recorder_;
    const char *name_;
    const char *cat_;
    std::int64_t start_ = 0;
    std::vector<TraceArg> args_;
};

} // namespace chimera::obs
