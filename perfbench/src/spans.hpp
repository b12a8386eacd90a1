#pragma once

/**
 * @file
 * The benchmark's own span recorder. Spans wrap the benchmark's calls
 * into the program's public functions; the program itself is not
 * instrumented. Each span has a name ("<layer>.<call>"), a start, an
 * end and the span that caused it. Spans stay in memory until the run
 * ends, then go out as Chrome/Perfetto trace-event JSON, and the self
 * time of each layer is computed from the nesting.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One finished span. Times are steady-clock nanoseconds. */
struct SpanRecord
{
    std::int64_t id = 0;
    std::int64_t parent = 0; ///< 0 = root
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int thread = 0;
};

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const std::string &name);

/**
 * Self time per layer, seconds: each span's duration minus the part of
 * its interval that its children cover (overlapping children count
 * once), summed over the spans of the layer.
 */
std::map<std::string, double> selfSecondsByLayer(const std::vector<SpanRecord> &spans);

/** Chrome/Perfetto trace-event JSON ("ph":"X" events, microseconds). */
std::string perfettoJson(const std::vector<SpanRecord> &spans);

/** Steady-clock nanoseconds. */
std::int64_t nowNanos();

/** Thread-safe span store; a disabled log records nothing. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    void record(SpanRecord span);

    std::int64_t nextId();

    std::vector<SpanRecord> spans() const;

  private:
    const bool enabled_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::int64_t lastId_ = 0;
};

/**
 * RAII span. The parent is the innermost open span of the calling
 * thread unless one is given (a span caused on another thread).
 */
class Span
{
  public:
    Span(SpanLog &log, const char *name);
    Span(SpanLog &log, const char *name, std::int64_t parent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** 0 when the log is disabled. */
    std::int64_t id() const { return record_.id; }

    /** Closes the span now (idempotent; the destructor calls this). */
    void end();

  private:
    SpanLog &log_;
    SpanRecord record_;
    std::int64_t savedCurrent_ = 0;
    bool ended_ = false;
};

} // namespace perfbench
