#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

thread_local std::int64_t tCurrentSpan = 0;

int
threadIndex()
{
    static std::atomic<int> next{1};
    thread_local const int index = next.fetch_add(1);
    return index;
}

void
appendEscaped(std::ostringstream &out, const std::string &text)
{
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out << '\\';
        }
        out << c;
    }
}

} // namespace

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::map<std::string, double>
selfSecondsByLayer(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const SpanRecord &s : spans) {
        if (s.parent != 0) {
            children[s.parent].emplace_back(s.start, s.end);
        }
    }
    std::map<std::string, double> self;
    for (const SpanRecord &s : spans) {
        std::int64_t covered = 0;
        if (auto it = children.find(s.id); it != children.end()) {
            auto &intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            std::int64_t reach = s.start;
            for (const auto &[begin, end] : intervals) {
                const std::int64_t from = std::max(begin, reach);
                const std::int64_t to = std::min(end, s.end);
                if (to > from) {
                    covered += to - from;
                    reach = to;
                }
            }
        }
        self[layerOf(s.name)] += static_cast<double>(s.end - s.start - covered) * 1e-9;
    }
    return self;
}

std::string
perfettoJson(const std::vector<SpanRecord> &spans)
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord &s : spans) {
        char times[96];
        std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(s.start) * 1e-3,
                      static_cast<double>(s.end - s.start) * 1e-3);
        out << (first ? "" : ",") << "\n{\"name\":\"";
        appendEscaped(out, s.name);
        out << "\",\"cat\":\"";
        appendEscaped(out, layerOf(s.name));
        out << "\",\"ph\":\"X\"," << times << ",\"pid\":1,\"tid\":" << s.thread
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
        first = false;
    }
    out << "\n]}\n";
    return out.str();
}

std::int64_t
nowNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanLog::record(SpanRecord span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::int64_t
SpanLog::nextId()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return ++lastId_;
}

std::vector<SpanRecord>
SpanLog::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Span::Span(SpanLog &log, const char *name) : Span(log, name, tCurrentSpan) {}

Span::Span(SpanLog &log, const char *name, std::int64_t parent) : log_(log)
{
    if (!log_.enabled()) {
        return;
    }
    record_.id = log_.nextId();
    record_.parent = parent;
    record_.name = name;
    record_.thread = threadIndex();
    savedCurrent_ = tCurrentSpan;
    tCurrentSpan = record_.id;
    record_.start = nowNanos();
}

Span::~Span()
{
    end();
}

void
Span::end()
{
    if (record_.id == 0 || ended_) {
        return;
    }
    ended_ = true;
    record_.end = nowNanos();
    tCurrentSpan = savedCurrent_;
    log_.record(record_);
}

} // namespace perfbench
