/**
 * @file
 * The serve-mixed workload: an in-process serve::Server on a Unix
 * socket in the run's temp directory, with a memory-only plan cache,
 * driven over one connection by the benchmark's own client. Traffic
 * mixes the three serve_loadgen classes (ReLU, causal softmax, plain);
 * the seed draws each class's input contents and the order of the
 * requests.
 *
 *  - Passes over every input in a seeded order, one request in flight
 *    (closed loop, one caller) taking turns with passes that keep
 *    ctx.workers requests in flight. The untraced run reports these.
 *  - Traced run only: phase A, an open loop at a fixed rate, where
 *    request i is due at start + i / rate and its latency runs from
 *    that due time, so a stall shows in the latency of every request
 *    behind it; and phase B, a closed loop with a fixed window of
 *    requests in flight, whose completion rate is the capacity.
 *
 * Every response must be Ok and bitwise equal to the first response to
 * the same input, which itself must match the reference oracle. Also
 * the serve probes every traced run makes: protocol, batcher, planner
 * gate and executeGroup called directly.
 */

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <semaphore>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "exec/compute_engine.hpp"
#include "exec/constraints.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "ir/builders.hpp"
#include "serve/batcher.hpp"
#include "serve/planner_gate.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace chimera;

namespace {

constexpr double kOpenLoopRate = 4000.0; ///< phase A, requests per second
constexpr int kWindow = 256;             ///< phase B, requests in flight
constexpr int kVariantsPerClass = 4;     ///< seeded input sets per class
constexpr std::int64_t kMaxBatch = 8;    ///< the daemon's default batch cap
constexpr double kGraceSeconds = 5.0;    ///< wait for stragglers before giving up
constexpr float kTolerance = 5e-3f;
constexpr const char *kSocketName = "serve.sock"; ///< relative to the run directory

/** The serve_loadgen classes: about 1 MFLOP per request each. */
std::vector<std::pair<std::string, ir::GemmChainConfig>>
trafficClasses()
{
    ir::GemmChainConfig relu;
    relu.m = 96;
    relu.n = 64;
    relu.k = 48;
    relu.l = 80;
    relu.epilogue = ir::Epilogue::Relu;

    ir::GemmChainConfig softmax;
    softmax.m = 64;
    softmax.n = 64;
    softmax.k = 64;
    softmax.l = 64;
    softmax.epilogue = ir::Epilogue::Softmax;
    softmax.softmaxScale = 0.125f;
    softmax.causalMask = true;

    ir::GemmChainConfig plain;
    plain.m = 80;
    plain.n = 48;
    plain.k = 32;
    plain.l = 56;
    return {{"relu", relu}, {"softmax", softmax}, {"plain", plain}};
}

/** One input set of one class, with what its responses must equal. */
struct Variant
{
    std::size_t cls = 0;
    serve::ExecuteRequest request;
    std::string payload; ///< encoded request; the id is patched per send
    Tensor reference;
    Tensor golden; ///< first response's output; empty until then
};

std::vector<Variant>
makeVariants(std::uint64_t seed)
{
    const auto classes = trafficClasses();
    std::vector<Variant> variants;
    for (std::size_t c = 0; c < classes.size(); ++c) {
        for (int v = 0; v < kVariantsPerClass; ++v) {
            Variant variant;
            variant.cls = c;
            serve::ExecuteRequest &r = variant.request;
            r.config = classes[c].second;
            r.a = Tensor(exec::gemmChainShapeA(r.config));
            r.b = Tensor(exec::gemmChainShapeB(r.config));
            r.d = Tensor(exec::gemmChainShapeD(r.config));
            Rng rng(subSeed(seed, 100 * c + static_cast<std::uint64_t>(v)));
            fillUniform(r.a, rng);
            fillUniform(r.b, rng);
            fillUniform(r.d, rng);
            variant.payload = serve::encodeExecuteRequest(r);
            variant.reference = Tensor(exec::gemmChainShapeE(r.config));
            exec::referenceGemmChain(r.config, r.a, r.b, r.d, variant.reference);
            variants.push_back(std::move(variant));
        }
    }
    return variants;
}

/** Writes @p id into the header of an encoded request (bytes 8..15, LE). */
void
patchId(std::string &payload, std::uint64_t id)
{
    for (int byte = 0; byte < 8; ++byte) {
        payload[static_cast<std::size_t>(8 + byte)] = static_cast<char>((id >> (8 * byte)) & 0xffu);
    }
}

/** The response check: Ok, and equal to the first answer to that input. */
bool
acceptResponse(const serve::Response &response, Variant &variant)
{
    if (response.type != serve::MessageType::Execute || response.status != serve::Status::Ok) {
        return false;
    }
    const Tensor &e = response.execute.e;
    if (variant.golden.numel() == 0) {
        if (!allClose(e, variant.reference, kTolerance, kTolerance)) {
            return false;
        }
        variant.golden = e;
        return true;
    }
    return e.shape() == variant.golden.shape() &&
           std::memcmp(e.data(), variant.golden.data(), static_cast<std::size_t>(e.bytes())) == 0;
}

/** A running daemon and one client connection to it. */
class Session
{
  public:
    Session()
    {
        server_ = std::make_unique<serve::Server>(serve::ServerOptions{
            .socketPath = kSocketName,
            .execThreads = 1,
            .maxBatch = kMaxBatch,
            .cacheDir = "-", // memory-only plan cache
        });
        server_->start();
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        CHIMERA_CHECK(fd_ >= 0, std::string("socket() failed: ") + std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, kSocketName, sizeof(addr.sun_path) - 1);
        CHIMERA_CHECK(::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) == 0,
                      std::string("connect() failed: ") + std::strerror(errno));
    }

    ~Session()
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
        server_->stop();
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    int fd() const { return fd_; }

    /** Reserves @p count consecutive request ids; returns the first. */
    std::uint64_t reserveIds(std::uint64_t count)
    {
        const std::uint64_t first = nextId_;
        nextId_ += count;
        return first;
    }

    /** One response, or nullopt when none arrives before @p deadline. */
    std::optional<serve::Response> receive(double deadline) const
    {
        pollfd p{fd_, POLLIN, 0};
        const double wait = deadline - nowSeconds();
        if (wait <= 0.0 || ::poll(&p, 1, static_cast<int>(wait * 1e3) + 1) <= 0) {
            return std::nullopt;
        }
        std::optional<std::string> frame = serve::readFrame(fd_);
        if (!frame) {
            return std::nullopt;
        }
        return serve::decodeResponse(*frame);
    }

    /** The daemon's Stats document as numbers by key. */
    std::map<std::string, double> stats()
    {
        serve::writeFrame(fd_, serve::encodeStatsRequest(reserveIds(1)));
        std::map<std::string, double> values;
        const std::optional<serve::Response> response = receive(nowSeconds() + kGraceSeconds);
        if (!response || response->type != serve::MessageType::Stats) {
            return values;
        }
        std::istringstream lines(response->statsText);
        std::string line;
        while (std::getline(lines, line)) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                values[line.substr(0, colon)] = std::atof(line.c_str() + colon + 1);
            }
        }
        return values;
    }

  private:
    std::unique_ptr<serve::Server> server_;
    int fd_ = -1;
    std::uint64_t nextId_ = 1;
};

/** Sends @p indices back to back, then checks every answer. */
void
burst(Session &session, std::vector<Variant> &variants, const std::vector<std::size_t> &indices,
      Results &results)
{
    const std::uint64_t first = session.reserveIds(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        std::string &payload = variants[indices[i]].payload;
        patchId(payload, first + i);
        serve::writeFrame(session.fd(), payload);
    }
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const auto response = session.receive(nowSeconds() + kGraceSeconds);
        const std::uint64_t slot = response ? response->id - first : indices.size();
        results.check(slot < indices.size() && acceptResponse(*response, variants[indices[slot]]),
                      "serve", "warm-up response missing, failed or wrong");
    }
}

/**
 * Warms each class before timing: every input once (which sets its
 * golden output), then, for each size 2..kMaxBatch, a burst of that
 * many requests per class, so the daemon has planned the batched
 * derivations the timed phases use. Classes share each round trip.
 */
void
warm(Session &session, std::vector<Variant> &variants, Results &results)
{
    std::vector<std::size_t> all(variants.size());
    for (std::size_t v = 0; v < variants.size(); ++v) {
        all[v] = v;
    }
    burst(session, variants, all, results);
    for (std::int64_t size = 2; size <= kMaxBatch; ++size) {
        std::vector<std::size_t> indices;
        for (std::size_t c = 0; c * kVariantsPerClass < variants.size(); ++c) {
            for (std::int64_t i = 0; i < size; ++i) {
                indices.push_back(c * kVariantsPerClass +
                                  static_cast<std::size_t>(i) % kVariantsPerClass);
            }
        }
        burst(session, variants, indices, results);
    }
}

/** Sleeps until @p when on the steady clock (seconds). */
void
sleepUntil(double when)
{
    const std::chrono::duration<double> target(when);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(target)));
}

/** Round trips of one pass, seconds. */
struct PassTimes
{
    std::vector<double> roundTrip; ///< per position in the pass's order
    double seconds = 0.0;          ///< first send to last answer
};

/**
 * One pass over @p order with up to @p window requests in flight: a
 * closed loop that sends the next request whenever one is answered.
 */
PassTimes
pass(Session &session, std::vector<Variant> &variants, const std::vector<std::size_t> &order,
     std::size_t window, SpanLog &spans, Results &results)
{
    const Span passSpan(spans, "bench.pass");
    const std::size_t n = order.size();
    const std::uint64_t first = session.reserveIds(n);
    std::vector<double> sentAt(n, 0.0);
    PassTimes times;
    times.roundTrip.assign(n, -1.0);
    std::size_t sent = 0;
    const auto sendNext = [&] {
        std::string &payload = variants[order[sent]].payload;
        patchId(payload, first + sent);
        const Span send(spans, "serve.writeFrame");
        sentAt[sent] = nowSeconds();
        serve::writeFrame(session.fd(), payload);
        ++sent;
    };
    const double start = nowSeconds();
    while (sent < std::min(window, n)) {
        sendNext();
    }
    for (std::size_t received = 0; received < n; ++received) {
        const auto response = session.receive(nowSeconds() + kGraceSeconds);
        const double now = nowSeconds();
        if (!results.check(response.has_value(), "serve", "pass request never answered")) {
            break;
        }
        const std::uint64_t slot = response->id - first;
        if (!results.check(slot < n && times.roundTrip[slot] < 0.0, "serve",
                           "response with an unknown or repeated id")) {
            continue;
        }
        times.roundTrip[slot] = now - sentAt[slot];
        results.check(acceptResponse(*response, variants[order[slot]]), "serve",
                      "pass response failed or differs from the first answer");
        if (sent < n) {
            sendNext();
        }
    }
    times.seconds = nowSeconds() - start;
    return times;
}

/**
 * Fastest round trip of each input with one request in flight, and
 * fastest pass with @p window in flight: the serve-side estimators of
 * pass_ms and pass_ms_mt. On a shared host a round trip waits for
 * idle vCPUs to wake, which swings its median by milliseconds from run
 * to run; the fastest of many tracks the program.
 */
struct PassSummary
{
    std::vector<double> fastestRoundTrip; ///< per variant, seconds
    double fastestPass = 0.0;             ///< seconds

    double fastestSerialPass() const
    {
        double total = 0.0;
        for (const double t : fastestRoundTrip) {
            total += t;
        }
        return total;
    }
};

/**
 * Passes with one request in flight taking turns with passes of
 * @p window in flight, until @p budget seconds have passed (at least
 * five rounds). A non-null @p setup, which replaces @p session and
 * @p variants, gets its chance to repeat before each round.
 * @p serialSpans and @p windowSpans trace each lane.
 */
std::pair<PassSummary, PassSummary>
passes(std::unique_ptr<Session> &session, std::vector<Variant> &variants,
       const std::vector<std::size_t> &order, std::size_t window, double budget, Setup *setup,
       SpanLog &serialSpans, SpanLog &windowSpans, Results &results)
{
    constexpr double kNever = 1e30;
    PassSummary serial{std::vector<double>(variants.size(), kNever), kNever};
    PassSummary windowed = serial;
    const auto take = [&](PassSummary &summary, const PassTimes &times) {
        summary.fastestPass = std::min(summary.fastestPass, times.seconds);
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (times.roundTrip[i] >= 0.0) {
                double &best = summary.fastestRoundTrip[order[i]];
                best = std::min(best, times.roundTrip[i]);
            }
        }
    };
    const double deadline = nowSeconds() + budget;
    for (int round = 0; round < 5 || nowSeconds() < deadline; ++round) {
        if (setup != nullptr) {
            setup->runIfDue();
        }
        take(serial, pass(*session, variants, order, 1, serialSpans, results));
        take(windowed, pass(*session, variants, order, window, windowSpans, results));
    }
    return {serial, windowed};
}

/** Phase A: @p order sent on an open-loop schedule at @p rate. */
OpenLoopSummary
openLoop(Session &session, std::vector<Variant> &variants, const std::vector<std::size_t> &order,
         double rate, SpanLog &spans, Results &results)
{
    const Span phase(spans, "bench.open_loop");
    const std::size_t n = order.size();
    std::vector<OpenLoopRequest> requests(n);
    const std::uint64_t first = session.reserveIds(n);
    const double start = nowSeconds() + 0.01;
    for (std::size_t i = 0; i < n; ++i) {
        requests[i].due = start + static_cast<double>(i) / rate;
    }
    std::atomic<bool> sendFailed{false};
    std::thread sender([&] {
        try {
            for (std::size_t i = 0; i < n; ++i) {
                sleepUntil(requests[i].due);
                std::string &payload = variants[order[i]].payload;
                patchId(payload, first + i);
                const Span send(spans, "serve.writeFrame", phase.id());
                serve::writeFrame(session.fd(), payload);
                requests[i].sent = nowSeconds();
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: send failed: %s\n", e.what());
            sendFailed = true;
        }
    });
    const double deadline = requests.back().due + kGraceSeconds;
    try {
        for (std::size_t received = 0; received < n; ++received) {
            const auto response = session.receive(deadline);
            if (!response) {
                break;
            }
            const double now = nowSeconds();
            const std::uint64_t slot = response->id - first;
            if (!results.check(slot < n && requests[slot].done < 0.0, "serve",
                               "response with an unknown or repeated id")) {
                continue;
            }
            requests[slot].done = now;
            const Span check(spans, "bench.check_response");
            results.check(acceptResponse(*response, variants[order[slot]]), "serve",
                          "open-loop response failed or differs from the first answer");
        }
    } catch (const std::exception &e) {
        results.check(false, "serve: open-loop receive failed", e.what());
    }
    sender.join();
    results.check(!sendFailed, "serve", "open-loop sender failed");
    OpenLoopSummary summary = summarizeOpenLoop(requests);
    for (std::int64_t i = 0; i < summary.missing; ++i) {
        results.check(false, "serve", "open-loop request never answered");
    }
    return summary;
}

/**
 * Phase B: keeps kWindow requests in flight for @p seconds; returns the
 * median completion rate over its quarter-second intervals, which
 * discounts intervals in which the host stalled the daemon.
 */
double
closedLoop(Session &session, std::vector<Variant> &variants, Rng &rng, double seconds,
           SpanLog &spans, Results &results)
{
    const Span phase(spans, "bench.closed_loop");
    constexpr std::uint64_t kMaxRequests = 1u << 24;
    std::vector<std::size_t> order(kMaxRequests >> 10);
    for (std::size_t &v : order) {
        v = static_cast<std::size_t>(rng.below(variants.size()));
    }
    // Responses may name any request sent so far, so the variant of each
    // id is fixed before it is sent: id first + i carries order[i % size].
    const std::uint64_t first = session.reserveIds(kMaxRequests);
    std::counting_semaphore<2 * kWindow> slots(kWindow); // room for the final release
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> sendFailed{false};
    std::thread sender([&] {
        try {
            for (std::uint64_t i = 0; i < kMaxRequests; ++i) {
                slots.acquire();
                if (stop) {
                    return;
                }
                std::string &payload = variants[order[i % order.size()]].payload;
                patchId(payload, first + i);
                serve::writeFrame(session.fd(), payload);
                sent = i + 1;
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: send failed: %s\n", e.what());
            sendFailed = true;
        }
    });
    constexpr double kInterval = 0.25;
    const double start = nowSeconds();
    const double end = start + seconds;
    std::uint64_t completed = 0;
    std::vector<double> perInterval(static_cast<std::size_t>(seconds / kInterval) + 1, 0.0);
    const auto take = [&](const serve::Response &response) {
        const std::uint64_t slot = response.id - first;
        results.check(slot < kMaxRequests &&
                          acceptResponse(response, variants[order[slot % order.size()]]),
                      "serve", "closed-loop response failed or differs from the first answer");
        ++completed;
    };
    try {
        while (nowSeconds() < end) {
            const auto response = session.receive(end + kGraceSeconds);
            if (!response) {
                break;
            }
            take(*response);
            const auto interval = static_cast<std::size_t>((nowSeconds() - start) / kInterval);
            if (interval < perInterval.size()) {
                perInterval[interval] += 1.0 / kInterval;
            }
            slots.release();
        }
    } catch (const std::exception &e) {
        results.check(false, "serve: closed-loop receive failed", e.what());
    }
    stop = true;
    slots.release();
    sender.join();
    while (completed < sent.load()) {
        const auto response = session.receive(nowSeconds() + kGraceSeconds);
        if (!results.check(response.has_value(), "serve", "closed-loop request never answered")) {
            break;
        }
        take(*response);
    }
    results.check(!sendFailed, "serve", "closed-loop sender failed");
    perInterval.pop_back(); // the partial last interval
    return median(perInterval);
}

/**
 * Median microseconds per call of @p call, repeated for @p budget
 * seconds. The calls take microseconds, so one span covers them all.
 */
template <typename Call>
double
probeMicros(double budget, SpanLog &spans, const char *spanName, Call &&call)
{
    std::vector<double> samples;
    const Span span(spans, spanName);
    const double deadline = nowSeconds() + budget;
    while (samples.size() < 50 || nowSeconds() < deadline) {
        const double start = nowSeconds();
        call();
        samples.push_back((nowSeconds() - start) * 1e6);
    }
    return median(samples);
}

} // namespace

void
probeServe(const Context &ctx, double budget, SpanLog &spans, Results &results)
{
    std::vector<Variant> variants = makeVariants(subSeed(ctx.seed, 3000));
    const auto classes = trafficClasses();
    const double each = budget / static_cast<double>(4 + classes.size());
    const serve::ExecuteRequest &sample = variants.front().request;

    std::string encoded;
    results.set("serve.protocol.encode_us",
                probeMicros(each, spans, "serve.encodeExecuteRequest",
                            [&] { encoded = serve::encodeExecuteRequest(sample); }),
                "us");
    results.check(encoded.size() == variants.front().payload.size(), "serve.protocol",
                  "encoded request changed size");
    serve::Request decoded;
    results.set("serve.protocol.decode_us",
                probeMicros(each, spans, "serve.decodeRequest",
                            [&] { decoded = serve::decodeRequest(encoded); }),
                "us");
    results.check(decoded.type == serve::MessageType::Execute &&
                      decoded.execute.config.m == sample.config.m,
                  "serve.protocol", "decoded request differs from the encoded one");

    // groupCompatible consumes its queue, so each call gets a fresh copy
    // of one job per input (kVariantsPerClass per class) made untimed.
    std::vector<double> groupUs;
    std::size_t groups = 0;
    Span groupSpan(spans, "serve.groupCompatible");
    const double groupDeadline = nowSeconds() + each;
    while (groupUs.size() < 50 || nowSeconds() < groupDeadline) {
        std::deque<serve::ServeJob> jobs;
        for (const Variant &v : variants) {
            jobs.push_back(serve::ServeJob{v.request, [](serve::ExecuteResponse &&) {}, 0.0});
        }
        const double start = nowSeconds();
        groups = serve::groupCompatible(std::move(jobs), kMaxBatch).size();
        groupUs.push_back((nowSeconds() - start) * 1e6);
    }
    groupSpan.end();
    results.set("serve.batcher.group_us", median(groupUs), "us");
    results.check(groups == classes.size(), "serve.batcher", "one group per class expected");

    serve::PlannerGateOptions gateOptions;
    gateOptions.cacheDir = "-";
    serve::PlannerGate gate(gateOptions);
    std::vector<ir::GemmChainConfig> slices;
    std::vector<plan::ExecutionPlan> plans;
    for (const auto &[name, config] : classes) {
        slices.push_back(serve::canonicalSlice(config));
        plans.push_back(gate.canonicalPlan(slices.back()));
    }
    std::size_t next = 0;
    bool samePlans = true;
    results.set("serve.gate.canonical_plan_us",
                probeMicros(each, spans, "serve.canonicalPlan",
                            [&] {
                                const std::size_t c = next++ % slices.size();
                                samePlans = samePlans && gate.canonicalPlan(slices[c]).tiles ==
                                                             plans[c].tiles;
                            }),
                "us");
    results.check(samePlans, "serve.gate", "warm canonical plan differs from the cold one");

    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    for (std::size_t c = 0; c < classes.size(); ++c) {
        Variant &variant = variants[c * kVariantsPerClass];
        std::vector<double> micros;
        const double deadline = nowSeconds() + each;
        while (micros.size() < 50 || nowSeconds() < deadline) {
            serve::ExecuteResponse response;
            std::vector<serve::ServeJob> group;
            group.push_back(serve::ServeJob{
                variant.request,
                [&response](serve::ExecuteResponse &&r) { response = std::move(r); }, 0.0});
            {
                const Span span(spans, "serve.executeGroup");
                const double start = nowSeconds();
                serve::executeGroup(group, gate, engine, exec::ExecOptions{1},
                                    [] { return nowSeconds(); });
                micros.push_back((nowSeconds() - start) * 1e6);
            }
            serve::Response wrapped;
            wrapped.execute = std::move(response);
            wrapped.status = wrapped.execute.status;
            results.check(acceptResponse(wrapped, variant), "serve.executeGroup",
                          "output differs from the daemon's answer");
        }
        results.set("serve.exec_us." + classes[c].first, median(micros), "us");
    }
}

Results
runServeMixed(const Context &ctx, SpanLog &spans)
{
    Results results;
    std::vector<Variant> variants;
    std::unique_ptr<Session> session;
    Setup setup([&] {
        session.reset(); // the next daemon binds the same socket path
        variants = makeVariants(ctx.seed);
        session = std::make_unique<Session>();
        warm(*session, variants, results);
    });
    setup.run();

    Rng rng(subSeed(ctx.seed, 2));
    std::vector<std::size_t> order(variants.size());
    for (std::size_t v = 0; v < order.size(); ++v) {
        order[v] = v;
    }
    for (std::size_t v = order.size(); v > 1; --v) {
        std::swap(order[v - 1], order[static_cast<std::size_t>(rng.below(v))]);
    }
    const auto window = static_cast<std::size_t>(ctx.workers);
    SpanLog untraced(false);

    if (!ctx.trace) {
        const auto [serial, windowed] = passes(session, variants, order, window, ctx.seconds,
                                               &setup, untraced, untraced, results);
        results.set("setup_s", setup.medianSeconds(), "s");
        results.set("pass_ms", serial.fastestSerialPass() * 1e3, "ms");
        results.set("pass_ms_mt", windowed.fastestPass * 1e3, "ms");
        results.set("rss_mb", peakRssMb(), "MB");
        return results;
    }

    // Traced run: the serial passes untraced and traced give the
    // tracing overhead; then the open and closed loops, whose figures
    // the daemon's Stats document covers.
    const PassSummary plain = passes(session, variants, order, window, 0.15 * ctx.seconds,
                                     nullptr, untraced, untraced, results)
                                  .first;
    const auto [serial, windowed] = passes(session, variants, order, window, 0.15 * ctx.seconds,
                                           nullptr, spans, spans, results);
    std::vector<std::size_t> openOrder(
        std::max<std::size_t>(1, static_cast<std::size_t>(0.15 * ctx.seconds * kOpenLoopRate)));
    for (std::size_t &v : openOrder) {
        v = static_cast<std::size_t>(rng.below(variants.size()));
    }
    const OpenLoopSummary open =
        openLoop(*session, variants, openOrder, kOpenLoopRate, spans, results);
    const double clientP50 = median(open.latency) * 1e3;
    const std::map<std::string, double> afterOpen = session->stats();
    const double capacity = closedLoop(*session, variants, rng, 0.1 * ctx.seconds, spans, results);
    const std::map<std::string, double> final = session->stats();
    const auto stat = [](const std::map<std::string, double> &s, const char *key) {
        const auto it = s.find(key);
        return it == s.end() ? 0.0 : it->second;
    };
    results.check(stat(final, "protocol-errors") == 0.0, "serve", "daemon counted protocol errors");

    std::vector<PlannedChain> chains;
    for (const auto &[name, config] : trafficClasses()) {
        ir::Chain chain = ir::makeGemmChain(config);
        plan::PlannerOptions options;
        options.memCapacityBytes = kCapacityBytes;
        options.constraints = exec::cpuChainConstraints(chain, hostKernel());
        options.threads = 1;
        plan::ExecutionPlan cold = plan::planChain(chain, options);
        chains.push_back(PlannedChain{name, std::move(chain), options, std::move(cold)});
    }
    probeLayers(ctx, chains, spans, results);

    // The daemon's own figures, written to the ledger file only.
    const double serverP50 = stat(afterOpen, "latency-p50-seconds") * 1e3;
    results.set("serve.client_p50_ms", clientP50, "ms");
    if (percentileSupported(static_cast<std::int64_t>(open.latency.size()), 99)) {
        results.set("serve.client_p99_ms", percentile(open.latency, 99) * 1e3, "ms");
    }
    results.set("serve.capacity_rps", capacity, "req/s");
    results.set("serve.server_p50_ms", serverP50, "ms");
    results.set("serve.server_p99_ms", stat(afterOpen, "latency-p99-seconds") * 1e3, "ms");
    results.set("serve.socket_queue_ms", clientP50 - serverP50, "ms");
    const double batches = stat(afterOpen, "batches");
    results.set("serve.batches", batches, "count");
    results.set("serve.mean_batch_slices",
                batches > 0.0 ? stat(afterOpen, "requests") / batches : 0.0, "slices");
    results.set("serve.plans_led", stat(final, "plans-led"), "count");
    results.set("serve.plans_joined", stat(final, "plans-joined"), "count");
    results.set("serve.generator_lag_ms_p99", percentile(open.lag, 99) * 1e3, "ms");
    results.set("serve.achieved_rps", open.achievedRate, "req/s");

    results.set("scaling_mt", serial.fastestSerialPass() / windowed.fastestPass, "ratio");
    results.set("trace.overhead_frac",
                serial.fastestSerialPass() / plain.fastestSerialPass() - 1.0, "ratio");
    reportTrace(spans, results);
    return results;
}

} // namespace perfbench
