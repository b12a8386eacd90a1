#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#ifdef __unix__
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "exec/gemm_chain_exec.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"

namespace chimera::serve {

namespace {

/** FNV-1a over raw bytes (digest of the --check replay). */
std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

} // namespace

Server::Server(const ServerOptions &options)
    : options_(options), gate_([&] {
          PlannerGateOptions go;
          go.capacityBytes = options.capacityBytes;
          go.cacheDir = options.cacheDir;
          go.verifyPlans = options.verifyPlans;
          return go;
      }()),
      engine_(exec::ComputeEngine::best()),
      connectionsAccepted_(registry_.counter("chimera.serve.connections")),
      requestsAdmitted_(registry_.counter("chimera.serve.requests")),
      responsesWritten_(registry_.counter("chimera.serve.responses")),
      protocolErrors_(registry_.counter("chimera.serve.protocol_errors")),
      batchedRequests_(
          registry_.counter("chimera.serve.batched_requests")),
      latencySeconds_(
          registry_.histogram("chimera.serve.latency_seconds")),
      batchSlices_(registry_.histogram("chimera.serve.batch_slices"))
{
}

Server::~Server()
{
    stop();
}

double
Server::nowSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

#ifdef __unix__

void
Server::start()
{
    CHIMERA_CHECK(!running_.load(), "server already started");
    CHIMERA_CHECK(!options_.socketPath.empty(),
                  "chimera-serve needs a socket path");

    // A client that disconnects with responses still queued must not
    // kill the daemon: writeFrame already sends with MSG_NOSIGNAL, and
    // ignoring SIGPIPE process-wide covers any other fd the daemon
    // writes, so peer loss always surfaces as a catchable EPIPE.
    CHIMERA_CHECK(std::signal(SIGPIPE, SIG_IGN) != SIG_ERR,
                  "cannot ignore SIGPIPE; refusing to run with a "
                  "disposition under which any peer loss kills the "
                  "daemon");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CHIMERA_CHECK(options_.socketPath.size() < sizeof(addr.sun_path),
                  "socket path too long: " + options_.socketPath);
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    std::error_code ec;
    if (std::filesystem::is_socket(options_.socketPath, ec)) {
        // A leftover socket file from a dead daemon; a live daemon
        // would rebind and fail below if two race for one path.
        std::filesystem::remove(options_.socketPath, ec);
    }

    // std::error_code instead of strerror(): strerror's static buffer
    // is not thread-safe (clang-tidy concurrency-mt-unsafe) and the
    // daemon has every reason to keep its error paths reentrant.
    const auto errnoMessage = [] {
        return std::error_code(errno, std::generic_category()).message();
    };
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CHIMERA_CHECK(listenFd_ >= 0, "socket() failed: " + errnoMessage());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const std::string reason = errnoMessage();
        ::close(listenFd_);
        listenFd_ = -1;
        CHIMERA_CHECK(false, "bind(" + options_.socketPath +
                                 ") failed: " + reason);
    }
    if (::listen(listenFd_, 64) != 0) {
        const std::string reason = errnoMessage();
        ::close(listenFd_);
        listenFd_ = -1;
        std::filesystem::remove(options_.socketPath, ec);
        CHIMERA_CHECK(false, "listen(" + options_.socketPath +
                                 ") failed: " + reason);
    }

    running_.store(true);
    admissionThread_ = std::thread([this] { admissionLoop(); });
    const int executors = std::max(1, options_.executors);
    executorThreads_.reserve(static_cast<std::size_t>(executors));
    for (int i = 0; i < executors; ++i) {
        executorThreads_.emplace_back([this] { executorLoop(); });
    }
    writerThread_ = std::thread([this] { writerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    CHIMERA_INFO("chimera-serve listening on " << options_.socketPath
                                               << " (" << executors
                                               << " executors)");
}

void
Server::acceptLoop()
{
    while (running_.load()) {
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        reapConnections(false);
        if (ready <= 0) {
            continue; // timeout, EINTR, or stop
        }
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            continue;
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            conn->id = nextConnId_++;
            connections_[conn->id] = conn;
        }
        connectionsAccepted_.add();
        conn->reader = std::thread([this, conn] { readerLoop(conn); });
    }
}

void
Server::readerLoop(const std::shared_ptr<Connection> &conn)
{
    if (obs::TraceRecorder *tracer = obs::trace()) {
        tracer->nameThread("serve.reader." + std::to_string(conn->id));
    }
    while (true) {
        std::optional<std::string> payload;
        try {
            payload = readFrame(conn->fd);
        } catch (const Error &) {
            // Unframeable stream (bad length, truncation): there is no
            // way to resynchronize, so the connection dies.
            protocolErrors_.add();
            break;
        }
        if (!payload) {
            break; // clean end of stream
        }
        Request request;
        obs::Span decodeSpan(obs::trace(), "serve.decode", "serve");
        try {
            request = decodeRequest(*payload);
        } catch (const Error &e) {
            // Framing survived, the payload did not: reject this
            // message, keep the connection. Echo the header's type and
            // id when they parsed, so the client can correlate the
            // error with the request it sent; id 0 only when even the
            // header is unreadable.
            protocolErrors_.add();
            MessageType type = MessageType::Execute;
            std::uint64_t id = 0;
            peekRequestHeader(*payload, type, id);
            decodeSpan.arg("req", static_cast<std::int64_t>(id))
                .arg("error", std::string(e.what()));
            decodeSpan.end();
            enqueueOutgoing(conn, encodeErrorResponse(type, id, e.what()),
                            id);
            continue;
        }
        decodeSpan.arg("req", static_cast<std::int64_t>(request.id))
            .arg("bytes", static_cast<std::int64_t>(payload->size()));
        decodeSpan.end();
        dispatchRequest(conn, std::move(request));
    }
    conn->readerDone.store(true);
}

void
Server::dispatchRequest(const std::shared_ptr<Connection> &conn,
                        Request &&request)
{
    switch (request.type) {
    case MessageType::Execute: {
        requestsAdmitted_.add();
        ServeJob job;
        job.request = std::move(request.execute);
        job.admittedSeconds = nowSeconds();
        conn->inflightJobs.fetch_add(1);
        job.complete = [this, conn](ExecuteResponse &&response) {
            // Server-side request latency (admission -> completion),
            // recorded into the HDR histogram behind the `latency-*`
            // stats lines before the response heads for the writer.
            latencySeconds_.recordSeconds(response.serverSeconds);
            // Enqueue (pendingWrites++) strictly before inflightJobs--
            // so the reaper never observes both counters at zero while
            // this response is in flight.
            const std::uint64_t id = response.id;
            enqueueOutgoing(conn, encodeExecuteResponse(response), id);
            conn->inflightJobs.fetch_sub(1);
        };
        {
            std::lock_guard<std::mutex> lock(admissionMutex_);
            admissionQueue_.push_back(std::move(job));
        }
        admissionCv_.notify_one();
        return;
    }
    case MessageType::Stats:
        enqueueOutgoing(conn,
                        encodeStatsResponse(request.id, statsText()),
                        request.id);
        return;
    case MessageType::Shutdown:
        enqueueOutgoing(conn, encodeShutdownResponse(request.id),
                        request.id);
        {
            std::lock_guard<std::mutex> lock(shutdownMutex_);
            shutdownRequested_.store(true);
        }
        shutdownCv_.notify_all();
        return;
    }
}

void
Server::admissionLoop()
{
    if (obs::TraceRecorder *tracer = obs::trace()) {
        tracer->nameThread("serve.admission");
    }
    std::unique_lock<std::mutex> lock(admissionMutex_);
    while (true) {
        admissionCv_.wait(lock, [&] {
            return admissionStop_ || !admissionQueue_.empty();
        });
        if (admissionQueue_.empty()) {
            if (admissionStop_) {
                return;
            }
            continue;
        }
        if (options_.batching && options_.batchWindowMicros > 0 &&
            !admissionStop_) {
            // Hold the door briefly so companions arriving back-to-back
            // coalesce; a stop request cuts the window short.
            admissionCv_.wait_for(
                lock, std::chrono::microseconds(options_.batchWindowMicros),
                [&] { return admissionStop_; });
        }
        std::deque<ServeJob> pending;
        pending.swap(admissionQueue_);
        lock.unlock();

        obs::TraceRecorder *const tracer = obs::trace();
        obs::Span batchSpan(tracer, "serve.batch", "serve");
        const std::int64_t jobsIn =
            static_cast<std::int64_t>(pending.size());
        std::vector<std::vector<ServeJob>> groups = groupCompatible(
            std::move(pending), options_.batching ? options_.maxBatch : 1);
        if (tracer != nullptr) {
            batchSpan.arg("jobs", jobsIn)
                .arg("groups", static_cast<std::int64_t>(groups.size()));
            // One instant per formed group carrying its request-id list;
            // this is the decode -> execute linkage when requests
            // coalesce (serve.execute repeats the same `reqs` string).
            for (const std::vector<ServeJob> &group : groups) {
                std::string reqs;
                std::int64_t slices = 0;
                for (const ServeJob &job : group) {
                    if (!reqs.empty()) {
                        reqs += ",";
                    }
                    reqs += std::to_string(job.request.id);
                    slices += job.request.config.batch;
                }
                tracer->instant("serve.group", "serve",
                                {{"reqs", reqs}, {"slices", slices}});
            }
        }
        batchSpan.end();
        {
            std::lock_guard<std::mutex> glock(groupMutex_);
            for (auto &group : groups) {
                groupQueue_.push_back(std::move(group));
            }
        }
        groupCv_.notify_all();
        lock.lock();
    }
}

void
Server::executorLoop()
{
    if (obs::TraceRecorder *tracer = obs::trace()) {
        tracer->nameThread("serve.executor");
    }
    exec::ExecOptions execOptions;
    execOptions.threads = std::max(1, options_.execThreads);
    // execOptions.raceCheck stays nullptr in the daemon: the gate only
    // serves plans whose SB04 certificate proves shape-generic
    // disjointness of the parallel axes, so the per-run shadow-memory
    // scan (RC01) would re-prove statically settled facts at ~2x
    // execution cost on every request.
    const auto now = [this] { return nowSeconds(); };
    while (true) {
        std::vector<ServeJob> group;
        {
            std::unique_lock<std::mutex> lock(groupMutex_);
            groupCv_.wait(lock, [&] {
                return groupStop_ || !groupQueue_.empty();
            });
            if (groupQueue_.empty()) {
                return; // groupStop_ and fully drained
            }
            group = std::move(groupQueue_.front());
            groupQueue_.pop_front();
        }
        // Count the group before executing: responses (and any stats
        // request racing them) land as executeGroup delivers, so
        // counting afterwards would undercount visibly.
        std::int64_t slices = 0;
        for (const ServeJob &job : group) {
            slices += job.request.config.batch;
        }
        batchSlices_.record(slices);
        if (group.size() > 1) {
            batchedRequests_.add(static_cast<std::int64_t>(group.size()));
        }
        executeGroup(group, gate_, engine_, execOptions, now);
    }
}

void
Server::writerLoop()
{
    if (obs::TraceRecorder *tracer = obs::trace()) {
        tracer->nameThread("serve.writer");
    }
    while (true) {
        Outgoing out;
        {
            std::unique_lock<std::mutex> lock(outgoingMutex_);
            outgoingCv_.wait(lock, [&] {
                return outgoingStop_ || !outgoingQueue_.empty();
            });
            if (outgoingQueue_.empty()) {
                return; // outgoingStop_ and fully drained
            }
            out = std::move(outgoingQueue_.front());
            outgoingQueue_.pop_front();
        }
        {
            obs::Span writeSpan(obs::trace(), "serve.write", "serve");
            writeSpan.arg("req", static_cast<std::int64_t>(out.id))
                .arg("bytes",
                     static_cast<std::int64_t>(out.payload.size()));
            std::lock_guard<std::mutex> wlock(out.conn->writeMutex);
            if (out.conn->fd >= 0) {
                try {
                    writeFrame(out.conn->fd, out.payload);
                    responsesWritten_.add();
                } catch (const Error &) {
                    // Peer vanished mid-write: wake its reader, move on.
                    ::shutdown(out.conn->fd, SHUT_RDWR);
                    writeSpan.arg("error", std::string("peer-lost"));
                }
            }
        }
        out.conn->pendingWrites.fetch_sub(1);
    }
}

void
Server::enqueueOutgoing(const std::shared_ptr<Connection> &conn,
                        std::string &&payload, std::uint64_t id)
{
    conn->pendingWrites.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(outgoingMutex_);
        outgoingQueue_.push_back(Outgoing{conn, std::move(payload), id});
    }
    outgoingCv_.notify_one();
}

void
Server::reapConnections(bool all)
{
    std::lock_guard<std::mutex> lock(connMutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
        const std::shared_ptr<Connection> &conn = it->second;
        // A finished reader alone is not enough: a client may half-
        // close its send side and wait for responses, so keep the fd
        // until every admitted job has completed and the writer has
        // drained this connection's queue.
        if (!all && (!conn->readerDone.load() ||
                     conn->inflightJobs.load() != 0 ||
                     conn->pendingWrites.load() != 0)) {
            ++it;
            continue;
        }
        if (conn->reader.joinable()) {
            conn->reader.join();
        }
        {
            std::lock_guard<std::mutex> wlock(conn->writeMutex);
            if (conn->fd >= 0) {
                ::close(conn->fd);
                conn->fd = -1;
            }
        }
        it = connections_.erase(it);
    }
}

void
Server::wait()
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    shutdownCv_.wait(lock, [&] {
        return shutdownRequested_.load() || !running_.load();
    });
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        if (!running_.exchange(false)) {
            return;
        }
    }
    shutdownCv_.notify_all();

    // 1. No new connections.
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
    }
    if (acceptThread_.joinable()) {
        acceptThread_.join();
    }

    // 2. No new requests: end every reader at its next frame boundary.
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (auto &[id, conn] : connections_) {
            std::lock_guard<std::mutex> wlock(conn->writeMutex);
            if (conn->fd >= 0) {
                ::shutdown(conn->fd, SHUT_RD);
            }
        }
        for (auto &[id, conn] : connections_) {
            if (conn->reader.joinable()) {
                conn->reader.join();
            }
        }
    }

    // 3. Admission flushes what it holds, then exits.
    {
        std::lock_guard<std::mutex> lock(admissionMutex_);
        admissionStop_ = true;
    }
    admissionCv_.notify_all();
    if (admissionThread_.joinable()) {
        admissionThread_.join();
    }

    // 4. Executors drain the group queue.
    {
        std::lock_guard<std::mutex> lock(groupMutex_);
        groupStop_ = true;
    }
    groupCv_.notify_all();
    for (std::thread &t : executorThreads_) {
        if (t.joinable()) {
            t.join();
        }
    }
    executorThreads_.clear();

    // 5. Writer flushes every queued response before sockets close.
    {
        std::lock_guard<std::mutex> lock(outgoingMutex_);
        outgoingStop_ = true;
    }
    outgoingCv_.notify_all();
    if (writerThread_.joinable()) {
        writerThread_.join();
    }

    // 6. Tear down the sockets.
    reapConnections(true);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    std::error_code ec;
    std::filesystem::remove(options_.socketPath, ec);
}

#else // !__unix__

void
Server::start()
{
    CHIMERA_CHECK(false,
                  "chimera-serve requires a Unix-domain socket platform");
}

void
Server::acceptLoop()
{
}
void
Server::readerLoop(const std::shared_ptr<Connection> &)
{
}
void
Server::dispatchRequest(const std::shared_ptr<Connection> &, Request &&)
{
}
void
Server::admissionLoop()
{
}
void
Server::executorLoop()
{
}
void
Server::writerLoop()
{
}
void
Server::enqueueOutgoing(const std::shared_ptr<Connection> &,
                        std::string &&, std::uint64_t)
{
}
void
Server::reapConnections(bool)
{
}
void
Server::wait()
{
}
void
Server::stop()
{
}

#endif // __unix__

std::string
Server::statsText() const
{
    const obs::Registry &gate = gate_.registry();
    const plan::PlanCacheStats cache = gate_.cache().stats();
    const obs::HistogramSnapshot lat = latencySeconds_.snapshot();
    const obs::HistogramSnapshot slices = batchSlices_.snapshot();
    std::ostringstream out;
    out << "server: chimera-serve\n"
        << "stats-version: 2\n"
        << "connections: " << connectionsAccepted_.value() << "\n"
        << "requests: " << requestsAdmitted_.value() << "\n"
        << "responses: " << responsesWritten_.value() << "\n"
        << "protocol-errors: " << protocolErrors_.value() << "\n"
        << "batches: " << slices.count() << "\n"
        << "batched-requests: " << batchedRequests_.value() << "\n"
        << "max-batch-observed: " << slices.max() << "\n"
        << "plans-led: " << gate.counterValue("chimera.serve.plans_led")
        << "\n"
        << "plans-joined: "
        << gate.counterValue("chimera.serve.plans_joined") << "\n"
        << "derived-plans: "
        << gate.counterValue("chimera.serve.derived_plans") << "\n"
        << "certified-plans: "
        << gate.counterValue("chimera.serve.certified_plans") << "\n"
        << "recertified-plans: "
        << gate.counterValue("chimera.serve.recertified_plans") << "\n"
        << "plan-cache-memory-hits: " << cache.memoryHits << "\n"
        << "plan-cache-disk-hits: " << cache.diskHits << "\n"
        << "plan-cache-misses: " << cache.misses << "\n"
        << "plan-cache-stores: " << cache.stores << "\n"
        << "plan-cache-disk-disabled: " << (cache.diskDisabled ? 1 : 0)
        << "\n";
    // stats-version 2: server-side latency percentiles (HDR histogram,
    // seconds) and batch-size distribution (raw slices). Clients parse
    // by key, so future additions only need a version bump.
    const auto seconds = [&out](const char *key, double value) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9f", value);
        out << key << ": " << buf << "\n";
    };
    out << "latency-count: " << lat.count() << "\n";
    seconds("latency-p50-seconds", lat.percentileSeconds(0.50));
    seconds("latency-p90-seconds", lat.percentileSeconds(0.90));
    seconds("latency-p99-seconds", lat.percentileSeconds(0.99));
    seconds("latency-p999-seconds", lat.percentileSeconds(0.999));
    seconds("latency-mean-seconds", lat.meanSeconds());
    seconds("latency-max-seconds", lat.maxSeconds());
    out << "batch-slices-count: " << slices.count() << "\n"
        << "batch-slices-p50: " << slices.percentile(0.50) << "\n"
        << "batch-slices-p99: " << slices.percentile(0.99) << "\n"
        << "batch-slices-max: " << slices.max() << "\n";
    return out.str();
}

std::string
Server::metricsJson() const
{
    return obs::renderJson({&registry_, &gate_.registry(),
                            &gate_.cache().registry(),
                            &obs::Registry::global()});
}

CheckResult
runCheckReplay(std::vector<ExecuteRequest> requests, std::int64_t maxBatch,
               double capacityBytes)
{
    CheckResult out;
    out.requests = static_cast<std::int64_t>(requests.size());

    PlannerGateOptions gateOptions;
    gateOptions.capacityBytes = capacityBytes;
    gateOptions.cacheDir = "-"; // memory-only: replay leaves no state
    PlannerGate gate(gateOptions);
    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    exec::ExecOptions execOptions;
    execOptions.threads = 1;
    const auto now = [] { return 0.0; };

    // Pass 1: every request alone, under its canonical plan.
    std::vector<Tensor> individual(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::vector<ServeJob> group(1);
        group[0].request = requests[i]; // copy: pass 2 reuses the inputs
        group[0].complete = [&individual, i](ExecuteResponse &&response) {
            if (response.status == Status::Ok) {
                individual[i] = std::move(response.e);
            }
        };
        const GroupResult result =
            executeGroup(group, gate, engine, execOptions, now);
        CHIMERA_CHECK(result.ok, "check replay: " + result.error);
    }

    // Pass 2: the daemon's batcher, flushing on stream order alone.
    std::vector<Tensor> batched(requests.size());
    std::uint64_t digest = kFnvOffset;
    std::deque<ServeJob> jobs;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        ServeJob job;
        job.request = std::move(requests[i]);
        job.complete = [&batched, &digest, i](ExecuteResponse &&response) {
            if (response.status != Status::Ok) {
                return; // the group's result.ok reports the failure
            }
            const std::string payload = encodeExecuteResponse(response);
            digest = fnv1a64(payload.data(), payload.size(), digest);
            batched[i] = std::move(response.e);
        };
        jobs.push_back(std::move(job));
    }
    std::vector<std::vector<ServeJob>> groups =
        groupCompatible(std::move(jobs), maxBatch);
    out.groups = static_cast<std::int64_t>(groups.size());
    for (std::vector<ServeJob> &group : groups) {
        const GroupResult result =
            executeGroup(group, gate, engine, execOptions, now);
        CHIMERA_CHECK(result.ok, "check replay: " + result.error);
    }

    out.identical = true;
    for (std::size_t i = 0; i < individual.size(); ++i) {
        if (individual[i].numel() != batched[i].numel() ||
            std::memcmp(individual[i].data(), batched[i].data(),
                        static_cast<std::size_t>(individual[i].bytes())) !=
                0) {
            out.identical = false;
            break;
        }
    }
    out.digest = digest;
    return out;
}

std::vector<ExecuteRequest>
builtinCheckWorkload()
{
    struct Spec
    {
        std::int64_t batch, m, n, k, l;
        ir::Epilogue epilogue;
        float scale;
        bool causal;
    };
    // Three compatibility classes, interleaved, with mixed batch
    // counts: exercises grouping across classes, multi-slice requests,
    // and all three epilogues.
    const Spec specs[] = {
        {1, 96, 64, 48, 80, ir::Epilogue::Relu, 1.0f, false},
        {1, 64, 64, 64, 64, ir::Epilogue::Softmax, 0.125f, true},
        {2, 96, 64, 48, 80, ir::Epilogue::Relu, 1.0f, false},
        {1, 80, 48, 32, 56, ir::Epilogue::None, 1.0f, false},
        {1, 64, 64, 64, 64, ir::Epilogue::Softmax, 0.125f, true},
        {1, 96, 64, 48, 80, ir::Epilogue::Relu, 1.0f, false},
        {3, 64, 64, 64, 64, ir::Epilogue::Softmax, 0.125f, true},
        {1, 80, 48, 32, 56, ir::Epilogue::None, 1.0f, false},
    };
    std::vector<ExecuteRequest> requests;
    std::uint64_t id = 1;
    for (const Spec &spec : specs) {
        ExecuteRequest request;
        request.id = id++;
        request.config.batch = spec.batch;
        request.config.m = spec.m;
        request.config.n = spec.n;
        request.config.k = spec.k;
        request.config.l = spec.l;
        request.config.epilogue = spec.epilogue;
        request.config.softmaxScale = spec.scale;
        request.config.causalMask = spec.causal;
        request.config.name = "serve-check";
        request.a = Tensor(exec::gemmChainShapeA(request.config));
        request.b = Tensor(exec::gemmChainShapeB(request.config));
        request.d = Tensor(exec::gemmChainShapeD(request.config));
        fillPattern(request.a);
        fillPattern(request.b);
        fillPattern(request.d);
        requests.push_back(std::move(request));
    }
    return requests;
}

} // namespace chimera::serve
