#pragma once

/**
 * @file
 * chimera-serve: the plan-and-serve daemon.
 *
 * A Unix-domain-socket server for chain-execution requests using the
 * length-prefixed protocol of serve/protocol.hpp. The thread layout:
 *
 *   accept loop ──► one reader per connection ──► admission queue
 *                                                      │ (batch window)
 *                                                admission thread
 *                                                      │ groupCompatible
 *                                                 group queue
 *                                                      │
 *                                               executor threads ──►
 *                                           completion queue ──► writer
 *
 * Readers parse and validate frames; admission coalesces compatible
 * requests along the b axis inside a short window; executors plan
 * through the single-flight PlannerGate and run groups on the compute
 * engine; one writer drains the completion queue back to the sockets,
 * so responses go out as they finish — out of order with respect to
 * arrival, matched by request id.
 *
 * A malformed payload inside a well-framed message gets an error
 * response (and bumps protocol-errors); an unframeable byte stream
 * (bad magic/length) closes the connection, since resynchronization is
 * impossible. A Shutdown request is acknowledged, then the daemon
 * drains: readers stop, queued groups execute, every queued response is
 * written, and only then do the sockets close.
 *
 * `runCheckReplay` is the socket-free deterministic core of
 * `chimera-serve --check`: it executes a request list twice — each
 * request alone, then coalesced through the same batcher the daemon
 * uses — verifies the outputs are bitwise identical, and digests the
 * batched responses so two runs (or two machines) can be compared.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/compute_engine.hpp"
#include "exec/exec_options.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/planner_gate.hpp"
#include "serve/protocol.hpp"

namespace chimera::serve {

/** Daemon configuration (CLI flags map 1:1 onto these). */
struct ServerOptions
{
    /** Path to bind the Unix-domain listening socket at. */
    std::string socketPath;

    /** Executor threads (concurrent groups in flight). */
    int executors = 2;

    /** Worker threads per executed group (1 = serial execution). */
    int execThreads = 1;

    /** Coalesce compatible requests along b (false = serve singly). */
    bool batching = true;

    /** Max total slices per batch group. */
    std::int64_t maxBatch = 8;

    /**
     * After the first queued request, admission waits this long for
     * companions before flushing. 0 flushes immediately (batching then
     * only groups requests that arrived while executors were busy).
     */
    std::int64_t batchWindowMicros = 200;

    /** On-chip capacity assumed when planning, bytes. */
    double capacityBytes = 768.0 * 1024;

    /** Plan-cache directory ("" = default, "-" = memory-only). */
    std::string cacheDir;

    /** Audit plans with the legality verifier before serving. */
    bool verifyPlans = false;
};

/** The daemon. start() spawns the thread set; stop() drains it. */
class Server
{
  public:
    explicit Server(const ServerOptions &options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Binds the socket and spawns all threads. Throws Error on bind
     * failure (e.g. the path exists and is not a stale socket). */
    void start();

    /** Blocks until a client sends Shutdown or stop() is called. */
    void wait();

    /**
     * Graceful drain in dependency order: accept loop, readers,
     * admission, executors, writer; then sockets close and the socket
     * file is unlinked. Idempotent; called by the destructor.
     */
    void stop();

    /** True once a client has asked the daemon to shut down. */
    bool shutdownRequested() const { return shutdownRequested_.load(); }

    /**
     * The stats document served for MessageType::Stats: "key: value"
     * lines read from the server's, the gate's and the plan cache's
     * registries. `batches` and `max-batch-observed` are the count and
     * max of the `chimera.serve.batch_slices` histogram. Keys are
     * stable (tests and the loadgen parse them); additions are
     * versioned by the `stats-version` line (currently 2, which added
     * the `latency-*` / `batch-slices-*` histogram exposition).
     */
    std::string statsText() const;

    /**
     * JSON object over this server's registry (daemon counters,
     * request-latency and batch-size histograms), the gate's and the
     * plan cache's registries, and the process-global registry
     * (planner metrics). Written by `chimera-serve --metrics-dump`.
     */
    std::string metricsJson() const;

    PlannerGate &gate() { return gate_; }

  private:
    struct Connection
    {
        std::uint64_t id = 0;
        int fd = -1; ///< -1 once closed; guarded by writeMutex
        std::mutex writeMutex; ///< serializes writes and the close
        std::atomic<bool> readerDone{false};
        /// Admitted Execute jobs whose response is not yet queued for
        /// the writer. Incremented at dispatch, decremented by the
        /// completion callback after it enqueues (so inflightJobs +
        /// pendingWrites never transiently reads as zero mid-handoff).
        std::atomic<std::int64_t> inflightJobs{0};
        /// Responses queued for the writer but not yet written (or
        /// dropped). A connection is reaped only once the reader is
        /// done AND both counters are zero, so a client that half-
        /// closes (shutdown(SHUT_WR)) and waits still gets every
        /// response to its in-flight requests.
        std::atomic<std::int64_t> pendingWrites{0};
        std::thread reader;
    };

    /** One encoded response awaiting the writer thread. */
    struct Outgoing
    {
        std::shared_ptr<Connection> conn;
        std::string payload;
        std::uint64_t id = 0; ///< request id (trace span linkage)
    };

    void acceptLoop();
    void readerLoop(const std::shared_ptr<Connection> &conn);
    void admissionLoop();
    void executorLoop();
    void writerLoop();

    /** Handles one decoded request from @p conn's reader. */
    void dispatchRequest(const std::shared_ptr<Connection> &conn,
                         Request &&request);

    void enqueueOutgoing(const std::shared_ptr<Connection> &conn,
                         std::string &&payload, std::uint64_t id);

    /** Joins finished, fully-drained readers and closes their sockets
     * (all = true closes unconditionally; used only after the writer
     * has exited). */
    void reapConnections(bool all);

    double nowSeconds() const;

    const ServerOptions options_;
    PlannerGate gate_;
    exec::ComputeEngine engine_;

    /// Per-instance registry (several servers can coexist in one test
    /// process without polluting each other's counts): the only store
    /// of the daemon's counters and histograms.
    obs::Registry registry_;
    obs::Counter &connectionsAccepted_;
    obs::Counter &requestsAdmitted_; ///< well-formed Execute requests
    obs::Counter &responsesWritten_; ///< incl. error responses
    obs::Counter &protocolErrors_; ///< malformed frames/payloads
    obs::Counter &batchedRequests_; ///< requests that shared a group
    obs::Histogram &latencySeconds_;
    obs::Histogram &batchSlices_; ///< one record per executed group

    int listenFd_ = -1;
    std::thread acceptThread_;
    std::thread admissionThread_;
    std::vector<std::thread> executorThreads_;
    std::thread writerThread_;

    std::atomic<bool> running_{false};
    std::atomic<bool> shutdownRequested_{false};
    std::mutex shutdownMutex_;
    std::condition_variable shutdownCv_;

    mutable std::mutex connMutex_;
    std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
    std::uint64_t nextConnId_ = 1;

    std::mutex admissionMutex_;
    std::condition_variable admissionCv_;
    std::deque<ServeJob> admissionQueue_;
    bool admissionStop_ = false;

    std::mutex groupMutex_;
    std::condition_variable groupCv_;
    std::deque<std::vector<ServeJob>> groupQueue_;
    bool groupStop_ = false;

    std::mutex outgoingMutex_;
    std::condition_variable outgoingCv_;
    std::deque<Outgoing> outgoingQueue_;
    bool outgoingStop_ = false;
};

/** Outcome of the --check replay (see runCheckReplay). */
struct CheckResult
{
    std::int64_t requests = 0;
    std::int64_t groups = 0; ///< batch groups the coalesced pass formed
    bool identical = false; ///< batched outputs == individual outputs
    std::uint64_t digest = 0; ///< FNV-1a over batched response payloads
};

/**
 * Socket-free deterministic replay: executes @p requests each alone
 * (canonical plans), then coalesced via groupCompatible/executeGroup
 * with @p maxBatch, and compares outputs bitwise. Runs serially with a
 * memory-only plan cache, so the digest depends only on the request
 * list. Throws Error when a request is invalid or planning fails.
 */
CheckResult runCheckReplay(std::vector<ExecuteRequest> requests,
                           std::int64_t maxBatch,
                           double capacityBytes = 768.0 * 1024);

/**
 * The built-in --check workload: a deterministic mix of compatibility
 * classes, epilogues and batch counts with fillPattern inputs.
 */
std::vector<ExecuteRequest> builtinCheckWorkload();

} // namespace chimera::serve
