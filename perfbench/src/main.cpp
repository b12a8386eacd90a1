/**
 * @file
 * perfbench: runs one benchmark workload in this process and prints one
 * JSON result line as the last line of stdout.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --workdir <dir> [--trace-out <file.json>] [--ledger-out <file.json>]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
 * traced and reports the per-layer metrics, writing the spans as
 * Perfetto JSON to --trace-out. Every workload reports the same
 * metrics; everything else a workload measures (per-program times, the
 * daemon's latencies, ...) goes with them to the JSON object written
 * to --ledger-out. The run lives in --workdir, which becomes its
 * working directory. Exit status 0 only when every check passed; 2 on
 * usage errors.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace perfbench;

struct Workload
{
    const char *name;
    Results (*run)(const Context &, SpanLog &);
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"gemm-chains", runGemmChains},
        {"conv-chains", runConvChains},
        {"plan-corpus", runPlanCorpus},
        {"serve-mixed", runServeMixed},
    };
    return all;
}

/** The metrics every untraced run reports (BENCHMARK.json's end_to_end). */
const std::vector<const char *> kEndToEnd = {"setup_s", "rss_mb", "pass_ms", "pass_ms_mt"};

/**
 * The metrics every traced run reports (BENCHMARK.json's per_layer).
 * Whatever else a workload measures goes to the ledger file only.
 */
const std::vector<const char *> kPerLayer = {
    "kernels.micro_gflops",
    "kernels.block_matmul_gflops",
    "exec.dispatch_us",
    "scaling_mt",
    "workers_mt",
    "model.flops",
    "model.dv_bytes",
    "model.flop_per_byte",
    "plan.cold_ms",
    "plan.warm_us",
    "plan.disk_us",
    "plan.search.enumerated",
    "plan.search.solved",
    "plan.search.symmetry_pruned",
    "plan.search.dominance_pruned",
    "plan.cache.stores",
    "plan.cache.misses",
    "plan.cache.memory_hits",
    "plan.cache.disk_hits",
    "plan.cache.rejected",
    "plan.doc_bytes",
    "analysis.certify_ms",
    "analysis.concurrency_ms",
    "verify.plan_ms",
    "plan_io.serialize_us",
    "plan_io.deserialize_us",
    "serve.protocol.encode_us",
    "serve.protocol.decode_us",
    "serve.batcher.group_us",
    "serve.gate.canonical_plan_us",
    "serve.exec_us.relu",
    "serve.exec_us.softmax",
    "serve.exec_us.plain",
    "error_frac",
    "trace.overhead_frac",
    "trace.spans",
    "trace.self_frac.bench",
    "trace.self_frac.kernels",
    "trace.self_frac.exec",
    "trace.self_frac.plan",
    "trace.self_frac.analysis",
    "trace.self_frac.verify",
    "trace.self_frac.plan_io",
    "trace.self_frac.serve",
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                 "                 --workdir <dir> [--trace-out <file.json>]\n"
                 "                 [--ledger-out <file.json>]\n",
                 message);
    std::exit(2);
}

/**
 * The benchmark passes every worker count explicitly and traces from
 * its own files, so the program's environment knobs must not reach it:
 * thread count, tracing, pinning, and the default plan-cache directory
 * (set empty, which means memory-only).
 */
void
scrubEnvironment()
{
    ::unsetenv("CHIMERA_THREADS");
    ::unsetenv("CHIMERA_TRACE");
    ::unsetenv("CHIMERA_AFFINITY");
    ::setenv("CHIMERA_PLAN_CACHE", "", 1);
}

/** {"name": {"value": v, "unit": u}, ...} over @p names. */
std::string
metricsJson(const Results &results, const std::vector<std::string> &names)
{
    std::string json = "{";
    bool first = true;
    for (const std::string &name : names) {
        const Metric &m = results.metrics().at(name);
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
                m.unit + "\"}";
        first = false;
    }
    return json + "}";
}

void
printResult(const Results &results, bool correct, const std::vector<std::string> &names)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(1, results.attempted()));
    json += ", \"failed\": " + std::to_string(results.failed());
    json += ", \"metrics\": " + metricsJson(results, names) + "}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    scrubEnvironment();
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
            usage("arguments come in --flag value pairs");
        }
        args[argv[i] + 2] = argv[i + 1];
    }
    for (const char *required : {"workload", "seed", "seconds", "trace", "workdir"}) {
        if (args.count(required) == 0) {
            usage((std::string("missing --") + required).c_str());
        }
    }
    const auto workload =
        std::find_if(workloads().begin(), workloads().end(),
                     [&](const Workload &w) { return args["workload"] == w.name; });
    if (workload == workloads().end()) {
        usage(("unknown workload " + args["workload"]).c_str());
    }
    Context ctx;
    ctx.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    ctx.seconds = std::atof(args["seconds"].c_str());
    ctx.trace = args["trace"] == "1";
    // Half the vCPUs, at most four: a statically chunked parallel call
    // waits for its slowest worker, and on a shared 4-vCPU VM a worker
    // on every vCPU makes that the scheduler's delay (interleaved runs
    // there: fastest 4-worker sweep spread 0.18 over runs, 2-worker 0.04).
    ctx.workers = std::max(1, std::min(4, chimera::hardwareThreadCount() / 2));
    ctx.workdir = args["workdir"];
    if (ctx.seconds <= 0.0 || (args["trace"] != "0" && args["trace"] != "1")) {
        usage("--seconds must be positive and --trace 0 or 1");
    }
    if (::chdir(ctx.workdir.c_str()) != 0) {
        usage(("cannot enter --workdir " + ctx.workdir).c_str());
    }
    std::fprintf(stderr, "perfbench: %s seed %llu, %.1f s, trace %d, %d multi-worker threads\n",
                 workload->name, static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                 ctx.trace ? 1 : 0, chimera::resolveThreadCount(ctx.workers));

    SpanLog spans(ctx.trace);
    Results results;
    try {
        results = workload->run(ctx, spans);
    } catch (const std::exception &e) {
        results.check(false, workload->name, e.what());
    }

    if (ctx.trace) {
        results.set("error_frac",
                    static_cast<double>(results.failed()) /
                        static_cast<double>(std::max<std::int64_t>(1, results.attempted())),
                    "ratio");
        if (args.count("trace-out") != 0) {
            std::ofstream out(args["trace-out"]);
            out << perfettoJson(spans.spans());
            results.check(static_cast<bool>(out), args["trace-out"], "cannot write the trace");
        }
    }
    std::vector<std::string> names;
    for (const char *name : ctx.trace ? kPerLayer : kEndToEnd) {
        if (results.check(results.metrics().count(name) != 0, name, "metric not measured")) {
            names.emplace_back(name);
        }
    }
    for (const std::string &name : names) {
        const double value = results.metrics().at(name).value;
        if (!results.check(std::isfinite(value), name, "metric is not a finite number")) {
            results.set(name, 0.0, results.metrics().at(name).unit);
        }
    }
    if (args.count("ledger-out") != 0) {
        std::vector<std::string> all;
        for (const auto &[name, metric] : results.metrics()) {
            all.push_back(name);
        }
        std::ofstream out(args["ledger-out"]);
        out << metricsJson(results, all) << "\n";
        results.check(static_cast<bool>(out), args["ledger-out"], "cannot write the ledger");
    }
    const bool correct = results.failed() == 0;
    printResult(results, correct, names);
    return correct ? 0 : 1;
}
