#!/usr/bin/env bash
# Serving smoke test: boots chimera-serve on a private socket, drives it
# with serve_loadgen, and gates on the things a broken daemon gets
# wrong — zero completed requests, protocol errors, a dirty shutdown,
# or a metrics dump that disagrees with the Stats document. The loadgen writes BENCH_serving.json (p50/p99 latency,
# achieved throughput, batching stats) for the CI artifact upload.
#
# Flags: --quick forwards the loadgen's reduced sweep (64 requests at
# 400 rps) for CI; the default is the full 512-request run.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVER=build/tools/chimera-serve
LOADGEN=build/bench/serve_loadgen
for bin in "$SERVER" "$LOADGEN"; do
    if [ ! -x "$bin" ]; then
        echo "error: $bin not built (run: cmake -B build && cmake --build build)" >&2
        exit 1
    fi
done

quick=()
for arg in "$@"; do
    case "$arg" in
        --quick) quick=(--quick) ;;
        *) echo "error: unknown flag $arg (supported: --quick)" >&2; exit 2 ;;
    esac
done

socket="/tmp/chimera-serve-smoke-$$.sock"
out="BENCH_serving.json"
trace="chimera-serve-trace.json"
metrics="chimera-serve-metrics.json"
rm -f "$socket" "$out" "$trace" "$metrics"

# The deterministic replay first: batched == individual, bitwise.
"$SERVER" --check

"$SERVER" --socket "$socket" --no-cache \
          --trace-out "$trace" --metrics-dump "$metrics" &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true; rm -f "$socket"' EXIT

# The loadgen retries the connect internally; it exits non-zero on any
# incomplete request, protocol error, or error response.
"$LOADGEN" --socket "$socket" --out "$out" "${quick[@]}"

kill -TERM "$server_pid"
wait "$server_pid"
trap 'rm -f "$socket"' EXIT

if [ ! -s "$out" ]; then
    echo "error: loadgen did not write $out" >&2
    exit 1
fi
for artifact in "$trace" "$metrics"; do
    if [ ! -s "$artifact" ]; then
        echo "error: daemon did not write $artifact" >&2
        exit 1
    fi
done

# The trace must carry at least one span from each instrumented layer
# and a request id that links decode -> execute -> write.
python3 scripts/validate_trace.py "$trace" --require-request-linkage

python3 - "$out" "$metrics" <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
failures = []
if doc["achieved_throughput_rps"] <= 0:
    failures.append("throughput is zero")
if doc["protocol_errors"] != 0:
    failures.append(f"protocol errors: {doc['protocol_errors']}")
if doc["response_errors"] != 0:
    failures.append(f"response errors: {doc['response_errors']}")
if doc["completed"] != doc["requests"]:
    failures.append(f"completed {doc['completed']}/{doc['requests']}")

# Schema gate: a loadgen run against a stats-version-2 daemon must
# surface the server-side histogram block. A missing key here means
# the exposition or the loadgen parser regressed — fail loudly rather
# than silently dropping the server percentiles from the artifact.
if doc.get("server_stats_version", 0) < 2:
    failures.append(
        f"server_stats_version {doc.get('server_stats_version')} < 2")
server_lat = doc.get("server_latency_seconds")
if server_lat is None:
    failures.append("missing server_latency_seconds block")
else:
    for key in ("count", "p50", "p90", "p99", "p999", "mean", "max"):
        if key not in server_lat:
            failures.append(f"server_latency_seconds lacks '{key}'")
    if not failures:
        if server_lat["count"] != doc["completed"]:
            failures.append(
                f"server latency count {server_lat['count']} != "
                f"completed {doc['completed']}")
        if server_lat["p50"] > server_lat["p99"]:
            failures.append("server p50 > p99")
        # Client-observed latency includes the server span plus socket
        # and queueing time, so server p50 cannot exceed client max.
        if server_lat["p50"] > doc["latency_seconds"]["max"]:
            failures.append("server p50 exceeds client max latency")

with open(sys.argv[2]) as fh:
    metrics = json.load(fh)
lat = metrics.get("chimera.serve.latency_seconds")
if lat is None:
    failures.append("metrics dump lacks chimera.serve.latency_seconds")
elif lat["count"] != doc["completed"]:
    failures.append(f"metrics latency count {lat['count']} != "
                    f"completed {doc['completed']}")

# One store: the Stats document the loadgen fetched after its last
# response and the dump written at shutdown read the same registry
# counters, and no Execute request runs between the two.
stats = doc.get("server", {})
slices = metrics.get("chimera.serve.batch_slices", {})
for metric, dumped, key in (
        ("chimera.serve.requests",
         metrics.get("chimera.serve.requests"), "requests"),
        ("chimera.serve.batch_slices.count", slices.get("count"),
         "batches")):
    if dumped is None or dumped != stats.get(key):
        failures.append(f"metrics {metric} {dumped} != "
                        f"stats {key} {stats.get(key)}")

for failure in failures:
    print(f"serve smoke: {failure}", file=sys.stderr)
if failures:
    sys.exit(1)
p50 = doc["latency_seconds"]["p50"] * 1e3
p99 = doc["latency_seconds"]["p99"] * 1e3
sp99 = server_lat["p99"] * 1e3
print(f"serve smoke: ok ({doc['completed']} requests, "
      f"{doc['achieved_throughput_rps']:.1f} rps, "
      f"p50 {p50:.3f} ms, p99 {p99:.3f} ms, server p99 {sp99:.3f} ms)")
EOF
