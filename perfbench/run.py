#!/usr/bin/env python3
"""Build and run one workload of the chimera benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library from src/) in .bench_build/; later
runs rebuild incrementally. The workload runs in a fresh directory under
.bench_build/ that is removed afterwards, so nothing outside the checkout
is read or written. The last line of stdout is the JSON result; the exit
status is the benchmark's (0 only when every correctness check passed).
Every metric the run measured, the result's and the workload's own, is
also written to .bench_build/reports/<workload>-trace<0|1>.ledger.json,
and a traced run's spans to .bench_build/reports/<workload>.perfetto.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["gemm-chains", "conv-chains", "plan-corpus", "serve-mixed"]
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    tree = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", tree,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", tree, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr, timeout=840)
    return os.path.join(tree, "perfbench")


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line is one JSON object holding exactly the metrics
    BENCHMARK.json declares for this mode, each in its unit."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys differ from the contract")
    declared = declared_metrics(trace)
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != declared:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra or "
                         "in another unit %s"
                         % (sorted(set(declared.items()) - set(printed.items())),
                            sorted(set(printed.items()) - set(declared.items()))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 2

    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    command += ["--ledger-out",
                os.path.join(reports, "%s-trace%d.ledger.json" % (args.workload, args.trace))]
    if args.trace:
        command += ["--trace-out", os.path.join(reports, args.workload + ".perfetto.json")]
    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log("%s ran for %.1f s" % (args.workload, time.monotonic() - start))

    lines = run.stdout.strip().splitlines()
    if not lines:
        log("no result line")
        return 3
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        log("bad result line: %s" % e)
        return 3
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
