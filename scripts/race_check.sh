#!/usr/bin/env bash
# Safety sweep: dynamic and static.
#
# Dynamic: runs chimera-check --race (shadow-memory write tracking, see
# src/analysis/race_checker.hpp) over example-sized chain shapes — which
# must come back clean — and over the seeded-race fixtures, which
# mis-declare a reduction axis as parallel and must be flagged RC01.
#
# Static: runs chimera-check --static (symbolic safety analyzer, see
# src/analysis/static_safety.hpp) over the same clean shapes — every
# planner schedule must certify — and over the seeded SB fixtures, each
# of which must be refuted with its own rule id.
#
# Search: runs chimera-check --search (order-search replay, see
# src/verify/search_verifier.hpp) over the clean shapes — pruned search
# must replay against exhaustive enumeration without OE findings. A
# plan document with a `search:` line (the older format) is refused
# outright as a syntax error (PL01).
#
# Exit-code contract under test: rule violations exit 1, usage/IO
# failures exit 2, clean runs exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=build/tools/chimera-check
if [ ! -x "$CHECK" ]; then
    echo "error: $CHECK not built (run: cmake -B build && cmake --build build)" >&2
    exit 1
fi

# Asserts "$@" exits with status exactly $2 and prints a [$1] finding.
expect_rule() {
    local rule="$1" want_status="$2"
    shift 2
    local out status=0
    out="$("$@" 2>&1)" || status=$?
    if [ "$status" != "$want_status" ]; then
        echo "error: expected '$*' to exit $want_status, got $status" >&2
        echo "$out" >&2
        exit 1
    fi
    if ! grep -q "\[$rule\]" <<<"$out"; then
        echo "error: '$*' exited $status without a $rule finding:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "flagged as expected ($rule): $*"
}

echo "== planner schedules must race-check clean =="
"$CHECK" gemm 1 64 64 64 64 --race
"$CHECK" gemm 1 64 64 64 64 --softmax --race
"$CHECK" gemm 4 128 64 64 128 --softmax --race # attention-shaped
"$CHECK" conv 1 16 16 16 16 16 3 3 1 1 --race
"$CHECK" conv 1 8 28 28 16 32 3 1 2 1 --race # squeezenet-stem-shaped

echo "== seeded-race fixtures must be flagged =="
expect_rule RC01 1 "$CHECK" gemm 1 64 64 64 64 --race \
    --plan tests/fixtures/race_parallel_l.plan
expect_rule RC01 1 "$CHECK" conv 1 16 16 16 16 16 3 3 1 1 --race \
    --plan tests/fixtures/race_parallel_oc1.plan
# RC01 must come only from observed conflicts: a document that no longer
# parses is PL01 and the scan is skipped, so the two RC01 gates above
# cannot pass on a fixture that has decayed.
expect_rule PL01 1 "$CHECK" gemm 1 64 64 64 64 --race \
    --plan tests/fixtures/bad_syntax.plan
unbound_out="$("$CHECK" gemm 1 64 64 64 64 --race \
    --plan tests/fixtures/bad_syntax.plan 2>&1)" || true
if grep -q "\[RC01\]" <<<"$unbound_out"; then
    echo "error: an unparseable document was reported as a race (RC01)" >&2
    exit 1
fi

echo "== planner schedules must certify statically =="
static_clean() {
    local out
    out="$("$@" 2>&1)"
    if ! grep -q "static-safety: certified" <<<"$out"; then
        echo "error: '$*' did not certify:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "certified: $*"
}
static_clean "$CHECK" gemm 1 64 64 64 64 --static
static_clean "$CHECK" gemm 4 128 64 64 128 --softmax --static
static_clean "$CHECK" conv 1 16 16 16 16 16 3 3 1 1 --static
static_clean "$CHECK" conv 1 8 28 28 16 32 3 1 2 1 --static

echo "== seeded SB fixtures must be refuted with their rule =="
# sb01: tile m=64 cannot cover every shape of a domain widened to
# m in [1, 128] — the first block's window escapes small shapes.
expect_rule SB01 1 "$CHECK" gemm 1 64 64 64 64 --static --domain m=128 \
    --plan tests/fixtures/sb01_window_escape.plan
# sb02: full-extent tiles against a deliberately tiny budget.
expect_rule SB02 1 "$CHECK" gemm 1 64 64 64 64 --capacity 32768 --static \
    --plan tests/fixtures/sb02_overbudget.plan
# sb03: m*n element offsets of the output exceed int64 at these extents.
expect_rule SB03 1 "$CHECK" gemm 1 4300000000 4300000000 64 64 \
    --no-recount --static --plan tests/fixtures/sb03_overflow.plan
# sb04: l is a reduction axis of the second gemm; marking it parallel
# has no shape-generic disjointness proof.
expect_rule SB04 1 "$CHECK" gemm 1 64 64 64 64 --static \
    --plan tests/fixtures/race_parallel_l.plan
# Plain verification runs the same SB pass, so both seeded-race
# fixtures are refuted statically without --static or --race.
expect_rule SB04 1 "$CHECK" gemm 1 64 64 64 64 \
    --plan tests/fixtures/race_parallel_l.plan
expect_rule SB04 1 "$CHECK" conv 1 16 16 16 16 16 3 3 1 1 \
    --plan tests/fixtures/race_parallel_oc1.plan

echo "== pruned order search must replay exactly =="
search_clean() {
    local out
    out="$("$@" 2>&1)"
    if ! grep -q "search:" <<<"$out" || grep -q "\[OE0" <<<"$out"; then
        echo "error: '$*' search replay not clean:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "search replay clean: $*"
}
search_clean "$CHECK" gemm 1 64 64 64 64 --search
search_clean "$CHECK" gemm 1 64 64 64 64 --search --prune symmetry
search_clean "$CHECK" gemm 4 128 64 64 128 --softmax --search
search_clean "$CHECK" gemm3 2 64 32 32 48 16 --search
search_clean "$CHECK" gemm3 1 64 64 64 64 32 --softmax --search # attention
search_clean "$CHECK" conv 1 16 16 16 16 16 3 3 1 1 --search

# A `search:` line (here with a forged digest) is not part of the plan
# document any more: the parser refuses it, naming the line.
expect_rule PL01 1 "$CHECK" gemm 1 64 64 64 64 \
    --plan tests/fixtures/pl15_tampered_search.plan

echo "== usage/IO failures must exit 2, not 1 =="
probe_status() {
    local want="$1"
    shift
    local status=0
    "$@" >/dev/null 2>&1 || status=$?
    if [ "$status" != "$want" ]; then
        echo "error: expected '$*' to exit $want, got $status" >&2
        exit 1
    fi
    echo "exit $want as expected: $*"
}
probe_status 2 "$CHECK" gemm 1 64 64 64 64 \
    --plan tests/fixtures/does_not_exist.plan
probe_status 2 "$CHECK" gemm 1 64 64 64 64 --static --domain bogus=4096
probe_status 2 "$CHECK"
# A capacity no schedule fits is an input error, not a rule violation.
probe_status 2 "$CHECK" gemm 1 512 512 512 512 --capacity 64

echo "== chimera-plan tracing obeys the same exit-code contract =="
PLAN=build/tools/chimera-plan
if [ ! -x "$PLAN" ]; then
    echo "error: $PLAN not built" >&2
    exit 1
fi
trace_tmp="$(mktemp -t chimera-plan-trace-XXXXXX.json)"
probe_status 0 "$PLAN" gemm 1 64 64 64 64 --no-cache \
    --trace-out "$trace_tmp"
if [ ! -s "$trace_tmp" ]; then
    echo "error: --trace-out wrote no trace to $trace_tmp" >&2
    exit 1
fi
python3 scripts/validate_trace.py "$trace_tmp" --require-layers=plan
rm -f "$trace_tmp"
# An unwritable trace path is a usage error: exit 2, never a crash.
probe_status 2 "$PLAN" gemm 1 64 64 64 64 --no-cache \
    --trace-out /nonexistent-dir/trace.json
# So is a capacity no schedule fits.
probe_status 2 "$PLAN" gemm 1 512 512 512 512 --capacity 64 --no-cache

echo "safety sweep: OK"
