#!/usr/bin/env bash
# Wall-clock thread-scaling sweep: runs the GEMM-chain bench (fig5) at
# each of 1/2/4/8 worker threads that the host has CPUs for (count <=
# nproc) and prints the per-count geomean lines as a speedup table.
# Output is also captured to scaling_output.txt, and the table — plus
# the bench's dependence-analysis and static-safety overhead lines — is
# emitted as machine-readable BENCH_scaling.json.
#
# Flags: --quick restricts the bench to the first four Table IV shapes
# (reduced CI sweep).
#
# Gate: exits non-zero when the serial->NT geomean at the largest swept
# count is below 1.0x — a thread-aware plan must never be slower than
# the serial one. The gate needs at least 2 CPUs: on a 1-CPU host there
# is no parallel count to measure, so the script fails rather than pass
# on a serial-vs-serial ratio.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH=build/bench/fig5_cpu_gemm_chains
if [ ! -x "$BENCH" ]; then
    echo "error: $BENCH not built (run: cmake -B build && cmake --build build)" >&2
    exit 1
fi

quick=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        *) echo "error: unknown flag $arg (supported: --quick)" >&2; exit 2 ;;
    esac
done

cores="$(nproc 2>/dev/null || echo 1)"
if [ "$cores" -lt 2 ]; then
    echo "error: the wall-clock scaling gate needs >= 2 CPUs; nproc is $cores" >&2
    exit 1
fi
declare -a counts=()
for t in 1 2 4 8; do
    [ "$t" -le "$cores" ] && counts+=("$t")
done
bench_flags=()
[ "$quick" -eq 1 ] && bench_flags+=(--quick)
echo "mode: wall-clock (nproc=$cores, quick=$quick)"

: > scaling_output.txt
declare -a geomeans=()
overhead_pct="null"
safety_pct="null"
for t in "${counts[@]}"; do
    echo "##### --threads $t" | tee -a scaling_output.txt
    out="$("$BENCH" --threads "$t" ${bench_flags[@]+"${bench_flags[@]}"})"
    echo "$out" >> scaling_output.txt
    # Average the per-family serial->NT scaling geomeans for this count.
    gm="$(echo "$out" |
        sed -n 's/.*scaling: \([0-9.]*\)x.*/\1/p' |
        awk '{ s += $1; n += 1 } END { if (n) printf "%.2f", s / n }')"
    geomeans+=("${gm:-n/a}")
    echo "  geomean serial->${t}T scaling: ${gm:-n/a}x"
    # The analysis-overhead splits are thread-independent; keep the
    # last observation of each line.
    pct="$(echo "$out" |
        sed -n 's/.*dependence analysis.*(\([0-9.]*\)% of planning).*/\1/p' |
        tail -1)"
    [ -n "$pct" ] && overhead_pct="$pct"
    pct="$(echo "$out" |
        sed -n 's/.*static safety.*(\([0-9.]*\)% of planning).*/\1/p' |
        tail -1)"
    [ -n "$pct" ] && safety_pct="$pct"
done

echo
echo "Thread scaling (fused GEMM chains, geomean over Table IV, vs 1T):"
printf '%10s %10s\n' "threads" "speedup"
for i in "${!counts[@]}"; do
    printf '%10s %10s\n' "${counts[$i]}" "${geomeans[$i]}x"
done
echo "(full bench tables captured in scaling_output.txt)"

{
    echo '{'
    echo '  "bench": "fig5_cpu_gemm_chains",'
    echo '  "metric": "geomean serial->NT speedup over Table IV",'
    echo '  "mode": "wall-clock",'
    echo "  \"nproc\": ${cores},"
    echo "  \"quick\": $([ "$quick" -eq 1 ] && echo true || echo false),"
    echo '  "scaling": ['
    for i in "${!counts[@]}"; do
        sep=','
        [ "$i" -eq $((${#counts[@]} - 1)) ] && sep=''
        gm="${geomeans[$i]}"
        [ "$gm" = "n/a" ] && gm="null"
        echo "    {\"threads\": ${counts[$i]}, \"speedup\": ${gm}}${sep}"
    done
    echo '  ],'
    echo "  \"analysis_overhead_pct_of_planning\": ${overhead_pct},"
    echo "  \"static_safety_overhead_pct_of_planning\": ${safety_pct}"
    echo '}'
} > BENCH_scaling.json
echo "wrote BENCH_scaling.json"

final="${geomeans[$((${#counts[@]} - 1))]}"
if [ "$final" = "n/a" ]; then
    echo "error: could not parse a scaling geomean from the bench output" >&2
    exit 1
fi
if ! awk -v g="$final" 'BEGIN { exit !(g >= 1.0) }'; then
    echo "error: serial->${counts[-1]}T geomean ${final}x is below the 1.0x gate" >&2
    exit 1
fi
