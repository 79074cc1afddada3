#!/usr/bin/env bash
# Benchmark driver with baseline regression gating.
#
# Runs the in-tree criterion-compatible bench targets (MAD outlier
# rejection, median-based statistics — see crates/bench/src/timing.rs)
# and either records the medians as the new baseline or compares them
# against the committed baseline, exiting nonzero when any benchmark
# regressed by more than the threshold.
#
# Usage:
#   scripts/bench.sh save              # run benches, (re)write BENCH_baseline.json
#   scripts/bench.sh compare           # run benches, gate against BENCH_baseline.json
#   scripts/bench.sh smoke             # 1-bench sanity run of the gating pipeline
#
# Environment:
#   BENCH_BASELINE      baseline path        (default: BENCH_baseline.json)
#   BENCH_REGRESS_PCT   regression threshold (default: 25 — a benchmark
#                       more than 25% slower than baseline fails the gate)
#   BENCH_FILTER        space-separated bench target list
#                       (default: fig7a_q1 fig7b_q2d fig7c_q2 operators
#                       counters selectivity phases)
#   BYPASS_THREADS      intra-query worker count (morsel-driven
#                       execution, DESIGN.md §7) and grid fan-out width.
#                       Leave unset for timing runs: baselines are
#                       recorded serial, and counters/phases snapshots
#                       are worker-count independent by construction.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

MODE="${1:-compare}"
BASELINE="${BENCH_BASELINE:-$PWD/BENCH_baseline.json}"
THRESHOLD="${BENCH_REGRESS_PCT:-25}"
# `counters` is timing-free: it gates the exact execution-counter
# snapshots of Q2-Q4 / qexists / qcombined (see benches/counters.rs).
# `selectivity` is also timing-free: it gates the per-disjunct
# reach/decide counters proving the adaptive predicate ordering
# converges cheap-first (see benches/selectivity.rs).
# `phases` gates the span-derived plan-phase medians (parse/translate/
# unnest/optimize/execute — see benches/phases.rs).
# `metrics` is timing-free: it asserts the always-on metrics registry
# folds to a bit-identical deterministic snapshot across the worker ×
# chunk-length matrix and gates the count-derived series (benches/metrics.rs).
# `service` is timing-free: it drives single-threaded admission/retry/
# degradation/drain scenarios and gates the exact service counter
# snapshots (benches/service.rs).
BENCHES="${BENCH_FILTER:-fig7a_q1 fig7b_q2d fig7c_q2 operators counters selectivity phases metrics service}"

case "$MODE" in
save | compare) ;;
smoke)
    # Smoke: prove the save -> compare -> gate pipeline works end to
    # end on one fast bench target, against a throwaway baseline.
    SMOKE_BASE="$(mktemp -t bench_smoke_XXXXXX.json)"
    trap 'rm -f "$SMOKE_BASE"' EXIT
    echo "==> bench smoke: save + compare on operators bench (BENCH_FAST=1)"
    BENCH_FAST=1 BENCH_BASELINE="$SMOKE_BASE" BENCH_BASELINE_MODE=save \
        cargo bench -q -p bypass-bench --bench operators >/dev/null
    test -s "$SMOKE_BASE" || {
        echo "bench smoke: baseline file not written" >&2
        exit 1
    }
    BENCH_FAST=1 BENCH_BASELINE="$SMOKE_BASE" BENCH_BASELINE_MODE=compare BENCH_REGRESS_PCT=400 \
        cargo bench -q -p bypass-bench --bench operators >/dev/null
    echo "bench smoke: OK"
    exit 0
    ;;
*)
    echo "usage: scripts/bench.sh [save|compare|smoke]" >&2
    exit 2
    ;;
esac

if [ "$MODE" = compare ] && [ ! -f "$BASELINE" ]; then
    echo "bench: no baseline at $BASELINE (run 'scripts/bench.sh save' first)" >&2
    exit 1
fi

status=0
for bench in $BENCHES; do
    echo "==> cargo bench --bench $bench ($MODE, threshold ${THRESHOLD}%)"
    if ! BENCH_BASELINE="$BASELINE" \
        BENCH_BASELINE_MODE="$MODE" \
        BENCH_REGRESS_PCT="$THRESHOLD" \
        cargo bench -p bypass-bench --bench "$bench"; then
        status=1
    fi
done

if [ "$MODE" = save ]; then
    # finalize() merges into an existing baseline, so consecutive bench
    # processes accumulate entries instead of clobbering each other.
    echo "bench: baseline written to $BASELINE"
fi

if [ "$status" -ne 0 ]; then
    echo "bench: REGRESSION(S) detected (>${THRESHOLD}% over baseline)" >&2
fi
exit "$status"
