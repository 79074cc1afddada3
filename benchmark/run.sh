#!/usr/bin/env bash
# Build the harness and run it. One command for everything:
#
#   benchmark/run.sh                      all five workloads, end-to-end metrics
#   benchmark/run.sh --trace 1            all five, per-layer metrics + Chrome traces
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --quick              a twentieth of the run length (smoke test)
#   benchmark/run.sh --repeat 10          ten seeds per workload, prints the spreads
#   benchmark/run.sh --compare A.json B.json | --self-check | --regen-expected
#
# Results land in benchmark/out/. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

export CARGO_NET_OFFLINE=true
# A relative CARGO_TARGET_DIR is relative to where cargo starts, which is
# the repository root here, never benchmark/.
target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --quiet --offline \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_COMMIT BENCH_RUSTC

exec "$target/release/bypass-benchmark" "$@"
