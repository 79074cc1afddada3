#!/usr/bin/env bash
# Tier-1 verification gate, fully offline: release build, the whole test
# suite (including the 200-case differential oracle and the slt
# conformance corpus under tests/slt — the SQL surface battery, the
# regression corpus of oracle findings and the plan goldens among its
# directories), clippy and rustdoc warnings as errors, and formatting.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release --workspace

# The whole suite runs twice: once pinned serial and once with 8
# intra-query workers, so every tier-1 test exercises the morsel
# fan-out and its in-order merge (DESIGN.md §7). Results, counters and
# oracle reports must be identical either way — the worker-count-
# independence tests assert that explicitly; running the full matrix
# under both settings catches anything they missed. The determinism
# gate (tests/counters.rs against tests/counters.golden) is part of the
# suite, so every exact counter is compared under both settings too.
echo "==> cargo test -q (BYPASS_THREADS=1, serial)"
BYPASS_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q (BYPASS_THREADS=8, parallel)"
BYPASS_THREADS=8 cargo test -q --workspace

# Two workers is what the benchmark host and a default user on it get:
# morsel sizes, and which loops pass the work gate with how many morsels
# per worker, differ from both settings above. The suites that compare
# executions with each other, and the counter golden, once more there.
echo "==> determinism suites (BYPASS_THREADS=2, the default width here)"
BYPASS_THREADS=2 cargo test -q --test perf_semantics --test governance --test counters
BYPASS_THREADS=2 cargo test -q -p bypass-exec

# The slt conformance corpus, standalone-runner flavor (the same files
# also run inside `cargo test` via tests/slt.rs). Each query record
# already crosses the full 7-strategy x threads{1,8} grid internally;
# the two invocations here exercise the runner's own file-level
# scheduling serial and at 8 workers, printing the per-file pass table
# both times (DESIGN.md §10).
echo "==> slt conformance corpus (serial file runner)"
cargo run -q --release -p bypass-slt --bin slt_runner -- --workers 1 tests/slt

echo "==> slt conformance corpus (8 file workers)"
cargo run -q --release -p bypass-slt --bin slt_runner -- --workers 8 tests/slt

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> one plan rewriter (grep gate)"
# Every logical rewrite is a rule under bypass_algebra::rewrite (DESIGN.md
# "Logical rewrites"): the pointer-keyed plan memo lives there (display.rs
# numbers shared nodes with one too, and prune.rs indexes the nodes its
# required-column analysis looked at before the walk — an analysis, not a
# second rewriter: its rebuild is a Rule under rewrite()), and the only
# caller rebuilding a node from children by hand is ablation.rs's
# deliberately un-memoized deep copy.
memos="$(grep -rl 'HashMap<\*const LogicalPlan' crates/*/src | sort | tr '\n' ' ')"
[ "$memos" = "crates/algebra/src/plan/display.rs crates/algebra/src/plan/prune.rs crates/algebra/src/plan/rewrite.rs " ] \
    || { echo "plan memo outside the rewriter: $memos"; exit 1; }
rebuilds="$(grep -rl 'with_children(' crates/*/src | grep -v '^crates/algebra/' | tr '\n' ' ')"
[ "$rebuilds" = "crates/unnest/src/ablation.rs " ] \
    || { echo "with_children( outside algebra: $rebuilds"; exit 1; }
# "Does this consumer stream its input" decides where the planner fuses
# and where column pruning may put a Π (DESIGN.md §2b, §7): one definition,
# LogicalPlan::streams.
streams="$(grep -rn 'fn streams(' crates/*/src | cut -d: -f1 | tr '\n' ' ')"
[ "$streams" = "crates/algebra/src/plan/node.rs " ] \
    || { echo "fn streams( defined in: $streams"; exit 1; }
# The number the next diet has to beat: lines above each file's test module.
for crate in algebra unnest types catalog exec metrics; do
    find "crates/$crate/src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ }
        END { printf "    crates/'"$crate"'/src: %d non-test lines\n", n }'
done

echo "==> one key reader (grep gate)"
# Γ, the hash build and the probe head hash and compare their input's keys
# in place, off its typed columns (TableKey, DESIGN.md §5c): TableKey has
# no `read` that writes a key into a value buffer, and neither Γ's fold
# (the sink's `fold_row`) nor the hash build carries such a buffer
# (`keybuf`).
keyreads="$(awk '
    FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
    /^impl.* TableKey[ <]/ { in_impl = 1 } in_impl && /^}/ { in_impl = 0 }
    /fn (fold_row|build_hash_table)[<(]/ { in_loop = 1 } in_loop && /^    }$/ { in_loop = 0 }
    counting && (/TableKey::read/ || (in_impl && /fn read[<(]/) || (in_loop && /keybuf/)) {
        print FILENAME ":" FNR ": " $0 }' crates/exec/src/*.rs)"
[ -z "$keyreads" ] || { echo "a table key read through a buffer:"; echo "$keyreads"; exit 1; }

echo "==> one decider for disjunct order (grep gate)"
# The planned order is the evaluation order (DESIGN.md §8): the strategy
# and unnest::rank decide it at plan time, and the executor runs a chain's
# terms as planned — no rank epochs, no order indirection, no
# value-fallibility analysis that would license moving a term.
deciders="$(find crates/exec/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
    counting && /EPOCH_ROWS|ranked_order|ChainOrder|movable|can_raise/ { print FILENAME ":" FNR ": " $0 }')"
[ -z "$deciders" ] || { echo "run-time disjunct reordering in the executor:"; echo "$deciders"; exit 1; }

echo "==> one column type (grep gate)"
# The column enum is bypass_types::Column and nothing else.
columns="$(grep -rlE 'enum Column( |\{)' crates/*/src | tr '\n' ' ')"
[ "$columns" = "crates/types/src/batch.rs " ] \
    || { echo "a second column enum: $columns"; exit 1; }

echo "==> one columnar view (grep gate)"
# Every loop over a materialized input reads it by column through one
# reader, TableColumns, and one function, row.rs::Source::columns, decides
# whose: a scan's own, or a transient set over any other relation
# (DESIGN.md §5c "Columns of a loop's input"). No second column set
# (`struct Batch`, the `from_rows_cols` transpose, a chunk's cells copied
# into value buffers — `ChunkValues` and its `struct Lane`), no node that
# answers "am I a base table?" (`table_columns(`), and no loop that takes
# optional columns (`Option<&TableColumns>`) to pick a row-at-a-time twin.
views="$(grep -rnE 'struct Batch\b|from_rows_cols|\bChunkValues\b|struct Lane\b' crates || true)"
views="$views$(grep -rn 'table_columns(' crates/*/src crates/*/tests || true)"
views="$views$(grep -rn 'Option<&TableColumns>' crates/exec/src || true)"
[ -z "$views" ] || { echo "a second columnar view:"; echo "$views"; exit 1; }

echo "==> chains compiled at plan time, contexts carry run state (grep gate)"
# A σ/σ± predicate is compiled where its node is built (DESIGN.md §8):
# PhysNode::new is compile_chain's one caller, and ExecContext (eval.rs)
# and the scheduler (morsel.rs) keep no chain cache, transpose cache or
# worker team to amortise a second one.
compilers="$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
    counting && /compile_chain\(/ && !/fn compile_chain\(/ { print FILENAME }' | tr '\n' ' ')"
[ "$compilers" = "crates/exec/src/node.rs " ] \
    || { echo "compile_chain( called outside PhysNode::new: $compilers"; exit 1; }
caches="$(grep -nE '^ *(pub(\(crate\))? +)?(chains|batches) *:|\b(struct|enum|type) +Team\b|fn run_team_morsels' \
    crates/exec/src/eval.rs crates/exec/src/morsel.rs || true)"
[ -z "$caches" ] || { echo "per-context cache or team in the executor:"; echo "$caches"; exit 1; }

echo "==> one pipeline (grep gate)"
# σ, Π and χ exist only as Stages of a pipeline (DESIGN.md §7): PhysKind has
# no Filter, Project or Map, and every row loop hands its rows to the one
# `emit`.
standalone="$(grep -rnE 'PhysKind::(Filter|Project|Map)\b' crates/*/src crates/*/tests || true)"
[ -z "$standalone" ] || { echo "a standalone σ/Π/χ operator:"; echo "$standalone"; exit 1; }
emits="$(grep -rn 'fn emit(' crates/*/src | wc -l)"
[ "$emits" -eq 1 ] || { echo "fn emit( defined $emits times"; exit 1; }

echo "==> one join loop (grep gate)"
# A join is a pipeline headed by its probe, and Γᵇ groups on the equality
# every plan builds it with (DESIGN.md §7): PhysKind has no Join and no θ
# grouping, one function opens probes — open_chain, which hands a head
# probe its left relation — and the logical Γᵇ carries no comparison.
forks="$(grep -rnE 'PhysKind::Join\b|BinaryGroupTheta' crates/*/src crates/*/tests || true)"
[ -z "$forks" ] || { echo "a second join loop or a θ grouping:"; echo "$forks"; exit 1; }
openers="$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    counting && /open_probe\(/ && !/fn open_probe/ { print fn }' | tr '\n' ' ')"
[ "$openers" = "open_chain " ] || { echo "open_probe( called from: $openers"; exit 1; }
variant="crates/algebra/src/plan/node.rs"
grep -q '^    BinaryGroup {' "$variant" || { echo "LogicalPlan::BinaryGroup not found in $variant"; exit 1; }
theta="$(awk '/^    BinaryGroup \{/ { inside = 1 } inside && /^    \},/ { inside = 0 } inside && /cmp/' "$variant")"
[ -z "$theta" ] || { echo "LogicalPlan::BinaryGroup carries a comparison:"; echo "$theta"; exit 1; }

echo "==> one row-loop operator (grep gate)"
# Every row loop is a pipeline (DESIGN.md §7): a bypass operator is one with
# a negative chain, ν heads one, Γ is one's sink, and Γᵇ is planned as ⟕
# over Γ. PhysKind keeps six variants, none of the four operators that ran
# their own loops comes back, nor does the per-row build loop they shared,
# and `probe` forms every nested-loop pair.
variants="$(awk '/^pub enum PhysKind \{/ { inside = 1; next } inside && /^\}/ { inside = 0 }
    inside && /^    [A-Z]/ { n++ } END { print n + 0 }' crates/exec/src/node.rs)"
[ "$variants" -eq 6 ] || { echo "PhysKind has $variants variants, not 6"; exit 1; }
loops="$(grep -rnE 'PhysKind::(BypassFilter|BypassNLJoin|BinaryGroup|Numbering)\b' \
    crates/*/src crates/*/tests || true)"
[ -z "$loops" ] || { echo "an operator with its own row loop:"; echo "$loops"; exit 1; }
builds="$(grep -rnE 'build_rows\(|fn binary_group\(' crates/exec/src || true)"
[ -z "$builds" ] || { echo "a per-row build loop outside the pipeline:"; echo "$builds"; exit 1; }
callers() { # $1: the call, $2: its definition; prints file:fn per call outside tests
    find crates/*/src -name '*.rs' -print0 | xargs -0 awk -v call="$1" -v def="$2" '
        FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
        match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        counting && $0 ~ call && $0 !~ def { print FILENAME ":" fn }'
}
pairs="$(callers '\\.with\\(build\\.seg\\(' 'fn with' | sort -u | tr '\n' ' ')"
[ "$pairs" = "crates/exec/src/eval.rs:probe " ] \
    || { echo "a join pair formed outside eval.rs:probe: $pairs"; exit 1; }

echo "==> one Γ (grep gate)"
# Γ is the sink of the pipeline that feeds it (DESIGN.md §7): the rows
# leaving a chain are folded as they leave, and Γ over a relation is a
# pipeline with an empty chain. No Γ operator with a loop of its own.
gammas="$(grep -rnE 'PhysKind::HashAggregate\b|fn hash_aggregate\b' crates || true)"
[ -z "$gammas" ] || { echo "a Γ with its own loop:"; echo "$gammas"; exit 1; }

echo "==> one namer (grep gate)"
# Column names are the physical planner's (DESIGN.md §7 *Names*): a ρ, or a
# Π that keeps every column in place, compiles to its input's node, and
# inside a chain to no stage. No operator and no stage exists to rename.
namers="$(grep -rnE 'PhysKind::Alias\b|Relabel' crates/*/src crates/*/tests || true)"
[ -z "$namers" ] || { echo "an operator or a stage that renames:"; echo "$namers"; exit 1; }

echo "==> one union (grep gate)"
# δ and ∪̇ are one operator, SQL's UNION / UNION ALL (DESIGN.md §7): one loop
# appends its inputs' rows and, for δ, keeps each row's first occurrence;
# the planner folds an unshared ∪̇ into the union above it. A root's names
# are attached where the caller's relation is built (`eval_plan`), so no
# second entry point hands out a shared result.
unions="$(grep -rnE 'PhysKind::(Distinct|UnionAll)\b|evaluate_shared' crates/*/src crates/*/tests || true)"
[ -z "$unions" ] || { echo "a second union operator or a shared-result entry point:"; echo "$unions"; exit 1; }

echo "==> one settle rule (grep gate)"
# The σ/σ± chunk loop settles a kernel lane without a 3VL fold and compacts
# its selection in place through one helper, settle_lanes; a run of settled
# rows reaches the governor as one counted tick_rows call from pass_settled
# (DESIGN.md §8). Only the row-by-row tail, chain_eval_row, folds with
# CompiledChain::combine. The hash loops over a loop's input pass their
# chunks' checkpoints the same way, and only they (DESIGN.md §5c, §5f): Γ's
# fold_columns, build_hash_table, and pass_unmatched — the run of probing rows
# probe_table found no partner for.
retains="$(grep -rn 'retain_compared' crates/exec/src || true)"
[ -z "$retains" ] || { echo "retain_compared is back:"; echo "$retains"; exit 1; }
folds="$(callers '\\.combine\\(' 'fn combine' | grep '^crates/exec/src/eval.rs:' | sort -u | tr '\n' ' ')"
[ "$folds" = "crates/exec/src/eval.rs:chain_eval_row " ] \
    || { echo ".combine( in eval.rs outside chain_eval_row: $folds"; exit 1; }
tickers="$(callers 'tick_rows\\(' 'fn tick_rows' | sort -u | tr '\n' ' ')"
[ "$tickers" = "crates/exec/src/eval.rs:build_hash_table crates/exec/src/eval.rs:pass_settled crates/exec/src/eval.rs:pass_unmatched crates/exec/src/group.rs:fold_columns " ] \
    || { echo "tick_rows( called from: $tickers"; exit 1; }

echo "==> one key hash (grep gate)"
# A loop input's keys are hashed a chunk at a time, a key column at a time,
# by TableKey::hash_chunk (DESIGN.md §5c): TableKey has no per-row reader
# (`fn at`), and no hash loop — Γ's fold_row and fold_columns, the hash build,
# the probe head (run_pass, probe_table, probe) — reads a table key per row
# through one (`.at(`) or hashes a table row's key by itself
# (`.key(i).hash()`).
keyhashes="$(awk '
    FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
    /^impl.* TableKey[ <]/ { in_impl = 1 } in_impl && /^}/ { in_impl = 0 }
    /fn (fold_row|fold_columns|build_hash_table|run_pass|probe_table|probe)[<(]/ { in_loop = 1 }
    in_loop && /^    }$/ { in_loop = 0 }
    counting && ((in_impl && /fn at[<(]/) || /TableKey::at\b/ || (in_loop && /\.at\(|\.key\([^)]*\)\.hash\(\)/)) {
        print FILENAME ":" FNR ": " $0 }' crates/exec/src/*.rs)"
[ -z "$keyhashes" ] || { echo "a table key read or hashed per row:"; echo "$keyhashes"; exit 1; }

echo "==> expressions only in stages (grep gate)"
# χ computes expressions and σ tests them; joins, Γ, Γᵇ and Sort only
# compare columns of their rows (DESIGN.md §5c): the planner computes any
# other key, argument or sort key in a χ stage ahead of the operator. No
# key reader that asks "column or expression?" (`KeyReader`), no
# borrow-or-evaluate helper (`eval_cow`), no expression in a Sort, and
# outside the interpreter (interp.rs) the evaluators (`eval_expr`,
# `eval_truth`, `truth_fast`) are called only where a stage or a chain
# term runs: eval.rs's chain_slice (the kernel prefix), chain_eval_row
# (the rest of a σ's chain), probe (a join's predicate over a pair) and
# emit (σ, χ, Π).
readers="$(grep -rnE '\bKeyReader\b|\beval_cow\b' crates/*/src || true)"
[ -z "$readers" ] || { echo "a key reader that evaluates expressions:"; echo "$readers"; exit 1; }
evaluators="$(find crates/exec/src -name '*.rs' ! -name interp.rs -print0 | xargs -0 awk '
    FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    counting && !/^ *\/\// && /(^|[^a-z_])(eval_expr|eval_truth|truth_fast)([^a-z_]|$)/ {
        print FILENAME ":" fn }' | sort -u | tr '\n' ' ')"
[ "$evaluators" = "crates/exec/src/eval.rs:chain_eval_row crates/exec/src/eval.rs:chain_slice crates/exec/src/eval.rs:emit crates/exec/src/eval.rs:probe " ] \
    || { echo "an expression evaluated outside a stage: $evaluators"; exit 1; }
sorts="$(awk '/^    Sort \{/ { inside = 1 } inside && /^    \},/ { inside = 0 }
    inside && /PhysExpr/ { print FILENAME ":" FNR ": " $0 }' crates/exec/src/node.rs)"
grep -q '^    Sort {' crates/exec/src/node.rs || { echo "PhysKind::Sort not found in node.rs"; exit 1; }
[ -z "$sorts" ] || { echo "a Sort that holds an expression:"; echo "$sorts"; exit 1; }

echo "==> pairs read cells by position (grep gate)"
# A join pair is the probing row's segment ◦ the build row's, and a
# segment that is row i of a scan is a position in the table's columns
# (DESIGN.md §5c "Segments"): `probe` pairs a build row through
# `Source::seg` (checked above), never through its tuple's values
# (`.values()` in `probe`), and every reader of a row's cells — keep_picked,
# the interpreter's operands, KeyRef, AggStates::fold — goes through the
# one closure accessor `Columns::with_cell`: row.rs defines no accessor
# that lends a cell out by reference (`Option<&Value>`, `-> &Value`).
tuples="$(awk '
    /^    fn probe[<(]/ { inside = 1 } inside && /^    }$/ { inside = 0 }
    inside && /\.values\(\)/ { print FILENAME ":" FNR ": " $0 }' crates/exec/src/eval.rs)"
[ -z "$tuples" ] || { echo "probe reads a build row through its tuple:"; echo "$tuples"; exit 1; }
borrowed="$(awk '
    FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
    counting && /Option<&('"'"'[a-z]+ )?Value>|-> &('"'"'[a-z]+ )?Value\b/ {
        print FILENAME ":" FNR ": " $0 }' crates/exec/src/row.rs)"
[ -z "$borrowed" ] || { echo "a cell accessor besides Columns::with_cell:"; echo "$borrowed"; exit 1; }

echo "==> one replay (grep gate)"
# A morsel worker's governor only counts (DESIGN.md §5f, §7): the master
# applies one tally per morsel and re-runs the one morsel that stops the
# run, so there is no event log to replay; and a σ± charges a row where
# it leaves, as every route does, not ahead of its predicate.
replays="$(find crates/exec/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 }
    counting && /GovEvent|GovLog|precharge/ { print FILENAME ":" FNR ": " $0 }')"
[ -z "$replays" ] || { echo "a governor event log or a σ± precharge:"; echo "$replays"; exit 1; }

echo "==> one resource governor (grep gate)"
# Every stop is the governor's (DESIGN.md §5f, §7): its byte budget, on by
# default, is the one size guard, charged where a loop materializes, so a
# run stops at the same charge at every worker count. No row cap beside it
# (`max_intermediate_rows`, `check_size(`) and no error kind for one
# (`ResourceKind::Rows`).
guards="$(grep -rnE 'max_intermediate_rows|\bcheck_size\(|ResourceKind::Rows\b' crates/*/src crates/*/tests || true)"
[ -z "$guards" ] || { echo "a size guard beside the governor's budget:"; echo "$guards"; exit 1; }

echo "==> one metrics store (grep gate)"
# The registry keeps one slot per series under its one mutex (DESIGN.md §9):
# no per-thread shard to fold. The service registers its twelve counters in
# QueryService::new, so bump! only adds to a series it already holds.
shards="$(grep -rnE 'thread_local!|\bShard\b' crates/metrics/src || true)"
[ -z "$shards" ] || { echo "a per-thread shard in the metrics registry:"; echo "$shards"; exit 1; }
service="crates/service/src/service.rs"
grep -q '^macro_rules! bump {' "$service" || { echo "macro bump! not found in $service"; exit 1; }
registers="$(awk '/^macro_rules! bump \{/ { inside = 1 } inside && /\.counter\(/ { print FNR ": " $0 }
    inside && /^\}/ { inside = 0 }' "$service")"
[ -z "$registers" ] || { echo "bump! registers a series:"; echo "$registers"; exit 1; }

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Intra-doc links (`[`Self::run_chain`]`, `[`bypass_types::Column::with_slot`]`, …)
# break silently when documented code moves between modules; rustdoc
# finds them, and public docs linking to private items, as warnings.
echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> benchmark smoke (benchmark/run.sh --quick)"
# The performance record's own harness at a twentieth of its run length:
# all five workloads end to end, every statement's bag hash checked
# against benchmark/expected.tsv (nonzero exit on any failed or wrong
# statement). Timings are printed, not gated — that is the driver's job.
benchmark/run.sh --quick > /dev/null

echo "==> widened differential oracle (pinned seed, full strategy matrix)"
# 2000 grammar-generated queries (multi-level nesting, derived inner
# tables, ORDER BY/LIMIT) x 7 strategies with coverage-guided
# scheduling, each also run parallel-vs-serial, at two chunk lengths,
# fused-vs-unfused and pruned-vs-unpruned. Prints the per-fingerprint
# coverage table and fails on any mismatch or any under-covered Eqv. 1-5 /
# structural shape. The seed is pinned so CI failures replay exactly:
#   BYPASS_CHECK_SEED=<reported case seed> BYPASS_CHECK_CASES=1 \
#       cargo test --test differential
BYPASS_CHECK_SEED=0xB1A5 BYPASS_CHECK_CASES=2000 \
    cargo run -q --release -p bypass-check --bin widened_oracle

echo "==> fault-injection oracle (pinned seed, error-path trifecta)"
# ~950 deterministic faults (memory-budget trip, deadline trip,
# cancellation) injected at exact governor checkpoints of 16
# grammar-generated queries x the full strategy matrix. Every injection
# must surface as the matching typed error (never a panic), leave the
# tracing span stack balanced, and a clean re-run on the same Database
# must reproduce canonical results. Replay a reported failure with:
#   BYPASS_CHECK_FAULT_SEED=<reported seed> BYPASS_CHECK_FAULT_QUERIES=1 \
#       cargo run -q --release -p bypass-check --bin fault_oracle
BYPASS_CHECK_FAULT_SEED=0xFA17 BYPASS_CHECK_FAULT_QUERIES=16 \
    cargo run -q --release -p bypass-check --bin fault_oracle

echo "==> service chaos oracle (pinned seed, 8 clients then 1 client)"
# Deterministic chaos workload over the multi-session query service:
# seeded clients mix query classes (canonical, unnested Q1, TPC-H Q2d,
# error-raising) with injected cancellation/memory/deadline faults at
# exact governor checkpoints plus forced admission saturation and
# oversized statements — >= 500 events per run. Every event must
# surface typed (never panic) with a balanced span stack, and after a
# drain/resume every class must re-run bit-identical to its serial
# pre-chaos baseline. Replay a reported failure with:
#   BYPASS_CHECK_SERVICE_SEED=<reported seed> \
#       cargo run -q --release -p bypass-check --bin service_oracle
BYPASS_CHECK_SERVICE_SEED=0x5E41CE BYPASS_CHECK_SERVICE_CLIENTS=8 \
    cargo run -q --release -p bypass-check --bin service_oracle
BYPASS_CHECK_SERVICE_SEED=0x5E41CE BYPASS_CHECK_SERVICE_CLIENTS=1 \
    BYPASS_CHECK_SERVICE_EVENTS=520 \
    cargo run -q --release -p bypass-check --bin service_oracle

echo "==> observability smoke (EXPLAIN ANALYZE + SHOW METRICS through the shell)"
# One bypassdb session over the paper's demo instance: the evaluation
# query under EXPLAIN ANALYZE, then the registry it fed. (Chrome-trace
# JSON is validated by tests/observability.rs, the Prometheus exposition
# by tests/metrics.rs.)
shell_out="$(printf '%s\n' \
    '\demo 0.01' \
    'EXPLAIN ANALYZE SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500;' \
    'SHOW METRICS;' \
    | cargo run -q --release --bin bypassdb)"
case "$shell_out" in
  *"EXPLAIN ANALYZE (unnested)"*"-- fingerprint: "*"-- bypass: 1 node(s)"*) ;;
  *) echo "EXPLAIN ANALYZE smoke failed:"; echo "$shell_out"; exit 1 ;;
esac
for family in bypass_queries_total bypass_phase_nanos bypass_query_latency_nanos \
    bypass_rows_total bypass_disjunct_evals_total bypass_peak_memory_bytes \
    bypass_unnest_outcomes_total bypass_query_execs_total; do
    case "$shell_out" in
      *"# TYPE $family "*) ;;
      *) echo "metrics smoke: family $family missing from SHOW METRICS"; exit 1 ;;
    esac
done

echo "verify: OK"
