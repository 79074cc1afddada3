use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bypass_catalog::TableColumns;
use bypass_types::{
    compare_tuples, par, tuple_bytes, CancelToken, Column, Error, FxHashMap, FxHashSet,
    InjectedFault, Relation, Result, Truth, Tuple, Value, BATCH_ROWS, SHARED_ROW_BYTES,
    VALUE_BYTES,
};

use crate::expr::PhysExpr;
use crate::govern::Governor;
use crate::group::Fold;
use crate::hash::{out_of_range, ChunkHashes, CorrMemo, JoinTable, Key, KeyRef, TableKey};
use crate::interp::{cmp_truth, ord_lookup};
use crate::node::{Chain, Group, JoinOn, JoinSpec, PhysKind, PhysNode, Stage};
use crate::row::{Columns, Row, RowView, Seg, Source};
use crate::vector::{chain_bindable, ChainTerm, CompiledChain, SliceLoop};

/// Execution options — these implement the evaluation-strategy knobs the
/// benchmark harness uses to emulate the commercial systems of the
/// paper's study (see DESIGN.md §1, row 8).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Materialize uncorrelated (type A) subqueries once per query.
    /// The paper (Section 3): "it suffices to materialize the computed
    /// result".
    pub memo_uncorrelated: bool,
    /// Cache correlated subquery results keyed by the outer tuple's
    /// correlation values ("magic" memoization; helps only when
    /// correlation values repeat).
    pub memo_correlated: bool,
    /// Abort evaluation after this long (the paper aborted runs at six
    /// hours and reports `n/a`).
    pub timeout: Option<Duration>,
    /// Byte-accurate memory budget: the governor charges every
    /// materialization point (output rows, a sort's row handles, join
    /// key arenas, group arenas, DISTINCT accumulators, memo caches)
    /// against this cap using the deterministic byte model of
    /// `bypass_types::govern`. Exceeding it returns
    /// [`Error::ResourceExhausted`] with `resource = Memory`, at the
    /// same charge at every worker count. The default is
    /// [`DEFAULT_MAX_MEMORY_BYTES`], the one guard against a runaway
    /// pair loop (nested-loop and bypass joins can produce |L|·|R|
    /// tuples); `None` disables the budget (accounting still runs, so
    /// peak memory is always reported).
    pub max_memory_bytes: Option<u64>,
    /// Cooperative cancellation: when set, every governor checkpoint
    /// polls the token and returns [`Error::Cancelled`] once it fires.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection (testing only): fail with the
    /// given kind exactly at the given governor checkpoint, regardless
    /// of real budgets. See `bypass_types::InjectedFault`.
    pub fault: Option<InjectedFault>,
    /// Intra-query worker count for morsel-driven parallelism
    /// (`BYPASS_THREADS`; 1 disables it). An operator loop whose
    /// estimated work passes the gate below runs its morsels
    /// speculatively on this many threads; their governor tallies are
    /// merged in morsel order and a morsel that stops the run is re-run
    /// on the master, so every counter, budget trip and injected fault
    /// is worker-count-independent (DESIGN.md §7).
    pub threads: usize,
    /// The fork gate, in work units (DESIGN.md §7): a loop fans out
    /// only if `rows × row weight` exceeds this — one unit is one value
    /// of an input row, a nested-loop pair or a row of a nested plan
    /// re-evaluated per outer row — and a morsel holds at most this
    /// much work. Tests shrink it (`2`) to force tiny inputs onto the
    /// parallel path.
    pub morsel_rows: usize,
    /// Chunk length of the σ/σ± loops: how many rows the kernel prefix
    /// of a predicate chain covers, and the governor passes, at a time
    /// (clamped to ≥ 1). Results, errors, counters and byte accounting
    /// are identical at every length (DESIGN.md §8); tests shrink it so
    /// tiny inputs span several chunks.
    pub batch_rows: usize,
}

/// Default fork gate in work units (see [`ExecOptions::morsel_rows`]):
/// the measured break-even of a scoped-thread fork on a 2-vCPU host,
/// about a millisecond of loop. Below it sit the 10 000-row σ±/Π/probe
/// loops over the 4-column RST tables (the SF 1 bypass plans lost
/// 5–15 % forking them); above it the 250 000-pair bypass joins of
/// linear Q4 at SF 0.05, a canonical σ re-evaluating a 2 000-row
/// subquery per row (2 004 units a row) and TPC-H's 10 000-row loops
/// over 9- to 16-column rows, which gain (EXPERIMENTS.md, PR 19).
pub const MORSEL_ROWS: usize = 65_536;

/// Default memory budget in bytes (see [`ExecOptions::max_memory_bytes`]):
/// 4 GiB, about 67 M two-column rows at the byte model's 64 bytes each.
pub const DEFAULT_MAX_MEMORY_BYTES: u64 = 4 << 30;

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            memo_uncorrelated: true,
            memo_correlated: false,
            timeout: None,
            max_memory_bytes: Some(DEFAULT_MAX_MEMORY_BYTES),
            cancel: None,
            fault: None,
            threads: par::thread_count(),
            morsel_rows: MORSEL_ROWS,
            batch_rows: BATCH_ROWS,
        }
    }
}

/// Evaluate a physical plan with default options.
pub fn evaluate(root: &Arc<PhysNode>) -> Result<Relation> {
    evaluate_with(root, ExecOptions::default())
}

/// Evaluate a physical plan with explicit options.
pub fn evaluate_with(root: &Arc<PhysNode>, options: ExecOptions) -> Result<Relation> {
    ExecContext::new(options).eval_plan(root)
}

/// Mutable evaluation state: the correlation binding stack, the subquery
/// caches and the governor. One context lives for the duration of one
/// top-level query. Run state only — whatever is a function of the plan
/// alone (a σ's compiled predicate chain) lives on the [`PhysNode`].
pub struct ExecContext {
    pub(crate) options: ExecOptions,
    /// Checkpoints, byte budget, cancellation and deadline.
    pub(crate) gov: Governor,
    /// Per-node runtime counters, keyed by node pointer; `None` unless
    /// metric collection was requested.
    pub(crate) metrics: Option<HashMap<usize, NodeMetrics>>,
    /// Inclusive-nanos accumulators for the metrics stack: each frame
    /// sums the time spent in *direct* child operators, so exclusive
    /// (self) time is `elapsed - frame`.
    pub(crate) child_nanos: Vec<u128>,
    /// Outer tuple bindings, outermost first; `PhysExpr::Outer { depth }`
    /// indexes from the back.
    pub(crate) outer: Vec<Tuple>,
    /// Cache for uncorrelated subquery plans (pointer-keyed).
    pub(crate) uncorr: FxHashMap<usize, Arc<Relation>>,
    /// Cache for correlated subquery plans, found by a *precomputed*
    /// FxHash of `(plan pointer, correlation values)`. Entries store the
    /// correlation key as a shared-row [`Tuple`]; memo hits compare
    /// values in place and allocate nothing.
    pub(crate) corr: CorrMemo,
    /// Context-wide counters (memo hit rates); always maintained —
    /// they increment once per subquery invocation, which is noise
    /// next to actually evaluating the nested plan.
    pub(crate) counters: ExecCounters,
    /// Scratch the current operator arm deposits its own counters in
    /// (hash-table build sizes, collision re-verifies, per-disjunct and
    /// per-stage rows) for the metrics wrapper to fold into the node's
    /// entry. Only written when metrics are enabled.
    pub(crate) pending: NodeMetrics,
    /// Per-node cache of the scheduler's verdict, keyed by node
    /// pointer: what one input row of the node weighs in work units,
    /// or `None` if its expressions may not run on a worker at all
    /// (`morsel.rs`).
    pub(crate) row_weights: FxHashMap<usize, Option<u64>>,
}

/// Query-wide execution counters, independent of any one operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Uncorrelated (type A) subquery memo hits / misses.
    pub memo_uncorr_hits: u64,
    pub memo_uncorr_misses: u64,
    /// Correlated subquery memo hits / misses. Probes happen only
    /// when `memo_correlated` is on; with the memo off every
    /// correlated invocation re-evaluates and neither counter moves.
    pub memo_corr_hits: u64,
    pub memo_corr_misses: u64,
    /// High-water mark of governor-charged bytes (deterministic byte
    /// model — identical on every run of the same plan over the same
    /// data, so it is pinned in `tests/counters.golden`).
    pub peak_memory_bytes: u64,
    /// Total governor checkpoints passed (per-row ticks plus
    /// materialization charges). The fault oracle samples injection
    /// points from `1..=checkpoints`.
    pub checkpoints: u64,
    /// Always-on totals of the per-disjunct counters, summed over every
    /// chained (≥ 2 terms) σ/σ± in the query: predicate evaluations
    /// performed …
    pub disjunct_evals: u64,
    /// … and disjuncts decided (TRUE under OR / FALSE under AND).
    /// Semantic counts — batch-size and worker-count independent —
    /// feeding the metrics registry's selectivity counters.
    pub disjunct_hits: u64,
}

impl ExecCounters {
    /// Memo hit rate across both caches, if any probe happened.
    pub fn memo_hit_rate(&self) -> Option<f64> {
        let hits = self.memo_uncorr_hits + self.memo_corr_hits;
        let total = hits + self.memo_uncorr_misses + self.memo_corr_misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

/// Rows one fused stage received and passed on. Semantic counts —
/// batch size and worker count independent — and all EXPLAIN ANALYZE
/// can say about a stage: its time is inside its host's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageMetrics {
    pub rows_in: u64,
    pub rows_out: u64,
}

/// Elementwise commutative fold of per-stage counters.
fn merge_stages(into: &mut Vec<StageMetrics>, from: &[StageMetrics]) {
    if into.len() < from.len() {
        into.resize(from.len(), StageMetrics::default());
    }
    for (a, b) in into.iter_mut().zip(from) {
        a.rows_in += b.rows_in;
        a.rows_out += b.rows_out;
    }
}

/// Per-disjunct counters of a chained filter predicate: how many rows
/// reached the disjunct (were evaluated against it) and how many it
/// decided (TRUE under OR, FALSE under AND). Semantic counts — batch
/// size and worker count independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisjunctMetrics {
    pub evals: u64,
    pub hits: u64,
}

/// Elementwise commutative fold of per-disjunct counters.
fn merge_disjuncts(into: &mut Vec<DisjunctMetrics>, from: &[DisjunctMetrics]) {
    if into.len() < from.len() {
        into.resize(from.len(), DisjunctMetrics::default());
    }
    for (a, b) in into.iter_mut().zip(from) {
        a.evals += b.evals;
        a.hits += b.hits;
    }
}

/// Per-operator runtime counters collected when metrics are enabled
/// (EXPLAIN ANALYZE).
#[derive(Debug, Clone, Default)]
pub struct NodeMetrics {
    /// How many times the operator ran (> 1 inside correlated subplans).
    pub calls: u64,
    /// Total rows produced across all calls.
    pub rows: u64,
    /// Total inclusive wall time (children included).
    pub nanos: u128,
    /// Total exclusive wall time (this operator only, children
    /// subtracted) — the per-node cost an EXPLAIN ANALYZE report
    /// attributes to the operator itself.
    pub self_nanos: u128,
    /// Bypass operators only: rows routed to the positive stream
    /// (tuples that satisfied the cheap disjunct).
    pub pos_rows: u64,
    /// Bypass operators only: rows routed to the negative stream —
    /// the paper's bypass argument holds exactly when this stays
    /// small relative to `pos_rows`.
    pub neg_rows: u64,
    /// Hash joins only: entries inserted into the build-side table.
    pub build_rows: u64,
    /// Hash joins only: probe candidates whose full key comparison
    /// failed after a hash-tag match (collision re-verifies).
    pub reverify: u64,
    /// Hash joins only: rows that probed the table. With `self_nanos`
    /// this is the operator's ns/row.
    pub input_rows: u64,
    /// Γ only (a pipeline that ends in one): rows folded into its groups.
    pub group_rows: u64,
    /// Γ only: groups produced.
    pub groups: u64,
    /// Chained σ/σ± only (predicates with ≥ 2 disjuncts/conjuncts):
    /// per-disjunct reach/decide counters in plan order, which is the
    /// evaluation order — `hits / evals` is the observed decide
    /// selectivity. Empty for unchained operators.
    pub disjuncts: Vec<DisjunctMetrics>,
    /// Pipeline hosts only: rows in/out per stage, in chain order (the
    /// head is entry 0; a bypass operator lists its negative chain after
    /// its positive one).
    pub stages: Vec<StageMetrics>,
}

impl NodeMetrics {
    /// Inclusive wall time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Exclusive (self) wall time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_nanos as f64 / 1e6
    }

    /// Fraction of the split routed to the negative stream, if this
    /// node produced a dual stream at all.
    pub fn split_ratio(&self) -> Option<f64> {
        let total = self.pos_rows + self.neg_rows;
        (total > 0).then(|| self.neg_rows as f64 / total as f64)
    }

    /// Fold in further counts for the same node — a morsel worker's
    /// entry, or what one call of the operator's arm deposited in
    /// [`ExecContext::pending`] (commutative sums).
    pub(crate) fn merge(&mut self, from: &NodeMetrics) {
        self.calls += from.calls;
        self.rows += from.rows;
        self.nanos += from.nanos;
        self.self_nanos += from.self_nanos;
        self.pos_rows += from.pos_rows;
        self.neg_rows += from.neg_rows;
        self.build_rows += from.build_rows;
        self.reverify += from.reverify;
        self.input_rows += from.input_rows;
        self.group_rows += from.group_rows;
        self.groups += from.groups;
        merge_disjuncts(&mut self.disjuncts, &from.disjuncts);
        merge_stages(&mut self.stages, &from.stages);
    }
}

/// Amortized per-entry overhead of the join hash table beyond the key
/// values themselves: row id + group id + index-slot share.
const JOIN_ENTRY_BYTES: u64 = 16;

/// Per-plan-evaluation memo of what has more than one consumer — the
/// streams of a bypass operator its taps have yet to read (positive
/// first), and the relation of a node the planner marked
/// [`PhysNode::shared`] — keyed by node address. Fresh for the root and
/// for every subquery invocation, because results depend on the current
/// outer bindings.
#[derive(Default)]
struct Local {
    duals: FxHashMap<usize, [Option<Arc<Relation>>; 2]>,
    shared: FxHashMap<usize, Arc<Relation>>,
}

/// A [`JoinSpec`] ready to probe: build side evaluated and, for a hash
/// join, hashed. Immutable during the probe loop, so morsel workers
/// share it.
struct Probe<'p> {
    /// The build rows, a scan's read by position.
    build: Source<'p>,
    on: ProbeOn<'p>,
    /// Outer joins: the right side an unmatched left row is padded with.
    pad: Option<Vec<Value>>,
}

enum ProbeOn<'p> {
    Loop(Option<&'p PhysExpr>),
    Hash {
        probe_keys: &'p [usize],
        table: JoinTable,
        residual: Option<&'p PhysExpr>,
        /// Governor bytes charged while building the table (per-entry
        /// overhead + key values); released when the pipeline closes.
        charged: u64,
    },
}

/// One [`Stage`] of a chain, ready to run: a fused join's build side
/// is open.
struct LiveStage<'p> {
    stage: &'p Stage,
    probe: Option<Probe<'p>>,
}

/// What one morsel of a pipeline produced (one per stream of a bypass
/// operator): the rows that left the last stage — the only ones
/// materialized — and how many reached each stage on the way.
struct Sink<'p> {
    rows: Vec<Tuple>,
    /// Rows that entered stage `k` of the chain.
    reached: Vec<u64>,
    reverify: u64,
    /// Reusable value buffers, one per pipeline level (`0`: the source,
    /// `k + 1`: stage `k`): a Π's output row, the columns a `Pick` hands Γ.
    scratch: Vec<Vec<Value>>,
    /// Where the rows leaving the last stage go.
    exit: Exit<'p>,
}

/// Where the rows leaving a chain go (DESIGN.md §7).
enum Exit<'p> {
    /// Into `rows`, materialized and charged.
    Keep,
    /// Into the pipeline's Γ, folded as they leave.
    Fold(Box<Fold<'p>>),
    /// A morsel of a loop that forks, before the pipeline's Γ: held
    /// uncharged, for Γ to fold in morsel order once the loop is merged.
    Buffer(Vec<Tuple>),
}

impl<'p> Exit<'p> {
    /// The exit of a morsel handed `fold` — the serial loop's Γ — or,
    /// in a pipeline with a Γ (`grouped`), of a forked one.
    fn of(fold: Option<Box<Fold<'p>>>, grouped: bool) -> Exit<'p> {
        match (fold, grouped) {
            (Some(fold), _) => Exit::Fold(fold),
            (None, true) => Exit::Buffer(Vec::new()),
            (None, false) => Exit::Keep,
        }
    }

    /// The rows it took that are not in `rows`.
    fn taken(&self) -> u64 {
        match self {
            Exit::Keep => 0,
            Exit::Fold(fold) => fold.rows(),
            Exit::Buffer(rows) => rows.len() as u64,
        }
    }
}

/// A pipeline's sinks: the positive stream's (a join's or a relation
/// pipeline's only one), then the negative stream's.
type Streams<'p> = [Sink<'p>; 2];

/// Where a σ head hands the rows it routes: its TRUE rows into `pos`,
/// the head's own chain, at the stage after the head, and — a σ± —
/// every other row into `neg` at its first stage.
struct Routes<'s, 'p> {
    pos: &'s [LiveStage<'p>],
    neg: Option<&'s [LiveStage<'p>]>,
}

impl<'s, 'p> Routes<'s, 'p> {
    /// The stages a row decided as `truth` enters, from which one, and
    /// the sink it ends in; `None` for a row σ drops.
    fn of(&self, truth: Truth) -> Option<(&'s [LiveStage<'p>], usize, usize)> {
        match truth.is_true() {
            true => Some((self.pos, 1, 0)),
            false => self.neg.map(|neg| (neg, 0, 1)),
        }
    }

    /// Does a row decided as `truth` meet a stage?
    fn works(&self, truth: Truth) -> bool {
        self.of(truth)
            .is_some_and(|(stages, from, _)| stages.len() > from)
    }
}

impl<'p> Sink<'p> {
    fn new(stages: usize) -> Sink<'p> {
        Sink {
            rows: Vec::new(),
            reached: vec![0; stages],
            reverify: 0,
            scratch: vec![Vec::new(); stages + 1],
            exit: Exit::Keep,
        }
    }

    /// Fold per-morsel sinks in morsel (= input) order; the single-part
    /// case is the serial path and moves the buffer.
    fn merge(mut parts: Vec<Sink<'p>>) -> Sink<'p> {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let mut all = Sink::new(parts.first().map_or(0, |p| p.reached.len()));
        all.rows.reserve(parts.iter().map(|p| p.rows.len()).sum());
        for p in parts {
            all.rows.extend(p.rows);
            if let Exit::Buffer(rows) = p.exit {
                match &mut all.exit {
                    Exit::Buffer(all) => all.extend(rows),
                    exit => *exit = Exit::Buffer(rows),
                }
            }
            all.reverify += p.reverify;
            for (a, b) in all.reached.iter_mut().zip(&p.reached) {
                *a += b;
            }
        }
        all
    }

    /// A stage's output is the next stage's input; the last stage's is
    /// what left the chain.
    fn stage_metrics(&self) -> Vec<StageMetrics> {
        let outs = self.reached.iter().skip(1).copied();
        let left = self.rows.len() as u64 + self.exit.taken();
        self.reached
            .iter()
            .zip(outs.chain(std::iter::once(left)))
            .map(|(&rows_in, rows_out)| StageMetrics { rows_in, rows_out })
            .collect()
    }
}

impl ExecContext {
    pub fn new(mut options: ExecOptions) -> ExecContext {
        options.batch_rows = options.batch_rows.max(1);
        ExecContext {
            gov: Governor::new(&options),
            options,
            metrics: None,
            child_nanos: Vec::new(),
            outer: Vec::new(),
            uncorr: FxHashMap::default(),
            corr: CorrMemo::default(),
            counters: ExecCounters::default(),
            pending: NodeMetrics::default(),
            row_weights: FxHashMap::default(),
        }
    }

    /// Enable per-operator metric collection (EXPLAIN ANALYZE).
    pub fn with_metrics(mut self) -> ExecContext {
        self.metrics = Some(HashMap::new());
        self
    }

    /// The collected metrics, keyed by `Arc::as_ptr(node) as usize`.
    pub fn take_metrics(&mut self) -> HashMap<usize, NodeMetrics> {
        self.metrics.take().unwrap_or_default()
    }

    /// Query-wide counters (memo hit/miss totals plus the governor's
    /// peak-memory / checkpoint totals).
    pub fn counters(&self) -> ExecCounters {
        let mut c = self.counters;
        c.peak_memory_bytes = self.gov.peak_bytes();
        c.checkpoints = self.gov.checkpoints();
        c
    }

    // -----------------------------------------------------------------
    // Predicate chains (DESIGN.md §8).
    // -----------------------------------------------------------------

    /// Drive the σ head of a pipeline — a σ±'s among them — (`routes`) of
    /// `node` over `input` (`columns`: its columns): one morsel loop over
    /// the whole input, its terms in planned order, closed by
    /// [`Self::finish`]. A serial loop takes the pipeline's Γ (`fold`)
    /// and folds what it keeps. The kernel columns are built here, on the
    /// master, before the loop forks.
    ///
    /// Kernel evaluation has no error path, so a call under a
    /// binding stack that does not resolve all of the chain's (the
    /// same node can run under different stacks inside nested subplans)
    /// runs no kernel: the first row to reach the unbound reference
    /// raises `eval_truth`'s error.
    fn run_chain<'f>(
        &mut self,
        node: &Arc<PhysNode>,
        columns: &TableColumns,
        input: &Source<'_>,
        routes: &Routes<'_, '_>,
        fold: &mut Option<Box<Fold<'f>>>,
    ) -> Result<Streams<'f>> {
        let chain = node.chain().expect("σ heads carry their chain");
        let rows = input.rows();
        let kernels = match chain_bindable(chain, &self.outer) {
            true => {
                chain.cols.iter().for_each(|&c| _ = columns.get(c));
                chain.kernels()
            }
            false => &[],
        };
        let grouped = node.group().is_some();
        let parts = self.run_morsels(node, rows.len(), 1, fold, |ctx, range, fold| {
            let rows = &rows[range.clone()];
            let exit = Exit::of(fold, grouped);
            let from = (input, columns, kernels, range.start);
            // Two instances: the one no stage follows keeps the σ loop's
            // own shape, which measured faster than a shared one.
            match routes.works(Truth::True) || routes.works(Truth::False) {
                false => ctx.chain_slice::<true>(chain, rows, from, routes, exit),
                true => ctx.chain_slice::<false>(chain, rows, from, routes, exit),
            }
        })?;
        let mut disjuncts = Vec::new();
        let sinks = parts
            .into_iter()
            .map(|(sinks, counts)| {
                merge_disjuncts(&mut disjuncts, &counts);
                sinks
            })
            .collect();
        // Surface per-disjunct selectivities in EXPLAIN ANALYZE and in
        // the always-on counter totals; a single-term chain is not a
        // disjunction and keeps its metrics block unchanged. Folded on
        // the master thread only (workers return their counts as morsel
        // payloads), preserving the workers-never-touch-counters
        // invariant.
        if chain.terms.len() >= 2 {
            self.counters.disjunct_evals += disjuncts.iter().map(|d| d.evals).sum::<u64>();
            self.counters.disjunct_hits += disjuncts.iter().map(|d| d.hits).sum::<u64>();
            if self.metrics.is_some() {
                merge_disjuncts(&mut self.pending.disjuncts, &disjuncts);
            }
        }
        Ok(self.finish(sinks, std::iter::empty()))
    }

    /// Evaluate one morsel's rows through the chain, a chunk of
    /// `batch_rows` at a time, and count per term the rows it reached
    /// and decided. Per chunk the chain's *kernel prefix* (its leading
    /// kernel terms) runs column-wise over a shrinking selection
    /// vector — kernels are infallible, effect-free and
    /// governor-invisible — and the rows are then finished in input
    /// order: a row the prefix left open evaluates the remaining terms
    /// between its own checkpoints, and every run of rows it settled
    /// is routed (see [`Self::pass_settled`]). `columns` are those of
    /// the *full* input, `kernels` the prefix that may run (none, see
    /// [`Self::run_chain`]) and `base` the index of `rows[0]` within the
    /// input. Selection vectors carry lane indices within the chunk. Out
    /// of line, as the σ loop it replaced was: inlined into the operator
    /// match that loop ran ~6 % slower per row (benchmark workload
    /// `rst_canonical`).
    #[inline(never)]
    fn chain_slice<'f, const DIRECT: bool>(
        &mut self,
        chain: &CompiledChain,
        rows: &[Tuple],
        (input, columns, kernels, base): (&Source<'_>, &TableColumns, &[ChainTerm], usize),
        routes: &Routes<'_, '_>,
        exit: Exit<'f>,
    ) -> Result<(Streams<'f>, Vec<DisjunctMetrics>)> {
        let mut counts = vec![DisjunctMetrics::default(); chain.terms.len()];
        let mut out = [routes.pos, routes.neg.unwrap_or_default()].map(|s| Sink::new(s.len()));
        out[0].exit = exit;
        let works = [routes.works(Truth::False), routes.works(Truth::True)];
        let decide = chain.decide();
        // Per-chunk scratch, reused across chunks (allocation-free
        // steady state). `acc[r]` is row `r`'s truth so far (see
        // [`settle_lanes`]): `decide` marks a decided row. `sel` holds
        // the chunk's undecided lanes and is compacted in place per
        // kernel term.
        let mut acc: Vec<Truth> = Vec::new();
        let mut sel: Vec<u32> = Vec::new();
        let mut lo = base;
        for chunk in rows.chunks(self.options.batch_rows) {
            let n = chunk.len();
            acc.clear();
            acc.resize(n, chain.identity());
            sel.clear();
            sel.extend(0..n as u32);
            for (term, count) in kernels.iter().zip(&mut counts) {
                if sel.is_empty() {
                    break;
                }
                let before = sel.len();
                let (sel, acc) = (&mut sel, &mut acc);
                let column = |c: usize| &**columns.get(c).expect("kernel columns are in range");
                let chunk = lo..lo + n;
                match term.slice_loop(self) {
                    // Hot shapes: one tight loop over the chunk of
                    // a column against a pre-resolved constant —
                    // over bare numbers when column and constant
                    // agree in type, over the column's slots in
                    // place otherwise …
                    Some(SliceLoop::ColConst(op, c, rhs)) => match (column(c), rhs) {
                        (Column::Int(xs), Value::Int(k)) => {
                            let (xs, truth) = (&xs[chunk], ord_lookup(op));
                            settle_lanes(sel, acc, chain, |at| truth(Some(xs[at].cmp(k))));
                        }
                        (Column::Float(xs), Value::Float(k)) => {
                            let (xs, truth) = (&xs[chunk], ord_lookup(op));
                            settle_lanes(sel, acc, chain, |at| truth(xs[at].partial_cmp(k)));
                        }
                        (Column::Values(xs), _) => {
                            let xs = &xs[chunk];
                            settle_lanes(sel, acc, chain, |at| cmp_truth(op, &xs[at], rhs));
                        }
                        (xs, _) => settle_lanes(sel, acc, chain, |at| {
                            xs.with_slot(lo + at, |x| cmp_truth(op, x, rhs))
                        }),
                    },
                    // … or against a second column.
                    Some(SliceLoop::ColCol(op, l, r)) => match (column(l), column(r)) {
                        (Column::Int(l), Column::Int(r)) => {
                            let (l, r) = (&l[chunk.clone()], &r[chunk]);
                            let truth = ord_lookup(op);
                            settle_lanes(sel, acc, chain, |at| truth(Some(l[at].cmp(&r[at]))));
                        }
                        (Column::Float(l), Column::Float(r)) => {
                            let (l, r) = (&l[chunk.clone()], &r[chunk]);
                            let truth = ord_lookup(op);
                            settle_lanes(sel, acc, chain, |at| truth(l[at].partial_cmp(&r[at])));
                        }
                        (Column::Values(l), Column::Values(r)) => {
                            let (l, r) = (&l[chunk.clone()], &r[chunk]);
                            settle_lanes(sel, acc, chain, |at| cmp_truth(op, &l[at], &r[at]));
                        }
                        (l, r) => settle_lanes(sel, acc, chain, |at| {
                            let cmp = |x: &Value| r.with_slot(lo + at, |y| cmp_truth(op, x, y));
                            l.with_slot(lo + at, cmp)
                        }),
                    },
                    // Any other kernel: the interpreter's fast path on
                    // the row's position in the input's columns. Total
                    // here — the term is in its class and `run_chain`
                    // saw the outer references resolve.
                    None => settle_lanes(sel, acc, chain, |at| {
                        let truth = self.truth_fast(&term.expr, &Seg::At(columns, lo + at));
                        truth.expect("kernel terms never leave the fast path")
                    }),
                }
                count.evals += before as u64;
                count.hits += (before - sel.len()) as u64;
            }
            // When every term was a kernel the fold is already final. A
            // settled row that meets no working stage waits for its run's
            // batched checkpoints; every other row takes its turn.
            let settled = |truth: Truth| kernels.len() == chain.terms.len() || truth == decide;
            let mut run = 0;
            for r in 0..n {
                if settled(acc[r]) && (DIRECT || !works[acc[r].is_true() as usize]) {
                    continue;
                }
                if run < r {
                    self.pass_settled(&chunk[run..r], lo + run, &acc[run..r], routes, &mut out)?;
                }
                run = r + 1;
                let t = &chunk[r];
                self.gov.tick()?;
                let truth = match settled(acc[r]) {
                    true => acc[r],
                    false => self.chain_eval_row(chain, &mut counts, t, kernels.len(), acc[r])?,
                };
                if let Some((stages, from, k)) = routes.of(truth) {
                    self.emit(&input.view(lo + r), stages, from, &mut out[k])?;
                }
            }
            self.pass_settled(&chunk[run..], lo + run, &acc[run..], routes, &mut out)?;
            lo += n;
        }
        Ok((out, counts))
    }

    /// Route a run of rows whose truth the kernel prefix settled and
    /// that meet no working stage — a σ keeps its TRUE rows, a σ± routes
    /// every row — and pass their checkpoints, nothing else being
    /// governor-visible (each row ticks and is charged if it leaves):
    /// one governor call. A σ's Γ folds the rows it keeps — a Γ that
    /// counts them, their number — and charges nothing here. Should the
    /// governor stop the run, the rows go with the sinks. `base` is the
    /// position of `rows[0]` in the input.
    fn pass_settled(
        &mut self,
        rows: &[Tuple],
        base: usize,
        truth: &[Truth],
        routes: &Routes<'_, '_>,
        out: &mut Streams<'_>,
    ) -> Result<()> {
        let bypass = routes.neg.is_some();
        let keeps = bypass || matches!(out[0].exit, Exit::Keep);
        let charges = if bypass {
            for (t, &truth) in rows.iter().zip(truth) {
                if let Some((_, from, k)) = routes.of(truth) {
                    out[k].reached[from..].iter_mut().for_each(|r| *r += 1);
                    out[k].rows.push(t.clone());
                }
            }
            rows.len()
        } else {
            let sink = &mut out[0];
            let into = match &mut sink.exit {
                Exit::Fold(fold) => Err(fold),
                Exit::Buffer(rows) => Ok(rows),
                Exit::Keep => Ok(&mut sink.rows),
            };
            let n = match into {
                Ok(into) => {
                    let before = into.len();
                    let kept = rows.iter().zip(truth).filter(|(_, t)| t.is_true());
                    into.extend(kept.map(|(t, _)| t.clone()));
                    into.len() - before
                }
                Err(fold) => self.fold_settled(fold, rows, base, truth)?,
            };
            sink.reached[1..].iter_mut().for_each(|r| *r += n as u64);
            if keeps {
                n
            } else {
                0
            }
        };
        let charged = |r: usize| bypass || (keeps && truth[r].is_true());
        let bytes = charges as u64 * SHARED_ROW_BYTES;
        self.gov
            .tick_rows(rows.len(), charges, bytes, |gov, r| match charged(r) {
                true => gov.charge(SHARED_ROW_BYTES),
                false => Ok(()),
            })
    }

    /// Fold the TRUE rows of a settled run (`base`: the position of
    /// `rows[0]` in the input) into a σ's Γ — a Γ that counts rows, their
    /// number; one that reads the input by column, as a chunk — and
    /// return how many there were. Out of line: inlined, it slowed the σ
    /// loop of every other pipeline by 9 % per row.
    #[inline(never)]
    fn fold_settled(
        &mut self,
        fold: &mut Fold<'_>,
        rows: &[Tuple],
        base: usize,
        truth: &[Truth],
    ) -> Result<usize> {
        let kept = truth.iter().enumerate();
        let kept = kept.filter_map(|(j, truth)| truth.is_true().then_some(j));
        if fold.counts() {
            let n = kept.count();
            fold.count(self, n)?;
            return Ok(n);
        }
        fold.fold_run(self, rows, base, kept)
    }

    /// Evaluate the chain's terms from term `from` on for one row, with
    /// the fold of the terms before it in `acc`. Terms short-circuit on
    /// the deciding truth value; non-deciding results fold.
    fn chain_eval_row(
        &mut self,
        chain: &CompiledChain,
        counts: &mut [DisjunctMetrics],
        t: &Tuple,
        from: usize,
        mut acc: Truth,
    ) -> Result<Truth> {
        let decide = chain.decide();
        for (term, count) in chain.terms.iter().zip(counts).skip(from) {
            count.evals += 1;
            let truth = self.eval_truth(&term.expr, t)?;
            if truth == decide {
                count.hits += 1;
                return Ok(decide);
            }
            acc = chain.combine(acc, truth);
        }
        Ok(acc)
    }

    /// Evaluate a plan root (fresh bypass memo) into the caller's own
    /// relation under the root's names: its rows unwrapped, or — where
    /// the catalog or a stream still holds them (a scan or a tapped
    /// stream at the root) — their handles copied, outside any budget.
    /// A run that passed no checkpoint (a bare scan) polls the governor.
    pub fn eval_plan(&mut self, root: &Arc<PhysNode>) -> Result<Relation> {
        let rel = self.eval_block(root)?;
        if self.gov.checkpoints() == 0 {
            self.gov.poll()?;
        }
        let rows = Arc::try_unwrap(rel).map_or_else(|rel| rel.rows().to_vec(), Relation::into_rows);
        Ok(Relation::new(root.schema.clone(), rows))
    }

    /// Evaluate a query block (fresh bypass memo) as its operators built
    /// it: a nested block's rows are read by position.
    pub(crate) fn eval_block(&mut self, root: &Arc<PhysNode>) -> Result<Arc<Relation>> {
        self.eval_node(root, &mut Local::default())
    }

    fn eval_node(&mut self, node: &Arc<PhysNode>, local: &mut Local) -> Result<Arc<Relation>> {
        let ptr = Arc::as_ptr(node) as usize;
        if node.shared {
            if let Some(rel) = local.shared.get(&ptr) {
                return Ok(rel.clone());
            }
        }
        let run = |ctx: &mut Self| ctx.eval_node_inner(node, local);
        let rel = self.metered(node, run, |m, rel| m.rows += rel.len() as u64)?;
        if node.shared {
            local.shared.insert(ptr, rel.clone());
        }
        Ok(rel)
    }

    /// Run one operator call under the EXPLAIN ANALYZE bookkeeping,
    /// which lives here and nowhere else: inclusive and self time
    /// through the `child_nanos` frame stack, the call count and what
    /// the arm deposited in `pending`; `book` adds what depends on the
    /// shape of the result (row counts, the bypass split).
    fn metered<T>(
        &mut self,
        node: &Arc<PhysNode>,
        run: impl FnOnce(&mut Self) -> Result<T>,
        book: impl FnOnce(&mut NodeMetrics, &T),
    ) -> Result<T> {
        if self.metrics.is_none() {
            return run(self);
        }
        let start = Instant::now();
        self.child_nanos.push(0);
        let result = run(self);
        let elapsed = start.elapsed().as_nanos();
        let children = self.child_nanos.pop().unwrap_or(0);
        if let Some(parent) = self.child_nanos.last_mut() {
            *parent += elapsed;
        }
        let pend = std::mem::take(&mut self.pending);
        if let (Some(metrics), Ok(out)) = (self.metrics.as_mut(), &result) {
            let m = metrics.entry(Arc::as_ptr(node) as usize).or_default();
            m.calls += 1;
            m.nanos += elapsed;
            m.self_nanos += elapsed.saturating_sub(children);
            m.merge(&pend);
            book(m, out);
        }
        result
    }

    fn eval_node_inner(
        &mut self,
        node: &Arc<PhysNode>,
        local: &mut Local,
    ) -> Result<Arc<Relation>> {
        // Cloned by the arms that build a relation: `Scan` and `Stream`
        // — every invocation of a nested block runs one — hand on what
        // exists.
        let schema = || node.schema.clone();
        let rel = match &node.kind {
            // Zero-copy: hand out the catalog's shared storage handle.
            PhysKind::Scan { columns } => return Ok(columns.data().clone()),
            PhysKind::Pipeline { neg: Some(_), .. } => {
                return Err(Error::execution(
                    "bypass operators must be consumed through Stream nodes",
                ))
            }
            PhysKind::Pipeline { .. } => {
                let [sink, _] = self.run_pipeline(node, local)?;
                Relation::new(schema(), sink.rows)
            }
            // The keys are columns of the input's rows: a stable sort of
            // their handles, each row's checkpoint and charge in input order.
            PhysKind::Sort { input, keys } => {
                let input = self.eval_node(input, local)?;
                for _ in input.rows() {
                    self.gov.tick()?;
                    self.gov.charge(SHARED_ROW_BYTES)?;
                }
                let mut rows = input.rows().to_vec();
                rows.sort_by(|a, b| compare_tuples(a, b, keys));
                Relation::new(schema(), rows)
            }
            PhysKind::Limit { input, n } => {
                let input = self.eval_node(input, local)?;
                self.gov
                    .charge(input.len().min(*n) as u64 * SHARED_ROW_BYTES)?;
                let rows = input.rows().iter().take(*n).cloned().collect();
                Relation::new(schema(), rows)
            }
            PhysKind::Union { inputs, distinct } => {
                let inputs = inputs.iter().map(|i| self.eval_node(i, local));
                let inputs = inputs.collect::<Result<Vec<_>>>()?;
                // One charge: the output's row handles. δ keeps the first
                // occurrence of each row in a transient, uncharged set.
                let n = inputs.iter().map(|r| r.len()).sum::<usize>();
                self.gov.charge(n as u64 * SHARED_ROW_BYTES)?;
                let mut seen =
                    distinct.then(|| FxHashSet::with_capacity_and_hasher(n, Default::default()));
                let mut rows = Vec::with_capacity(n);
                for row in inputs.iter().flat_map(|r| r.rows()) {
                    if seen.as_mut().is_none_or(|s| s.insert(row)) {
                        rows.push(row.clone());
                    }
                }
                Relation::new(schema(), rows)
            }
            PhysKind::Stream { source, positive } => {
                return self.eval_stream(source, *positive, local)
            }
        };
        Ok(Arc::new(rel))
    }

    /// One stream of a bypass operator, which runs once per plan
    /// evaluation: its streams wait in `local` for their taps. A stream a
    /// chain consumes has one tap, which takes it, so its rows die with
    /// their consumer; any other is handed on by refcount.
    fn eval_stream(
        &mut self,
        source: &Arc<PhysNode>,
        positive: bool,
        local: &mut Local,
    ) -> Result<Arc<Relation>> {
        let ptr = Arc::as_ptr(source) as usize;
        if !local.duals.contains_key(&ptr) {
            let dual = self.metered(source, |ctx| ctx.eval_bypass(source, local), |_, _| {})?;
            local.duals.insert(ptr, dual.map(Some));
        }
        let stream = &mut local.duals.get_mut(&ptr).expect("evaluated above")[!positive as usize];
        let tapped = match source.stream_chained(positive) {
            true => stream.take(),
            false => stream.clone(),
        };
        tapped.ok_or_else(|| Error::execution("a bypass stream a chain consumes has one tap"))
    }

    /// Both streams of a bypass operator, positive first.
    fn eval_bypass(
        &mut self,
        source: &Arc<PhysNode>,
        local: &mut Local,
    ) -> Result<[Arc<Relation>; 2]> {
        if !source.is_bypass() {
            return Err(Error::execution(
                "Stream node must point at a bypass operator",
            ));
        }
        let sinks = self.run_pipeline(source, local)?;
        if self.metrics.is_some() {
            // What the head routed to each stream, before any stage (the
            // positive chain's stage 0 is the head): the negative stream
            // is what the paper's cost argument needs small.
            let routed = |s: &Sink, k: usize| *s.reached.get(k).unwrap_or(&(s.rows.len() as u64));
            let (pos, neg) = (routed(&sinks[0], 1), routed(&sinks[1], 0));
            self.pending.rows += pos + neg;
            self.pending.pos_rows += pos;
            self.pending.neg_rows += neg;
        }
        let [pos, neg] = sinks.map(|sink| sink.rows);
        let stream =
            |positive, rows| Arc::new(Relation::new(source.stream_schema(positive).clone(), rows));
        Ok([stream(true, pos), stream(false, neg)])
    }

    // ----- pipelines (DESIGN.md §7) --------------------------------------
    //
    // A row loop — a σ/σ±'s chunks, a pass over a relation (a join's and
    // a ⋈±'s headed by their probe) — pushes a borrowed `RowView` through
    // its stages and materializes (and charges) only what leaves the last
    // one, or folds it into the Γ the pipeline ends in; every stage ticks
    // where its operator did.

    /// Run the pipeline `node` over its evaluated input: the positive
    /// sink (a relation pipeline's only one), then — a bypass operator —
    /// the negative one. Build sides stay on the master (charge order is
    /// insertion order): the head's and the positive chain's joins first,
    /// then the negative chain's; the immutable tables are shared by the
    /// morsels. A pipeline that ends in a Γ hands back its groups.
    fn run_pipeline<'p>(
        &mut self,
        node: &'p Arc<PhysNode>,
        local: &mut Local,
    ) -> Result<Streams<'p>> {
        let PhysKind::Pipeline {
            input,
            chain,
            neg,
            group,
        } = &node.kind
        else {
            return Err(Error::execution("not a pipeline"));
        };
        let rel = self.eval_node(input, local)?;
        let source = Source::of(input, rel);
        let columns = source.columns();
        if chain.stages.is_empty() {
            let group = group.as_ref().expect("only Γ has an empty chain");
            let mut sink = Sink::new(0);
            sink.rows = self.group_relation(group, source.rows(), &columns)?;
            return Ok([sink, Sink::new(0)]);
        }
        // The effects of a Γ folding inside the loop wait for its end.
        // Under a σ that is the whole chain it folds the input's own rows.
        let mut fold = match group {
            Some(group) => {
                let mut fold = Fold::start(self, group, None)?;
                if chain.stages.len() == 1 && node.chain().is_some() {
                    fold.by_column(&columns);
                }
                Some(Box::new(fold))
            }
            None => None,
        };
        let stages = self.open_chain(chain, Some((source.len(), &columns)), local)?;
        let neg = match neg {
            Some(neg) => Some(self.open_chain(neg, None, local)?),
            None => None,
        };
        let [mut sink, neg] = match node.chain() {
            // A σ head runs chunk-wise and routes what it keeps into the
            // stages after it — what it fails, into a σ±'s negative chain.
            Some(_) => {
                let routes = Routes {
                    pos: &stages,
                    neg: neg.as_deref(),
                };
                self.run_chain(node, &columns, &source, &routes, &mut fold)?
            }
            None => self.run_pass(node, &columns, &source, &stages, neg.as_deref(), &mut fold)?,
        };
        if group.is_some() {
            // A serial loop hands Γ back in its sink; a forked one left it
            // here and its morsels' rows in the sink, in morsel order.
            let fold = match std::mem::replace(&mut sink.exit, Exit::Keep) {
                Exit::Fold(fold) => fold,
                Exit::Buffer(rows) => {
                    let mut fold = fold.take().expect("a forked loop leaves Γ here");
                    for t in &rows {
                        fold.fold(self, t)?;
                    }
                    fold
                }
                Exit::Keep => return Err(Error::execution("Γ's pipeline kept its rows")),
            };
            sink.rows = self.close_group(*fold)?;
        }
        Ok([sink, neg])
    }

    /// Γ over a relation: one pass on the master, folding in place, its
    /// effects as they happen. The loop has no work of its own to share
    /// out, so it never forks (DESIGN.md §7). Keys and arguments that are
    /// plain columns are read off the input's `columns`.
    fn group_relation(
        &mut self,
        group: &Group,
        input: &[Tuple],
        columns: &Arc<TableColumns>,
    ) -> Result<Vec<Tuple>> {
        let mut fold = Fold::start(self, group, Some(input.len()))?;
        fold.by_column(columns);
        fold.fold_relation(self, input)?;
        self.close_group(fold)
    }

    /// Γ's output rows, its effects replayed, and its EXPLAIN ANALYZE
    /// counts.
    fn close_group(&mut self, fold: Fold<'_>) -> Result<Vec<Tuple>> {
        let folded = fold.rows();
        let groups = fold.finish(self)?;
        if self.metrics.is_some() {
            self.pending.group_rows += folded;
            self.pending.groups += groups.len() as u64;
        }
        Ok(groups)
    }

    /// The pass of a pipeline whose head is not a σ: every row of
    /// `input` (`columns`: its columns) enters the head. A ν head numbers
    /// the row by its position in `input`. A probe head — a join or a
    /// ⋈± — counts each probing row; a hash head reads its key off
    /// `columns` (row by row, where the key column past the arity
    /// raises, if there is one), so a row is touched only once it has a
    /// partner or must be padded; a nested-loop head visits every build
    /// row per probing row and hands a ⋈±'s failing pairs into `neg`.
    fn run_pass<'f>(
        &mut self,
        node: &Arc<PhysNode>,
        columns: &TableColumns,
        input: &Source<'_>,
        stages: &[LiveStage<'_>],
        neg: Option<&[LiveStage<'_>]>,
        fold: &mut Option<Box<Fold<'f>>>,
    ) -> Result<Streams<'f>> {
        let head = stages.first().and_then(|s| s.probe.as_ref());
        let (table_key, pairs) = match head {
            Some(Probe {
                on: ProbeOn::Hash { probe_keys, .. },
                ..
            }) => (TableKey::new(columns, probe_keys).ok(), 1),
            Some(Probe { build, .. }) => (None, build.len()),
            None => (None, 1),
        };
        let number = matches!(stages.first().map(|s| s.stage), Some(Stage::Number));
        let grouped = node.group().is_some();
        let parts = self.run_morsels(node, input.len(), pairs, fold, |ctx, range, fold| {
            let [mut sink, mut miss] = [stages.len(), neg.map_or(0, <[_]>::len)].map(Sink::new);
            sink.exit = Exit::of(fold, grouped);
            if let (Some(probe), Some(key)) = (head, &table_key) {
                let to = (stages, neg);
                ctx.probe_table(probe, key, input, range, to, &mut sink, &mut miss)?;
                return Ok([sink, miss]);
            }
            for i in range {
                let row = input.view(i);
                let Some(probe) = head else {
                    if !number {
                        ctx.emit(&row, stages, 0, &mut sink)?;
                        continue;
                    }
                    // The position is global, so each morsel numbers its
                    // slice independently.
                    sink.reached[0] += 1;
                    ctx.gov.tick()?;
                    let at = [Value::Int(i as i64)];
                    ctx.emit(&row.with(Seg::Values(&at)), stages, 1, &mut sink)?;
                    continue;
                };
                sink.reached[0] += 1;
                let miss = neg.map(|neg| (neg, &mut miss));
                ctx.probe(probe, &row, None, stages, 1, &mut sink, miss)?;
            }
            Ok([sink, miss])
        })?;
        let probes = stages.iter().chain(neg.unwrap_or_default());
        let streams = self.finish(parts, probes.filter_map(|s| s.probe.as_ref()));
        let hash_head = matches!(head.map(|p| &p.on), Some(ProbeOn::Hash { .. }));
        if self.metrics.is_some() && hash_head {
            self.pending.input_rows += input.len() as u64;
        }
        Ok(streams)
    }

    /// The rows `range` of the input (`rows`) through the hash probe
    /// head `probe` whose key columns are `key`, a chunk of
    /// `batch_rows` at a time: the chunk's keys are hashed a column at a
    /// time, then each row's partners found. A row with partners, or one
    /// an outer join pads, goes through [`Self::probe`]; a run of rows
    /// with neither only ticks, one [`Governor::tick_rows`] call for the
    /// run — so the checkpoints and what reaches the chain are those of
    /// probing row by row.
    #[allow(clippy::too_many_arguments)]
    fn probe_table(
        &mut self,
        probe: &Probe<'_>,
        key: &TableKey,
        input: &Source<'_>,
        range: Range<usize>,
        (stages, neg): (&[LiveStage<'_>], Option<&[LiveStage<'_>]>),
        sink: &mut Sink,
        miss: &mut Sink,
    ) -> Result<()> {
        let ProbeOn::Hash { table, .. } = &probe.on else {
            return Err(Error::execution("a table probe is a hash probe"));
        };
        let mut hashes = ChunkHashes::default();
        for chunk in chunks(range, self.options.batch_rows) {
            key.hash_chunk(chunk.clone(), &mut hashes);
            let mut idle = chunk.start;
            for (k, i) in chunk.clone().enumerate() {
                let partners = match hashes.unequal(k) {
                    true => &[][..],
                    false => table.matches(hashes.hash(k), key.key(i), &mut sink.reverify),
                };
                if partners.is_empty() && probe.pad.is_none() {
                    continue;
                }
                self.pass_unmatched(i - idle, sink)?;
                idle = i + 1;
                sink.reached[0] += 1;
                let miss = neg.map(|neg| (neg, &mut *miss));
                let row = input.view(i);
                self.probe(probe, &row, Some(partners), stages, 1, sink, miss)?;
            }
            self.pass_unmatched(chunk.end - idle, sink)?;
        }
        Ok(())
    }

    /// `n` probing rows that find no partner and are not padded: each
    /// ticks, nothing else.
    fn pass_unmatched(&mut self, n: usize, sink: &mut Sink) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        sink.reached[0] += n as u64;
        self.gov.tick_rows(n, 0, 0, |_, _| Ok(()))
    }

    /// Close a pipeline loop, whichever its source: fold each stream's
    /// per-morsel sinks in morsel (= input) order, release the build
    /// sides of `probes` and book collision re-verifies and per-stage
    /// counts (positive stream first).
    fn finish<'s, 'p: 's, 'f>(
        &mut self,
        parts: Vec<Streams<'f>>,
        probes: impl Iterator<Item = &'s Probe<'p>>,
    ) -> Streams<'f> {
        let (pos, neg): (Vec<_>, Vec<_>) = parts.into_iter().map(|[p, n]| (p, n)).unzip();
        let sinks = [Sink::merge(pos), Sink::merge(neg)];
        // The hash tables' key arenas die with the pipeline.
        for probe in probes {
            if let ProbeOn::Hash { table, charged, .. } = &probe.on {
                if self.metrics.is_some() {
                    self.pending.build_rows += table.len() as u64;
                }
                self.gov.release(*charged);
            }
        }
        if self.metrics.is_some() {
            self.pending.reverify += sinks[0].reverify + sinks[1].reverify;
            self.pending.stages = sinks.iter().flat_map(Sink::stage_metrics).collect();
        }
        sinks
    }

    /// Evaluate a join's right input and make the join probe-ready. Runs
    /// on the master before the loop fans out. `left` is the join's
    /// evaluated left input and its columns — given for a pipeline's
    /// head, absent for a join fused into a chain, whose left input is a
    /// stream. An inner hash join with the smaller input on the left
    /// whose key columns are in its range keys its table by *that*
    /// input and inserts only the right rows that have one of its keys;
    /// ties, outer joins and fused joins hash the whole right input.
    fn open_probe<'p>(
        &mut self,
        spec: &'p JoinSpec,
        left: Option<(usize, &TableColumns)>,
        local: &mut Local,
    ) -> Result<Probe<'p>> {
        let right = self.eval_node(&spec.right, local)?;
        let pad = spec
            .defaults
            .as_ref()
            .map(|d| padded_right(right.schema().arity(), d));
        let build = Source::of(&spec.right, right);
        let (left_keys, right_keys, residual) = match &spec.on {
            JoinOn::Loop(predicate) => {
                return Ok(Probe {
                    build,
                    on: ProbeOn::Loop(predicate.as_ref()),
                    pad,
                })
            }
            JoinOn::Hash {
                left_keys,
                right_keys,
                residual,
            } => (left_keys, right_keys, residual.as_ref()),
        };
        // Reading the left keys ahead of the probe must not be able to
        // raise an error the probe would have raised later (or never):
        // columns in range only.
        let only = left
            .filter(|&(l, _)| pad.is_none() && l < build.len())
            .and_then(|(l, columns)| Some((l, TableKey::new(columns, left_keys).ok()?)));
        let columns = build.columns();
        let (table, charged) =
            self.build_hash_table(build.len(), &columns, right_keys, only.as_ref())?;
        Ok(Probe {
            build,
            on: ProbeOn::Hash {
                probe_keys: left_keys,
                table,
                residual,
                charged,
            },
            pad,
        })
    }

    /// Make a stage chain runnable: open the build sides of its joins, in
    /// chain order. A probe head is handed `left`, the evaluated input of
    /// its pipeline, with its columns.
    fn open_chain<'p>(
        &mut self,
        chain: &'p Chain,
        left: Option<(usize, &TableColumns)>,
        local: &mut Local,
    ) -> Result<Vec<LiveStage<'p>>> {
        chain
            .stages
            .iter()
            .enumerate()
            .map(|(k, stage)| {
                let probe = match stage {
                    Stage::Probe(spec) => {
                        Some(self.open_probe(spec, left.filter(|_| k == 0), local)?)
                    }
                    _ => None,
                };
                Ok(LiveStage { stage, probe })
            })
            .collect()
    }

    /// Join one probing row against `probe`'s build side and hand every
    /// emitted pair to stage `next` of `stages`. `found` are the row's
    /// partners when a chunk loop over the input already looked them up
    /// ([`Self::probe_table`]); otherwise a hash probe reads the row's
    /// key off the row. With `miss` — a ⋈± head — a nested-loop pair that
    /// fails the predicate enters that chain.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        probe: &Probe<'_>,
        left: &RowView<'_>,
        found: Option<&[u32]>,
        stages: &[LiveStage<'_>],
        next: usize,
        sink: &mut Sink,
        mut miss: Option<(&[LiveStage<'_>], &mut Sink)>,
    ) -> Result<()> {
        let build = &probe.build;
        let mut matched = false;
        match &probe.on {
            ProbeOn::Loop(predicate) => {
                for bi in 0..build.len() {
                    self.gov.tick()?;
                    let pair = left.with(build.seg(bi));
                    let hit = match predicate {
                        None => true,
                        Some(p) => self.eval_truth(p, &pair)?.is_true(),
                    };
                    if hit {
                        matched = true;
                        self.emit(&pair, stages, next, sink)?;
                    } else if let Some((neg, miss)) = &mut miss {
                        self.emit(&pair, neg, 0, miss)?;
                    }
                }
            }
            ProbeOn::Hash {
                probe_keys,
                table,
                residual,
                ..
            } => {
                self.gov.tick()?;
                // The key is done with once its partners are found; the
                // pairs travel down the chain (which borrows the sink)
                // without it. NULL and NaN keys never match.
                let partners = match found {
                    Some(partners) => partners,
                    None => match KeyRef::read(left, probe_keys, false)? {
                        Some(key) => table.matches(key.hash(), key, &mut sink.reverify),
                        None => &[],
                    },
                };
                for &bi in partners {
                    let pair = left.with(build.seg(bi as usize));
                    if let Some(p) = residual {
                        if !self.eval_truth(p, &pair)?.is_true() {
                            continue;
                        }
                    }
                    matched = true;
                    self.emit(&pair, stages, next, sink)?;
                }
            }
        }
        if let (false, Some(pad)) = (matched, &probe.pad) {
            self.emit(&left.with(Seg::Values(pad)), stages, next, sink)?;
        }
        Ok(())
    }

    /// The Π that ends a chain builds the row that leaves it — the one
    /// copy of those cells — and keeps it, charged. Out of line: `emit`
    /// recurses once per stage and per row, and ran 15 ns per row slower
    /// with this loop and its allocation inlined into its frame
    /// (`rst_unnested` Q2: 10 000 rows through ⟕ × χ σ, none kept).
    #[inline(never)]
    fn keep_picked(&mut self, row: &RowView<'_>, cols: &[usize], sink: &mut Sink) -> Result<()> {
        self.gov.tick()?;
        let cell = |&c: &usize| {
            row.with_cell(c, Value::clone)
                .expect("planned against the view")
        };
        if let Exit::Fold(fold) = &mut sink.exit {
            // Γ reads the picked columns in place: a level's buffer.
            let picked = sink.scratch.last_mut().expect("a buffer per level");
            picked.clear();
            picked.extend(cols.iter().map(cell));
            return fold.fold(self, &RowView::new(picked));
        }
        let picked: Tuple = cols.iter().map(cell).collect();
        match &mut sink.exit {
            Exit::Buffer(rows) => rows.push(picked),
            _ => {
                self.gov.charge(tuple_bytes(&picked))?;
                sink.rows.push(picked);
            }
        }
        Ok(())
    }

    /// Hand a row leaving the chain to the pipeline's Γ: folded, or held
    /// by a forked loop's morsel. Out of line, like [`Self::keep_picked`]:
    /// `emit` is every pipeline's per-row path.
    #[inline(never)]
    fn exit_to_group(&mut self, row: &RowView<'_>, sink: &mut Sink) -> Result<()> {
        match &mut sink.exit {
            Exit::Fold(fold) => fold.fold(self, row),
            Exit::Buffer(rows) => {
                rows.push(row.to_tuple());
                Ok(())
            }
            Exit::Keep => Err(Error::execution("a kept row is no Γ's")),
        }
    }

    /// Push one row into stage `at` of the chain; past the last stage
    /// the row has survived — fold it into the pipeline's Γ, or
    /// materialize and charge it: a source row no stage changed by
    /// refcount, as σ hands rows on, any other as the tuple it has
    /// become.
    fn emit(
        &mut self,
        row: &RowView<'_>,
        stages: &[LiveStage<'_>],
        at: usize,
        sink: &mut Sink,
    ) -> Result<()> {
        let Some(stage) = stages.get(at) else {
            if !matches!(sink.exit, Exit::Keep) {
                return self.exit_to_group(row, sink);
            }
            let (row, bytes) = match row.whole {
                Some(t) => (t.clone(), SHARED_ROW_BYTES),
                None => {
                    let t = row.to_tuple();
                    let bytes = tuple_bytes(&t);
                    (t, bytes)
                }
            };
            self.gov.charge(bytes)?;
            sink.rows.push(row);
            return Ok(());
        };
        sink.reached[at] += 1;
        match stage.stage {
            Stage::Filter(predicate) => {
                self.gov.tick()?;
                if self.eval_truth(predicate, row)?.is_true() {
                    self.emit(row, stages, at + 1, sink)?;
                }
                Ok(())
            }
            Stage::Map(expr) => {
                self.gov.tick()?;
                let v = [self.eval_expr(expr, row)?];
                self.emit(&row.with(Seg::Values(&v)), stages, at + 1, sink)
            }
            Stage::Project(exprs) => {
                self.gov.tick()?;
                let mut out = std::mem::take(&mut sink.scratch[at + 1]);
                out.clear();
                for e in exprs {
                    out.push(self.eval_expr(e, row)?);
                }
                let done = self.emit(&RowView::new(&out), stages, at + 1, sink);
                sink.scratch[at + 1] = out;
                done
            }
            Stage::Pick(cols) => self.keep_picked(row, cols, sink),
            Stage::Probe(_) => {
                let probe = stage.probe.as_ref().expect("opened with its chain");
                self.probe(probe, row, None, stages, at + 1, sink, None)
            }
            Stage::Number => Err(Error::execution("ν heads its pipeline")),
        }
    }

    /// Single-pass build of a join hash table, plus the bytes charged
    /// for it: one tick per build row; rows whose key holds a NULL or a
    /// NaN are skipped (they can never match); every other row charges
    /// its entry overhead and key values, whether or not its key is new.
    ///
    /// With `only` — the length of the (smaller) probing input and its
    /// key columns — the table is keyed by *that* input's distinct keys,
    /// each charged once, and a build row is inserted, and its entry
    /// charged, only if a probing row will ask for it. The table answers
    /// every probe as the full one would, so the join emits the same rows
    /// in the same order whichever way it was built.
    ///
    /// The build keys, columns of the `rows` build rows, are hashed a
    /// chunk of `batch_rows` at a time off their `columns`, and the chunk's ticks
    /// and charges pass in one [`Governor::tick_rows`] call. A key column
    /// past the arity raises at the first build row, after its tick.
    fn build_hash_table(
        &mut self,
        rows: usize,
        columns: &TableColumns,
        keys: &[usize],
        only: Option<&(usize, TableKey)>,
    ) -> Result<(JoinTable, u64)> {
        let key_bytes = keys.len() as u64 * VALUE_BYTES;
        let distinct_keys = only.map_or(rows, |&(probing, _)| probing);
        let mut table = JoinTable::with_capacity(keys.len(), distinct_keys);
        let mut charged = 0;
        let mut hashes = ChunkHashes::default();
        if let Some((probing, key)) = only {
            // A key is charged once, when it is first admitted.
            for chunk in chunks(0..*probing, self.options.batch_rows) {
                key.hash_chunk(chunk.clone(), &mut hashes);
                for (k, i) in chunk.enumerate() {
                    if !hashes.unequal(k) && table.admit(hashes.hash(k), key.key(i)) {
                        let bytes = key_bytes + key.key(i).heap_bytes();
                        charged += bytes;
                        self.gov.charge(bytes)?;
                    }
                }
            }
            table.spread();
        }
        let key = match TableKey::new(columns, keys) {
            Ok(key) => key,
            Err(_) if rows == 0 => {
                table.seal();
                return Ok((table, charged));
            }
            Err(c) => return self.gov.tick().and(Err(out_of_range(c))),
        };
        // Per row of a chunk, the bytes its entry charges (0: none).
        let mut entries: Vec<u64> = Vec::new();
        for chunk in chunks(0..rows, self.options.batch_rows) {
            key.hash_chunk(chunk.clone(), &mut hashes);
            entries.clear();
            for (k, i) in chunk.clone().enumerate() {
                let (hash, row_key) = (hashes.hash(k), key.key(i));
                entries.push(match hashes.unequal(k) {
                    true => 0,
                    false if only.is_none() => {
                        table.insert(hash, row_key, i);
                        JOIN_ENTRY_BYTES + key_bytes + row_key.heap_bytes()
                    }
                    false if table.insert_admitted(hash, row_key, i) => JOIN_ENTRY_BYTES,
                    false => 0,
                });
            }
            let charges = entries.iter().filter(|&&b| b > 0).count();
            let bytes = entries.iter().sum();
            charged += bytes;
            self.gov
                .tick_rows(chunk.len(), charges, bytes, |gov, k| match entries[k] {
                    0 => Ok(()),
                    bytes => gov.charge(bytes),
                })?;
        }
        table.seal();
        Ok((table, charged))
    }
}

/// `range` cut into consecutive chunks of at most `len` rows.
fn chunks(range: Range<usize>, len: usize) -> impl Iterator<Item = Range<usize>> {
    let end = range.end;
    range.step_by(len).map(move |lo| lo..(lo + len).min(end))
}

/// Settle the chunk's undecided lanes `sel` with one kernel term's
/// `truth` of each and compact `sel` in place. An undecided lane's
/// accumulator is the chain's identity or UNKNOWN, so no 3VL fold is
/// needed: `decide` drops the lane and marks it decided, UNKNOWN keeps
/// it and marks it, the identity keeps it as it is.
#[inline(always)]
fn settle_lanes(
    sel: &mut Vec<u32>,
    acc: &mut [Truth],
    chain: &CompiledChain,
    truth: impl Fn(usize) -> Truth,
) {
    let (decide, identity) = (chain.decide(), chain.identity());
    let mut kept = 0;
    for i in 0..sel.len() {
        let lane = sel[i];
        let t = truth(lane as usize);
        sel[kept] = lane;
        if t != identity {
            acc[lane as usize] = t;
        }
        kept += (t != decide) as usize;
    }
    sel.truncate(kept);
}

/// The padded right-hand tuple for unmatched outer-join rows: NULLs with
/// the `g: f(∅)` defaults applied.
fn padded_right(arity: usize, defaults: &[(usize, Value)]) -> Vec<Value> {
    let mut vals = vec![Value::Null; arity];
    for (i, v) in defaults {
        vals[*i] = v.clone();
    }
    vals
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bypass_algebra::BinOp;
    use bypass_types::{DataType, Field, ResourceKind, Schema};

    pub(crate) fn int_rel(name: &str, cols: &[&str], rows: &[&[i64]]) -> Arc<PhysNode> {
        let schema = Schema::new(
            cols.iter()
                .map(|c| Field::qualified(name, *c, DataType::Int))
                .collect(),
        );
        let rel = Relation::new(
            schema.clone(),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
        );
        PhysNode::scan(TableColumns::new(rel))
    }

    pub(crate) fn run(node: &Arc<PhysNode>) -> Relation {
        evaluate(node).unwrap()
    }

    fn join(
        left: Arc<PhysNode>,
        right: Arc<PhysNode>,
        on: JoinOn,
        schema: Schema,
    ) -> Arc<PhysNode> {
        outer_join(left, right, on, None, schema)
    }

    fn outer_join(
        left: Arc<PhysNode>,
        right: Arc<PhysNode>,
        on: JoinOn,
        defaults: Option<Vec<(usize, Value)>>,
        schema: Schema,
    ) -> Arc<PhysNode> {
        let spec = JoinSpec {
            right,
            on,
            defaults,
        };
        PhysNode::pipeline(left, vec![Stage::Probe(spec)], schema)
    }

    fn hash_on(left_key: usize, right_key: usize) -> JoinOn {
        JoinOn::Hash {
            left_keys: vec![left_key],
            right_keys: vec![right_key],
            residual: None,
        }
    }

    fn cmp(op: BinOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
        PhysExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn filter_and_project() {
        let scan = int_rel("r", &["a", "b"], &[&[1, 10], &[2, 20], &[3, 30]]);
        let filter = PhysNode::pipeline(
            scan,
            vec![Stage::Filter(PhysExpr::Binary {
                op: BinOp::Gt,
                left: Box::new(PhysExpr::Column(0)),
                right: Box::new(PhysExpr::Literal(Value::Int(1))),
            })],
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
        );
        let project = PhysNode::pipeline(
            filter,
            vec![Stage::Project(vec![PhysExpr::Column(1)])],
            Schema::new(vec![Field::new("b", DataType::Int)]),
        );
        let out = run(&project);
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0][0], Value::Int(20));
    }

    /// δ keeps the first occurrence of each row, in input order — across
    /// all of a union's inputs — under value equality: `Int(1)` and
    /// `Float(1.0)` are one value.
    #[test]
    fn distinct_keeps_first_occurrence() {
        let distinct = |inputs: Vec<Vec<Value>>| {
            let schema = Schema::new(vec![Field::new("a", DataType::Float)]);
            let scan = |rows: Vec<Value>| {
                let rows = rows.into_iter().map(|v| Tuple::new(vec![v])).collect();
                PhysNode::scan(TableColumns::new(Relation::new(schema.clone(), rows)))
            };
            let inputs = inputs.into_iter().map(scan).collect();
            let rel = run(&PhysNode::new(
                PhysKind::Union {
                    inputs,
                    distinct: true,
                },
                schema.clone(),
            ));
            rel.rows().iter().map(|t| t[0].clone()).collect::<Vec<_>>()
        };
        let ints = |vs: &[i64]| vs.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        assert_eq!(distinct(vec![ints(&[1, 2, 1, 3, 2])]), ints(&[1, 2, 3]));
        let split = vec![ints(&[3, 1]), ints(&[]), ints(&[1, 2, 3]), ints(&[2, 4])];
        assert_eq!(distinct(split), ints(&[3, 1, 2, 4]));
        let mixed = [
            Value::Int(1),
            Value::Float(1.5),
            Value::Float(1.0),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(1.5),
        ];
        let kept = distinct(vec![mixed[..3].to_vec(), mixed[3..].to_vec()]);
        assert_eq!(kept, vec![Value::Int(1), Value::Float(1.5), Value::Int(2)]);
        let firsts = matches!(kept[..], [Value::Int(1), Value::Float(_), Value::Int(2)]);
        assert!(firsts, "the first occurrences, not their twins: {kept:?}");
    }

    #[test]
    fn scan_result_shares_storage_with_catalog() {
        let scan = int_rel("r", &["a"], &[&[1], &[2]]);
        let PhysKind::Scan { columns } = &scan.kind else {
            panic!()
        };
        let mut ctx = ExecContext::new(ExecOptions::default());
        let out = ctx.eval_block(&scan).unwrap();
        assert!(
            Arc::ptr_eq(&out, columns.data()),
            "scan must return the shared relation, not a copy"
        );
        assert_eq!(ctx.counters().checkpoints, 0);
    }

    #[test]
    fn filter_passes_rows_by_refcount() {
        let scan = int_rel("r", &["a"], &[&[1], &[2], &[3]]);
        let schema = scan.schema.clone();
        let filter = PhysNode::pipeline(
            scan.clone(),
            vec![Stage::Filter(PhysExpr::Binary {
                op: BinOp::Gt,
                left: Box::new(PhysExpr::Column(0)),
                right: Box::new(PhysExpr::Literal(Value::Int(1))),
            })],
            schema,
        );
        let input = run(&scan);
        let out = run(&filter);
        assert_eq!(out.len(), 2);
        for t in out.rows() {
            assert!(
                input.rows().iter().any(|i| i.shares_buffer(t)),
                "filtered row must share its buffer with the input row"
            );
        }
    }

    #[test]
    fn hash_join_matches_nl_join() {
        let l = int_rel("l", &["a"], &[&[1], &[2], &[2], &[5]]);
        let r = int_rel("r", &["b"], &[&[2], &[2], &[5], &[7]]);
        let out_schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let hash = join(l.clone(), r.clone(), hash_on(0, 0), out_schema.clone());
        let on = JoinOn::Loop(Some(cmp(
            BinOp::Eq,
            PhysExpr::Column(0),
            PhysExpr::Column(1),
        )));
        let nl = join(l, r, on, out_schema);
        let (h, n) = (run(&hash), run(&nl));
        assert_eq!(h.len(), 5); // 2×2 matches + 1
        assert!(h.bag_eq(&n));
    }

    #[test]
    fn outer_join_defaults_fix_count_bug() {
        let l = int_rel("l", &["a"], &[&[1], &[9]]);
        let r = int_rel("r", &["k", "g"], &[&[1, 42]]);
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("k", DataType::Int),
            Field::new("g", DataType::Int),
        ]);
        let oj = outer_join(l, r, hash_on(0, 0), Some(vec![(1, Value::Int(0))]), schema);
        let out = run(&oj);
        assert_eq!(out.len(), 2);
        // Matched row keeps its g; unmatched gets NULL key and default 0
        // in column g (index 1 of the right side → overall index 2).
        let unmatched = out.rows().iter().find(|t| t[0] == Value::Int(9)).unwrap();
        assert!(unmatched[1].is_null());
        assert_eq!(unmatched[2], Value::Int(0));
    }

    #[test]
    fn bypass_filter_partitions_and_is_evaluated_once() {
        let scan = int_rel("r", &["a"], &[&[1], &[2], &[3], &[4]]);
        let schema = scan.schema.clone();
        let bypass = PhysNode::bypass(
            scan,
            Stage::Filter(cmp(
                BinOp::Gt,
                PhysExpr::Column(0),
                PhysExpr::Literal(Value::Int(2)),
            )),
            schema.clone(),
            None,
            None,
        );
        let pos = PhysNode::new(
            PhysKind::Stream {
                source: bypass.clone(),
                positive: true,
            },
            schema.clone(),
        );
        let neg = PhysNode::new(
            PhysKind::Stream {
                source: bypass,
                positive: false,
            },
            schema.clone(),
        );
        let union = PhysNode::new(
            PhysKind::Union {
                inputs: vec![pos, neg],
                distinct: false,
            },
            schema,
        );
        let out = run(&union);
        assert_eq!(out.len(), 4, "partition: no tuple lost or duplicated");
    }

    #[test]
    fn bypass_join_runs_both_stage_chains_on_the_pair_view() {
        let l = int_rel("l", &["a"], &[&[1], &[2]]);
        let r = int_rel("r", &["b", "c"], &[&[1, 100], &[9, 2000]]);
        let g = int_rel("g", &["k", "n"], &[&[9, 5]]);
        let int = |n: &str| Field::new(n, DataType::Int);
        let schema = Schema::new(vec![int("a"), int("b"), int("c")]);
        // Negative pairs (1,9,2000) (2,1,100) (2,9,2000) ⟕_{b=k} g with
        // n defaulting to 0, then σ_{n=0}, then Π_{a,n}: only the padded
        // row survives, carrying the default through the fused filter.
        let neg = Chain {
            stages: vec![
                Stage::Probe(JoinSpec {
                    right: g,
                    on: hash_on(1, 0),
                    defaults: Some(vec![(1, Value::Int(0))]),
                }),
                Stage::Filter(cmp(
                    BinOp::Eq,
                    PhysExpr::Column(4),
                    PhysExpr::Literal(Value::Int(0)),
                )),
                Stage::Project(vec![PhysExpr::Column(0), PhysExpr::Column(4)]),
            ],
            schema: Schema::new(vec![int("a"), int("n")]),
        };
        // Positive pair (1,1,100) extended by a + b.
        let pos = Chain {
            stages: vec![Stage::Map(cmp(
                BinOp::Add,
                PhysExpr::Column(0),
                PhysExpr::Column(1),
            ))],
            schema: schema.extended(int("s")),
        };
        let bj = PhysNode::bypass(
            l,
            Stage::Probe(JoinSpec {
                right: r,
                on: JoinOn::Loop(Some(cmp(
                    BinOp::Eq,
                    PhysExpr::Column(0),
                    PhysExpr::Column(1),
                ))),
                defaults: None,
            }),
            schema.clone(),
            Some(pos),
            Some(neg),
        );
        let tap = |positive| {
            PhysNode::new(
                PhysKind::Stream {
                    source: bj.clone(),
                    positive,
                },
                bj.stream_schema(positive).clone(),
            )
        };
        let ints = |vs: &[i64]| Tuple::new(vs.iter().map(|&v| Value::Int(v)).collect());
        assert_eq!(run(&tap(true)).rows(), &[ints(&[1, 1, 100, 2])]);
        assert_eq!(run(&tap(false)).rows(), &[ints(&[2, 0])]);

        let mut ctx = ExecContext::new(ExecOptions::default()).with_metrics();
        assert_eq!(ctx.eval_plan(&tap(false)).unwrap().len(), 1);
        let m = &ctx.take_metrics()[&(Arc::as_ptr(&bj) as usize)];
        // What the join routed, not what survived the chains.
        assert_eq!((m.calls, m.pos_rows, m.neg_rows), (1, 1, 3));
        let stage = |rows_in, rows_out| StageMetrics { rows_in, rows_out };
        assert_eq!(
            m.stages,
            vec![
                stage(2, 1),
                stage(1, 1),
                stage(3, 3),
                stage(3, 1),
                stage(1, 1)
            ],
            "the head (two left rows, one matching pair), χ of the positive chain, \
             then ⟕ σ Π of the negative"
        );
        assert_eq!((m.build_rows, m.reverify), (1, 0));
    }

    #[test]
    fn metrics_track_self_time_and_bypass_nodes() {
        let scan = int_rel("r", &["a"], &[&[1], &[2], &[3], &[4]]);
        let schema = scan.schema.clone();
        let bypass = PhysNode::bypass(
            scan,
            Stage::Filter(cmp(
                BinOp::Gt,
                PhysExpr::Column(0),
                PhysExpr::Literal(Value::Int(2)),
            )),
            schema.clone(),
            None,
            None,
        );
        let pos = PhysNode::new(
            PhysKind::Stream {
                source: bypass.clone(),
                positive: true,
            },
            schema.clone(),
        );
        let neg = PhysNode::new(
            PhysKind::Stream {
                source: bypass.clone(),
                positive: false,
            },
            schema.clone(),
        );
        let union = PhysNode::new(
            PhysKind::Union {
                inputs: vec![pos, neg],
                distinct: false,
            },
            schema,
        );
        let mut ctx = ExecContext::new(ExecOptions::default()).with_metrics();
        let out = ctx.eval_plan(&union).unwrap();
        assert_eq!(out.len(), 4);
        let metrics = ctx.take_metrics();
        let union_m = &metrics[&(Arc::as_ptr(&union) as usize)];
        assert_eq!(union_m.calls, 1);
        assert_eq!(union_m.rows, 4);
        assert!(union_m.self_nanos <= union_m.nanos, "self ⊆ inclusive");
        // The shared bypass operator is metered exactly once even with
        // two Stream consumers, and reports both streams' rows.
        let bypass_m = &metrics[&(Arc::as_ptr(&bypass) as usize)];
        assert_eq!(bypass_m.calls, 1);
        assert_eq!(bypass_m.rows, 4);
        assert!(bypass_m.total_ms() >= bypass_m.self_ms());
        // Dual-stream split counters: a > 2 on {1,2,3,4} → 2 pos, 2 neg.
        assert_eq!(bypass_m.pos_rows, 2);
        assert_eq!(bypass_m.neg_rows, 2);
        assert_eq!(bypass_m.split_ratio(), Some(0.5));
        assert_eq!(union_m.split_ratio(), None);
    }

    #[test]
    fn metrics_track_hash_build_and_output_rows() {
        let l = int_rel("l", &["a"], &[&[1], &[2], &[2], &[5]]);
        let r = int_rel("r", &["b"], &[&[2], &[2], &[5], &[7]]);
        let out_schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let join = join(l, r, hash_on(0, 0), out_schema);
        let mut ctx = ExecContext::new(ExecOptions::default()).with_metrics();
        let out = ctx.eval_plan(&join).unwrap();
        assert_eq!(out.len(), 5);
        let metrics = ctx.take_metrics();
        let m = &metrics[&(Arc::as_ptr(&join) as usize)];
        assert_eq!(m.build_rows, 4, "all four build rows have non-NULL keys");
        assert_eq!(m.rows, 5);
        assert_eq!(m.split_ratio(), None);
    }

    #[test]
    fn memo_counters_track_hits_and_misses() {
        // Correlated EXISTS with memo_correlated on: 4 outer rows over
        // 2 distinct correlation values → 2 misses + 2 hits.
        let outer = int_rel("o", &["a"], &[&[1], &[2], &[1], &[2]]);
        let inner = int_rel("i", &["b"], &[&[1], &[2]]);
        let sub = PhysNode::pipeline(
            inner,
            vec![Stage::Filter(PhysExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(PhysExpr::Column(0)),
                right: Box::new(PhysExpr::Outer { depth: 1, index: 0 }),
            })],
            Schema::new(vec![Field::new("b", DataType::Int)]),
        );
        let filter = PhysNode::pipeline(
            outer.clone(),
            vec![Stage::Filter(PhysExpr::Exists {
                negated: false,
                plan: sub,
                correlated: true,
                outer_keys: vec![0],
            })],
            outer.schema.clone(),
        );
        let mut ctx = ExecContext::new(ExecOptions {
            memo_correlated: true,
            ..Default::default()
        });
        let out = ctx.eval_plan(&filter).unwrap();
        assert_eq!(out.len(), 4);
        let c = ctx.counters();
        assert_eq!(c.memo_corr_misses, 2);
        assert_eq!(c.memo_corr_hits, 2);
        assert_eq!(c.memo_hit_rate(), Some(0.5));
        // With the memo off, neither counter moves.
        let mut ctx = ExecContext::new(ExecOptions {
            memo_correlated: false,
            ..Default::default()
        });
        ctx.eval_plan(&filter).unwrap();
        let c = ctx.counters();
        assert_eq!(c.memo_uncorr_hits + c.memo_uncorr_misses, 0);
        assert_eq!(c.memo_corr_hits + c.memo_corr_misses, 0);
        // The governor always accounts, memo or not.
        assert!(c.checkpoints > 0);
        assert!(c.peak_memory_bytes > 0);
    }

    #[test]
    fn zero_width_subqueries_error_instead_of_panicking() {
        // SQL can't produce a zero-column subquery, but a hand-built
        // physical plan can; the audit converted these from row[0]
        // panics to typed execution errors.
        let outer = int_rel("o", &["a"], &[&[1]]);
        let inner = int_rel("i", &["b"], &[&[1], &[2]]);
        // π_{}(i): a projection with no expressions → zero-width rows.
        let empty_proj =
            PhysNode::pipeline(inner, vec![Stage::Project(vec![])], Schema::new(vec![]));
        for predicate in [
            PhysExpr::InSubquery {
                negated: false,
                expr: Box::new(PhysExpr::Column(0)),
                plan: empty_proj.clone(),
                correlated: false,
                outer_keys: vec![],
            },
            PhysExpr::QuantifiedCmp {
                op: BinOp::Eq,
                all: false,
                expr: Box::new(PhysExpr::Column(0)),
                plan: empty_proj.clone(),
                correlated: false,
                outer_keys: vec![],
            },
        ] {
            let filter = PhysNode::pipeline(
                outer.clone(),
                vec![Stage::Filter(predicate)],
                outer.schema.clone(),
            );
            let err = ExecContext::new(ExecOptions::default())
                .eval_plan(&filter)
                .unwrap_err();
            assert!(err.to_string().contains("no column"), "{err}");
        }
    }

    #[test]
    fn timeout_fires() {
        // A 300×300×300 triple nested-loop with a tiny timeout.
        let a = int_rel(
            "a",
            &["x"],
            &(0..300)
                .map(|i| vec![i])
                .collect::<Vec<_>>()
                .iter()
                .map(|v| v.as_slice())
                .collect::<Vec<_>>(),
        );
        let b = a.clone();
        let schema2 = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("y", DataType::Int),
        ]);
        let j1 = join(a.clone(), b.clone(), JoinOn::Loop(None), schema2.clone());
        let schema3 = schema2.extended(Field::new("z", DataType::Int));
        let j2 = join(j1, a, JoinOn::Loop(None), schema3);
        let err = evaluate_with(
            &j2,
            ExecOptions {
                timeout: Some(Duration::from_millis(5)),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
        assert!(matches!(
            err,
            Error::ResourceExhausted {
                resource: ResourceKind::Time,
                ..
            }
        ));
    }

    #[test]
    fn nested_invocations_release_their_frames() {
        // A correlated EXISTS evaluated once per outer row: cumulative
        // charges would scale with the outer cardinality, the released
        // frames keep `used` at one invocation's footprint. We observe
        // this indirectly: peak memory with 4 outer rows must be well
        // under 4× the single-row peak.
        let peak_for = |outer_rows: &[&[i64]]| {
            let outer = int_rel("o", &["a"], outer_rows);
            let inner_rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i]).collect();
            let inner_slices: Vec<&[i64]> = inner_rows.iter().map(|v| v.as_slice()).collect();
            let inner = int_rel("i", &["b"], &inner_slices);
            let sub = PhysNode::pipeline(
                inner,
                vec![Stage::Filter(PhysExpr::Binary {
                    op: BinOp::Gt,
                    left: Box::new(PhysExpr::Column(0)),
                    right: Box::new(PhysExpr::Outer { depth: 1, index: 0 }),
                })],
                Schema::new(vec![Field::new("b", DataType::Int)]),
            );
            let filter = PhysNode::pipeline(
                outer.clone(),
                vec![Stage::Filter(PhysExpr::Exists {
                    negated: false,
                    plan: sub,
                    correlated: true,
                    outer_keys: vec![0],
                })],
                outer.schema.clone(),
            );
            let mut ctx = ExecContext::new(ExecOptions::default());
            ctx.eval_plan(&filter).unwrap();
            ctx.counters().peak_memory_bytes
        };
        let one = peak_for(&[&[1]]);
        let four = peak_for(&[&[1], &[2], &[3], &[4]]);
        assert!(
            four < one * 3,
            "nested frames must be released: 1-row peak {one}, 4-row peak {four}"
        );
    }
}
