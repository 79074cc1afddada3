use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bypass_algebra::{prune_columns, LogicalPlan};
use bypass_catalog::Catalog;
use bypass_exec::{
    physical_plan, ExecContext, ExecCounters, ExecOptions, NodeMetrics, PhysExpr, PhysNode,
};
use bypass_metrics::{ExecObservation, MetricsHub};
use bypass_sql::{parse_statement, Expr, SelectStmt, Statement};
use bypass_translate::{translate_query, Translator};
use bypass_types::{
    CancelToken, DataType, Error, Field, InjectedFault, Relation, Result, Schema, Tuple, Value,
};
use bypass_unnest::optimize_joins;

use crate::Strategy;

/// [`bypass_unnest::cost::StatsSource`] backed by the catalog's table
/// statistics.
struct CatalogStats<'a>(&'a Catalog);

impl bypass_unnest::cost::StatsSource for CatalogStats<'_> {
    fn table_rows(&self, table: &str) -> Option<f64> {
        self.0.get(table).ok().map(|t| t.row_count() as f64)
    }

    fn column_distinct(&self, table: &str, column: &str) -> Option<f64> {
        let t = self.0.get(table).ok()?;
        let idx = t.schema().find(None, column)?;
        t.stats().columns.get(idx).map(|c| c.distinct as f64)
    }
}

/// A query compiled once and executable many times: parsing,
/// translation, strategy rewrites and physical planning are all done
/// (the one compile pipeline every SQL-text entry point of [`Database`]
/// goes through); [`Prepared::execute`] only evaluates. The plan holds
/// `Arc`s to the table storage it was planned against, so it stays
/// valid (with that snapshot of the data) even if the database later
/// changes.
#[derive(Debug, Clone)]
pub struct Prepared {
    logical: Arc<LogicalPlan>,
    physical: Arc<PhysNode>,
    strategy: Strategy,
    fingerprint: u64,
    sql: String,
    /// Every candidate's cost estimate when the query was compiled
    /// under [`Strategy::CostBased`]; empty otherwise.
    estimates: Vec<(Strategy, f64)>,
    /// Compile-phase wall times (`execute` is 0). They were spent once,
    /// so the first run reports them and later runs report zeros.
    compile: PhaseNanos,
    compile_reported: Arc<AtomicBool>,
    hub: Arc<MetricsHub>,
}

/// What one run of a compiled plan produced.
struct RunOutput {
    rel: Relation,
    counters: ExecCounters,
    /// Per-operator metrics; empty unless the run was instrumented.
    metrics: HashMap<usize, NodeMetrics>,
    phases: PhaseNanos,
}

impl Prepared {
    /// Run the compiled plan.
    pub fn execute(&self) -> Result<Relation> {
        self.execute_governed(&RunLimits::default())
            .map(|(rel, _)| rel)
    }

    /// Run the compiled plan under explicit [`RunLimits`], returning
    /// the result together with the run's execution counters (memo
    /// totals, peak governed memory, checkpoint count). Limits apply to
    /// this run only; a timed-out or cancelled `Prepared` can be
    /// re-executed (each run gets a fresh `ExecContext`, so no memo or
    /// metric residue survives a failed run).
    pub fn execute_governed(&self, limits: &RunLimits) -> Result<(Relation, ExecCounters)> {
        let out = self.run(limits, false)?;
        Ok((out.rel, out.counters))
    }

    /// The one execution path: overlay `limits` on the strategy's
    /// options, evaluate under the `execute` span (the context's
    /// teardown included) and record the run into the metrics hub.
    /// `instrumented` additionally collects per-operator metrics.
    fn run(&self, limits: &RunLimits, instrumented: bool) -> Result<RunOutput> {
        let mut options = self.strategy.exec_options();
        limits.apply(&mut options);
        let mut span = bypass_trace::span("execute");
        if span.is_recording() {
            span.arg("strategy", self.strategy.to_string());
            span.arg(
                "fingerprint",
                bypass_metrics::format_fingerprint(self.fingerprint),
            );
        }
        let t = Instant::now();
        let (rel, counters, metrics) = {
            let mut ctx = ExecContext::new(options);
            if instrumented {
                ctx = ctx.with_metrics();
            }
            let rel = ctx.eval_plan(&self.physical)?;
            (rel, ctx.counters(), ctx.take_metrics())
        };
        let mut phases = if self.compile_reported.swap(true, Ordering::Relaxed) {
            PhaseNanos::default()
        } else {
            self.compile
        };
        phases.execute = t.elapsed().as_nanos();
        drop(span);
        let memo_hits = counters.memo_uncorr_hits + counters.memo_corr_hits;
        let memo_misses = counters.memo_uncorr_misses + counters.memo_corr_misses;
        if bypass_trace::enabled() {
            bypass_trace::counter("memo_hits", memo_hits);
            bypass_trace::counter("memo_misses", memo_misses);
        }
        let clamp = |n: u128| u64::try_from(n).unwrap_or(u64::MAX);
        self.hub.record_execution(&ExecObservation {
            fingerprint: self.fingerprint,
            sql: self.sql.clone(),
            strategy: self.strategy.to_string(),
            total_nanos: clamp(phases.total()),
            phases_nanos: Some(
                [
                    phases.parse,
                    phases.translate,
                    phases.unnest,
                    phases.optimize,
                    phases.execute,
                ]
                .map(clamp),
            ),
            rows: rel.len() as u64,
            peak_memory_bytes: counters.peak_memory_bytes,
            checkpoints: counters.checkpoints,
            memo_hits,
            memo_misses,
            disjunct_evals: counters.disjunct_evals,
            disjunct_hits: counters.disjunct_hits,
        });
        Ok(RunOutput {
            rel,
            counters,
            metrics,
            phases,
        })
    }

    /// An instrumented run packaged as a [`QueryProfile`].
    fn profile(self, limits: &RunLimits) -> Result<QueryProfile> {
        let out = self.run(limits, true)?;
        Ok(QueryProfile {
            strategy: self.strategy,
            fingerprint: self.fingerprint,
            physical: self.physical,
            metrics: out.metrics,
            counters: out.counters,
            phases: out.phases,
            rows: out.rel.len(),
        })
    }

    /// The EXPLAIN text: the cost-based candidates (if the choice was
    /// made here), the strategy-rewritten logical plan and the physical
    /// operator tree.
    fn explain(&self) -> String {
        let mut out = String::new();
        if !self.estimates.is_empty() {
            out.push_str("-- cost-based choice:\n");
            for (s, cost) in &self.estimates {
                let mark = if *s == self.strategy {
                    "  <- chosen"
                } else {
                    ""
                };
                out.push_str(&format!("--   {s}: {cost:.0}{mark}\n"));
            }
        }
        out.push_str(&format!(
            "-- logical plan ({})\n{}\n-- physical plan\n{}",
            self.strategy,
            self.logical.explain(),
            self.physical.explain()
        ));
        out
    }

    /// The concrete strategy the query was compiled under (CostBased is
    /// resolved at preparation time).
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The normalized-AST fingerprint of the compiled query (the key
    /// this plan's executions are aggregated under in the metrics hub).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The logical plan the physical one was compiled from — rewritten
    /// and pruned; its root's schema names the result's columns.
    pub fn logical_plan(&self) -> &Arc<LogicalPlan> {
        &self.logical
    }
}

/// Per-run resource-governance overrides layered on top of a strategy's
/// baseline [`ExecOptions`]. Every field defaults to "no override", so
/// `RunLimits::default()` reproduces the plain run.
#[derive(Debug, Clone, Default)]
pub struct RunLimits {
    /// Wall-clock deadline for this run.
    pub timeout: Option<Duration>,
    /// Byte-accurate memory budget (deterministic byte model; see
    /// DESIGN.md §5f).
    pub max_memory_bytes: Option<u64>,
    /// Cooperative cancellation token polled at every governor
    /// checkpoint.
    pub cancel: Option<CancelToken>,
    /// Worker-pool width for morsel-driven intra-query parallelism
    /// (overrides `BYPASS_THREADS` / the detected core count; `1`
    /// forces serial execution).
    pub threads: Option<usize>,
    /// The morsel fork gate in work units (`ExecOptions::morsel_rows`):
    /// an operator loop whose estimated work exceeds it fans out. Tests
    /// force it small to exercise the parallel paths on tiny relations.
    pub morsel_rows: Option<usize>,
    /// Deterministic fault injection (testing): fail at exactly this
    /// governor checkpoint.
    pub fault: Option<InjectedFault>,
    /// Chunk length of the σ/σ±/column-Π loops (default 256, clamped
    /// to ≥ 1). A test handle: results, errors, counters and byte
    /// accounting are identical at every value (DESIGN.md §8).
    pub batch_rows: Option<usize>,
}

impl RunLimits {
    /// Overlay these limits onto a strategy's baseline options.
    fn apply(&self, options: &mut ExecOptions) {
        if self.timeout.is_some() {
            options.timeout = self.timeout;
        }
        if self.max_memory_bytes.is_some() {
            options.max_memory_bytes = self.max_memory_bytes;
        }
        if self.cancel.is_some() {
            options.cancel = self.cancel.clone();
        }
        if self.fault.is_some() {
            options.fault = self.fault;
        }
        if let Some(t) = self.threads {
            options.threads = t;
        }
        if let Some(m) = self.morsel_rows {
            options.morsel_rows = m;
        }
        if let Some(b) = self.batch_rows {
            options.batch_rows = b;
        }
    }
}

/// Result of [`Database::execute_sql`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A query result.
    Rows(Relation),
    /// `CREATE TABLE` succeeded.
    Created,
    /// `INSERT` succeeded with this many rows.
    Inserted(usize),
    /// `EXPLAIN [ANALYZE]` — the rendered report.
    Explained(String),
    /// `SHOW METRICS` — the registry snapshot in the Prometheus text
    /// exposition format.
    Metrics(String),
}

impl Response {
    /// The relation of a `Rows` response; errors otherwise.
    pub fn into_rows(self) -> Result<Relation> {
        match self {
            Response::Rows(r) => Ok(r),
            other => Err(Error::execution(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }

    /// The report text of an `Explained` or `Metrics` response; errors
    /// otherwise.
    pub fn into_text(self) -> Result<String> {
        match self {
            Response::Explained(s) | Response::Metrics(s) => Ok(s),
            other => Err(Error::execution(format!(
                "statement did not produce a report: {other:?}"
            ))),
        }
    }
}

/// Wall time spent in each pipeline phase of one profiled query run
/// (nanoseconds). The same boundaries are traced as `bypass-trace`
/// spans when tracing is enabled, so a Chrome trace and an
/// EXPLAIN ANALYZE report agree on where time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// SQL text → AST.
    pub parse: u128,
    /// AST → canonical nested algebra.
    pub translate: u128,
    /// Strategy nesting rewrites (Eqv. 1–5 / OR→UNION / reordering).
    pub unnest: u128,
    /// Join optimization, column pruning + physical planning.
    pub optimize: u128,
    /// Plan evaluation.
    pub execute: u128,
}

impl PhaseNanos {
    pub fn total(&self) -> u128 {
        self.parse + self.translate + self.unnest + self.optimize + self.execute
    }

    /// One-line rendering in milliseconds.
    pub fn render(&self) -> String {
        let ms = |n: u128| n as f64 / 1e6;
        format!(
            "parse={:.3}ms translate={:.3}ms unnest={:.3}ms optimize={:.3}ms \
             execute={:.3}ms total={:.3}ms",
            ms(self.parse),
            ms(self.translate),
            ms(self.unnest),
            ms(self.optimize),
            ms(self.execute),
            ms(self.total())
        )
    }
}

/// Everything one instrumented query run produced: the physical plan,
/// per-operator metrics (keyed by `Arc::as_ptr(node) as usize`),
/// query-wide execution counters, per-phase wall times and the output
/// cardinality. Produced by [`Database::profile`]; rendered by
/// [`QueryProfile::render`] (the EXPLAIN ANALYZE report).
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// The concrete strategy the run executed under (CostBased
    /// resolved).
    pub strategy: Strategy,
    /// Normalized-AST query fingerprint (see `bypass_sql::fingerprint`)
    /// — the key this run is aggregated under in the metrics hub.
    pub fingerprint: u64,
    pub physical: Arc<PhysNode>,
    pub metrics: HashMap<usize, NodeMetrics>,
    pub counters: ExecCounters,
    pub phases: PhaseNanos,
    /// Output row count.
    pub rows: usize,
}

impl QueryProfile {
    /// Sum the dual-stream counters over every bypass operator in the
    /// plan: `(bypass node count, positive rows, negative rows)`.
    pub fn bypass_totals(&self) -> (usize, u64, u64) {
        let (mut nodes, mut pos, mut neg) = (0usize, 0u64, 0u64);
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![&self.physical];
        while let Some(n) = stack.pop() {
            if !seen.insert(Arc::as_ptr(n)) {
                continue;
            }
            if n.is_bypass() {
                nodes += 1;
                if let Some(m) = self.metrics.get(&(Arc::as_ptr(n) as usize)) {
                    pos += m.pos_rows;
                    neg += m.neg_rows;
                }
            }
            stack.extend(n.children());
            stack.extend(n.expr_subplans());
        }
        (nodes, pos, neg)
    }

    /// The full EXPLAIN ANALYZE report: phase timings, the metric-
    /// annotated operator tree (with per-bypass-node positive/negative
    /// stream counts) and the query-wide counter footer.
    pub fn render(&self) -> String {
        let mut out = format!(
            "-- EXPLAIN ANALYZE ({}), {} output rows\n-- fingerprint: {}\n-- phases: {}\n{}",
            self.strategy,
            self.rows,
            bypass_metrics::format_fingerprint(self.fingerprint),
            self.phases.render(),
            self.physical.explain_with_metrics(&self.metrics)
        );
        let (nodes, pos, neg) = self.bypass_totals();
        if nodes > 0 {
            let split = match pos + neg {
                0 => "-".to_string(),
                total => format!("{:.1}%", neg as f64 / total as f64 * 100.0),
            };
            out.push_str(&format!(
                "-- bypass: {nodes} node(s), pos={pos} neg={neg} split={split}\n"
            ));
        }
        let c = &self.counters;
        let rate = c
            .memo_hit_rate()
            .map(|r| format!("{:.1}%", r * 100.0))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "-- memo: uncorrelated {} hit / {} miss, correlated {} hit / {} miss, \
             hit rate {rate}\n",
            c.memo_uncorr_hits, c.memo_uncorr_misses, c.memo_corr_hits, c.memo_corr_misses
        ));
        out.push_str(&format!(
            "-- governor: peak_memory={} bytes, checkpoints={}\n",
            c.peak_memory_bytes, c.checkpoints
        ));
        out.push_str(&format!(
            "-- teardown={:.3}ms\n",
            self.teardown_nanos() as f64 / 1e6
        ));
        out
    }

    /// The part of the execute phase no operator accounts for: what ran
    /// after the root operator returned — freeing the memoized bypass
    /// streams, subquery caches and batch scratch the run left behind.
    pub fn teardown_nanos(&self) -> u128 {
        let root = self
            .metrics
            .get(&(Arc::as_ptr(&self.physical) as usize))
            .map_or(0, |m| m.nanos);
        self.phases.execute.saturating_sub(root)
    }
}

/// An in-memory database: catalog + SQL pipeline.
///
/// ```
/// use bypass_core::{Database, Strategy};
///
/// let mut db = Database::new();
/// db.execute_sql("CREATE TABLE r (a1 INT, a4 INT)").unwrap();
/// db.execute_sql("INSERT INTO r VALUES (1, 2000), (2, 10)").unwrap();
/// let out = db.sql("SELECT a1 FROM r WHERE a4 > 1500").unwrap();
/// assert_eq!(out.len(), 1);
///
/// // The same query under every strategy of the evaluation study:
/// for s in Strategy::all() {
///     let r = db.sql_with("SELECT a1 FROM r WHERE a4 > 1500", s, None).unwrap();
///     assert_eq!(r.len(), 1);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    default_strategy: Strategy,
    metrics: Arc<MetricsHub>,
    max_statement_bytes: usize,
}

/// Default cap on the byte length of one SQL statement. Oversized
/// text is rejected with [`Error::StatementTooLarge`] *before* any
/// lexing, so a hostile or runaway client cannot buy unbounded parse
/// work with one giant string. Sessions opened through
/// `bypass-service` can only tighten this engine-level cap.
pub const DEFAULT_MAX_STATEMENT_BYTES: usize = 64 * 1024;

impl Default for Database {
    fn default() -> Database {
        Database {
            catalog: Catalog::default(),
            default_strategy: Strategy::default(),
            metrics: MetricsHub::global(),
            max_statement_bytes: DEFAULT_MAX_STATEMENT_BYTES,
        }
    }
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Use `strategy` for [`Database::sql`] calls.
    pub fn with_default_strategy(mut self, strategy: Strategy) -> Database {
        self.default_strategy = strategy;
        self
    }

    /// Cap the byte length of a single SQL statement (default
    /// [`DEFAULT_MAX_STATEMENT_BYTES`]). Longer text fails with
    /// [`Error::StatementTooLarge`] before any parse work.
    pub fn with_statement_cap(mut self, max_statement_bytes: usize) -> Database {
        self.max_statement_bytes = max_statement_bytes;
        self
    }

    /// The engine-level statement-size cap in bytes.
    pub fn statement_cap(&self) -> usize {
        self.max_statement_bytes
    }

    /// Reject oversized SQL text with a typed error — called before
    /// every `parse_statement`.
    fn check_statement_size(&self, sql: &str) -> Result<()> {
        if sql.len() > self.max_statement_bytes {
            return Err(Error::StatementTooLarge {
                bytes: sql.len() as u64,
                limit: self.max_statement_bytes as u64,
            });
        }
        Ok(())
    }

    /// Record into `hub` instead of the process-global
    /// [`MetricsHub::global`] — isolated hubs are what make metrics
    /// assertions independent of whatever else the process ran.
    pub fn with_metrics_hub(mut self, hub: Arc<MetricsHub>) -> Database {
        self.metrics = hub;
        self
    }

    /// The hub this database records executions into.
    pub fn metrics_hub(&self) -> &Arc<MetricsHub> {
        &self.metrics
    }

    /// One consistent snapshot of the always-on metrics registry,
    /// including the synthesized per-fingerprint series and, read off
    /// the catalog now, `bypass_catalog_column_bytes`.
    pub fn metrics(&self) -> bypass_metrics::Snapshot {
        self.metrics
            .observe_catalog_column_bytes(self.catalog.column_bytes());
        self.metrics.snapshot()
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (bulk registration by the data
    /// generators' `register` helpers).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Register a pre-built relation as a table.
    pub fn register_table(&mut self, name: impl AsRef<str>, data: Relation) -> Result<()> {
        self.catalog.register(name, data)
    }

    /// Execute any supported statement. Queries and `EXPLAIN`s go
    /// through the same compile → run pipeline as every other entry
    /// point, under the default strategy.
    pub fn execute_sql(&mut self, sql: &str) -> Result<Response> {
        self.check_statement_size(sql)?;
        let t0 = Instant::now();
        let stmt = parse_statement(sql)?;
        let parse_nanos = t0.elapsed().as_nanos();
        let (strategy, limits) = (self.default_strategy, RunLimits::default());
        match stmt {
            Statement::Query(q) => {
                let prepared = self.compile_query(sql, &q, strategy, parse_nanos)?;
                Ok(Response::Rows(prepared.execute_governed(&limits)?.0))
            }
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(columns.iter().map(|(n, t)| Field::new(n, *t)).collect());
                self.catalog.register(&name, Relation::empty(schema))?;
                Ok(Response::Created)
            }
            Statement::Insert { table, rows } => {
                let n = self.insert(&table, rows)?;
                Ok(Response::Inserted(n))
            }
            Statement::Explain { analyze, query } => {
                let prepared = self.compile_query(sql, &query, strategy, parse_nanos)?;
                Ok(Response::Explained(if analyze {
                    prepared.profile(&limits)?.render()
                } else {
                    prepared.explain()
                }))
            }
            Statement::ShowMetrics => Ok(Response::Metrics(bypass_metrics::render_prometheus(
                &self.metrics(),
            ))),
        }
    }

    /// Run a `SELECT` with the default strategy.
    pub fn sql(&self, sql: &str) -> Result<Relation> {
        self.sql_with(sql, self.default_strategy, None)
    }

    /// Run a `SELECT` with an explicit strategy and optional timeout.
    pub fn sql_with(
        &self,
        sql: &str,
        strategy: Strategy,
        timeout: Option<Duration>,
    ) -> Result<Relation> {
        self.run_governed(
            sql,
            strategy,
            &RunLimits {
                timeout,
                ..Default::default()
            },
        )
        .map(|(rel, _)| rel)
    }

    /// The canonical logical plan of a query (before strategy rewrites).
    pub fn logical_plan(&self, sql: &str) -> Result<Arc<LogicalPlan>> {
        self.check_statement_size(sql)?;
        match parse_statement(sql)? {
            Statement::Query(q) => translate_query(&self.catalog, &q),
            _ => Err(Error::plan("not a SELECT statement")),
        }
    }

    /// Run a `SELECT` under explicit [`RunLimits`] (deadline, memory
    /// budget, cancel token, injected fault), returning the result and
    /// the run's [`ExecCounters`] — including the governor's
    /// deterministic peak-memory and checkpoint totals.
    ///
    /// A cancel token makes the run cooperative: calling
    /// `cancel.cancel()` from any thread makes it return
    /// [`Error::Cancelled`](bypass_types::Error::Cancelled) at its next
    /// governor checkpoint; the database stays fully usable afterwards.
    ///
    /// ```
    /// use bypass_core::{Database, RunLimits, Strategy};
    /// use bypass_types::CancelToken;
    /// let mut db = Database::new();
    /// db.execute_sql("CREATE TABLE t (x INT)").unwrap();
    /// db.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
    /// let token = CancelToken::new();
    /// let limits = RunLimits {
    ///     cancel: Some(token.clone()),
    ///     ..Default::default()
    /// };
    /// token.cancel(); // cancel before the run
    /// let err = db
    ///     .run_governed("SELECT x FROM t", Strategy::Canonical, &limits)
    ///     .unwrap_err();
    /// assert_eq!(err, bypass_types::Error::Cancelled);
    /// token.reset();
    /// let (rows, _counters) = db
    ///     .run_governed("SELECT x FROM t", Strategy::Canonical, &limits)
    ///     .unwrap();
    /// assert_eq!(rows.len(), 2);
    /// ```
    pub fn run_governed(
        &self,
        sql: &str,
        strategy: Strategy,
        limits: &RunLimits,
    ) -> Result<(Relation, ExecCounters)> {
        self.compile(sql, strategy, false)?.execute_governed(limits)
    }

    /// Compile a `SELECT` once for repeated execution.
    ///
    /// ```
    /// use bypass_core::{Database, Strategy};
    /// let mut db = Database::new();
    /// db.execute_sql("CREATE TABLE t (x INT)").unwrap();
    /// db.execute_sql("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    /// let q = db.prepare("SELECT x FROM t WHERE x > 1", Strategy::Unnested).unwrap();
    /// assert_eq!(q.execute().unwrap().len(), 2);
    /// assert_eq!(q.execute().unwrap().len(), 2); // no re-planning
    /// ```
    pub fn prepare(&self, sql: &str, strategy: Strategy) -> Result<Prepared> {
        self.compile(sql, strategy, false)
    }

    /// EXPLAIN: the strategy-rewritten logical plan followed by the
    /// physical operator tree. For [`Strategy::CostBased`], the chosen
    /// strategy and all candidate cost estimates are reported.
    pub fn explain(&self, sql: &str, strategy: Strategy) -> Result<String> {
        Ok(self.compile(sql, strategy, true)?.explain())
    }

    /// EXPLAIN ANALYZE: execute the query with full instrumentation
    /// and render phase timings, the metric-annotated physical plan
    /// (per-bypass-node positive/negative stream counts included) and
    /// the query-wide counter footer. Operators inside a correlated
    /// subplan show `calls > 1` — the visible signature of nested-loop
    /// evaluation that unnesting removes.
    pub fn explain_analyze(&self, sql: &str, strategy: Strategy) -> Result<String> {
        Ok(self.profile(sql, strategy)?.render())
    }

    /// Execute with full instrumentation and return the raw
    /// [`QueryProfile`]: physical plan, per-operator metrics,
    /// query-wide counters, phase timings and output cardinality.
    /// [`QueryProfile::render`] produces the EXPLAIN ANALYZE report.
    pub fn profile(&self, sql: &str, strategy: Strategy) -> Result<QueryProfile> {
        self.profile_governed(sql, strategy, &RunLimits::default())
    }

    /// [`Database::profile`] with per-run [`RunLimits`] overlaid on the
    /// strategy's execution options — the entry point the
    /// worker-count-independence tests use to force a thread count and
    /// morsel size and compare the resulting profiles.
    pub fn profile_governed(
        &self,
        sql: &str,
        strategy: Strategy,
        limits: &RunLimits,
    ) -> Result<QueryProfile> {
        self.compile(sql, strategy, true)?.profile(limits)
    }

    /// The SELECT-only front door of the compile pipeline: size cap,
    /// one parse, then [`Database::compile_query`]. `describe` entry
    /// points (EXPLAIN, profile) also accept `EXPLAIN`-wrapped text and
    /// compile the query inside.
    fn compile(&self, sql: &str, strategy: Strategy, describe: bool) -> Result<Prepared> {
        self.check_statement_size(sql)?;
        let t0 = Instant::now();
        let query = match parse_statement(sql)? {
            Statement::Query(q) => q,
            Statement::Explain { query, .. } if describe => query,
            _ => return Err(Error::plan("not a SELECT statement")),
        };
        self.compile_query(sql, &query, strategy, t0.elapsed().as_nanos())
    }

    /// The one compile pipeline: fingerprint → translate → resolve the
    /// strategy and rewrite the nesting → order joins → prune columns →
    /// physical plan.
    /// Each phase is timed once and wrapped in one `bypass-trace` span
    /// (`translate`, `unnest`, `optimize`; `sql.parse` is emitted by the
    /// SQL crate around `parse_statement`), so a Chrome trace, an
    /// EXPLAIN ANALYZE report and `bypass_phase_nanos` agree on where
    /// time went whichever entry point compiled the statement. The
    /// cost-based choice is part of `unnest`: it rewrites and
    /// join-orders every candidate, and the winner's plan is kept, not
    /// prepared again. Only the chosen strategy's unnest outcomes are
    /// booked.
    fn compile_query(
        &self,
        sql: &str,
        query: &SelectStmt,
        strategy: Strategy,
        parse_nanos: u128,
    ) -> Result<Prepared> {
        let mut compile = PhaseNanos {
            parse: parse_nanos,
            ..Default::default()
        };
        let t = Instant::now();
        let fingerprint = bypass_sql::fingerprint(query);
        let canonical = {
            let _s = bypass_trace::span("translate");
            translate_query(&self.catalog, query)?
        };
        compile.translate = t.elapsed().as_nanos();
        let t = Instant::now();
        let rewritten = {
            let mut s = bypass_trace::span("unnest");
            let rewritten = strategy.rewrite(&canonical, &CatalogStats(&self.catalog))?;
            if s.is_recording() {
                s.arg("strategy", rewritten.strategy.to_string());
            }
            rewritten
        };
        self.metrics.record_unnest_outcomes(&rewritten.outcomes);
        compile.unnest = t.elapsed().as_nanos();
        let t = Instant::now();
        let (logical, physical) = {
            let _s = bypass_trace::span("optimize");
            let ordered = if rewritten.joins_ordered {
                rewritten.plan
            } else {
                optimize_joins(&rewritten.plan)
            };
            let logical = prune_columns(&ordered);
            let physical = physical_plan(&logical, &self.catalog)?;
            (logical, physical)
        };
        compile.optimize = t.elapsed().as_nanos();
        Ok(Prepared {
            logical,
            physical,
            strategy: rewritten.strategy,
            fingerprint,
            sql: sql.to_string(),
            estimates: rewritten.estimates,
            compile,
            compile_reported: Arc::new(AtomicBool::new(false)),
            hub: Arc::clone(&self.metrics),
        })
    }

    fn insert(&mut self, table: &str, rows: Vec<Vec<Expr>>) -> Result<usize> {
        // Evaluate the literal expressions against an empty tuple.
        let translator = Translator::new(&self.catalog);
        let empty_schema = Schema::empty();
        let mut resolver_catalog = Catalog::new();
        let mut evaluated: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        let mut ctx = ExecContext::new(ExecOptions::default());
        for row in &rows {
            let mut vals = Vec::with_capacity(row.len());
            for e in row {
                let scalar = translator.expr(e)?;
                let phys = resolve_constant(&scalar, &empty_schema, &mut resolver_catalog)?;
                vals.push(ctx.eval_expr(&phys, &Tuple::empty())?);
            }
            evaluated.push(vals);
        }

        let table = self.catalog.get_mut(table)?;
        let schema = table.schema().clone();
        let mut new_rows: Vec<Tuple> = table.data().rows().to_vec();
        for vals in evaluated {
            if vals.len() != schema.arity() {
                return Err(Error::plan(format!(
                    "INSERT row arity {} does not match table arity {}",
                    vals.len(),
                    schema.arity()
                )));
            }
            let coerced: Vec<Value> = vals
                .into_iter()
                .zip(schema.fields())
                .map(|(v, f)| coerce(v, f))
                .collect::<Result<_>>()?;
            new_rows.push(Tuple::new(coerced));
        }
        let n = rows.len();
        table.replace_data(Relation::new(schema, new_rows));
        Ok(n)
    }
}

/// Resolve a constant expression (INSERT values): no columns, no
/// subqueries.
fn resolve_constant(
    scalar: &bypass_algebra::Scalar,
    schema: &Schema,
    catalog: &mut Catalog,
) -> Result<PhysExpr> {
    if scalar.contains_subquery() || !scalar.column_refs().is_empty() {
        return Err(Error::plan(
            "INSERT values must be constant expressions".to_string(),
        ));
    }
    let mut resolver = bypass_exec::Resolver::new(catalog);
    resolver.resolve(scalar, schema)
}

fn coerce(v: Value, f: &Field) -> Result<Value> {
    match (&v, f.data_type()) {
        (Value::Null, _) => Ok(v),
        (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
        _ if v.data_type() == f.data_type() => Ok(v),
        _ => Err(Error::plan(format!(
            "value {v} ({}) is not assignable to column `{}` ({})",
            v.data_type(),
            f.name(),
            f.data_type()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE r (a1 INT, a2 INT, a3 INT, a4 INT)")
            .unwrap();
        db.execute_sql("INSERT INTO r VALUES (2, 10, 1, 100), (0, 11, 2, 2000), (1, 12, 3, 1501)")
            .unwrap();
        db.execute_sql("CREATE TABLE s (b1 INT, b2 INT, b3 INT, b4 INT)")
            .unwrap();
        db.execute_sql("INSERT INTO s VALUES (1, 10, 7, 1600), (2, 10, 7, 10), (3, 12, 8, 20)")
            .unwrap();
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let db = db();
        let out = db.sql("SELECT a1 FROM r WHERE a4 > 1500").unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn all_strategies_agree_on_q1() {
        let db = db();
        let q = "SELECT DISTINCT * FROM r \
                 WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500";
        let expected = db.sql_with(q, Strategy::Canonical, None).unwrap();
        assert_eq!(expected.len(), 3);
        for s in Strategy::all() {
            let got = db.sql_with(q, s, None).unwrap();
            assert!(got.bag_eq(&expected), "strategy {s} differs");
        }
    }

    #[test]
    fn statement_cap_rejects_before_parse() {
        let mut db = db().with_statement_cap(256);
        // Under the cap: runs normally.
        assert!(db.sql("SELECT a1 FROM r").is_ok());
        // Over the cap: typed rejection on every SQL-text entry point,
        // with a garbage payload proving the parser never saw the text.
        let big = format!("SELECT a1 FROM r -- {}", "\u{0} garbage ".repeat(64));
        assert!(big.len() > 256);
        let expect = |r: Result<(), Error>| match r {
            Err(Error::StatementTooLarge { bytes, limit }) => {
                assert_eq!(bytes, big.len() as u64);
                assert_eq!(limit, 256);
            }
            other => panic!("expected StatementTooLarge, got {other:?}"),
        };
        let limits = RunLimits::default();
        expect(db.sql(&big).map(drop));
        expect(db.sql_with(&big, Strategy::Unnested, None).map(drop));
        expect(db.run_governed(&big, Strategy::Unnested, &limits).map(drop));
        expect(db.prepare(&big, Strategy::Unnested).map(drop));
        expect(db.explain(&big, Strategy::Unnested).map(drop));
        expect(db.explain_analyze(&big, Strategy::Unnested).map(drop));
        expect(db.profile(&big, Strategy::Unnested).map(drop));
        expect(
            db.profile_governed(&big, Strategy::Unnested, &limits)
                .map(drop),
        );
        expect(db.logical_plan(&big).map(drop));
        expect(db.execute_sql(&big).map(drop));
        // The database stays fully usable afterwards.
        assert_eq!(db.sql("SELECT a1 FROM r").unwrap().len(), 3);
        assert_eq!(db.statement_cap(), 256);
        assert_eq!(Database::new().statement_cap(), DEFAULT_MAX_STATEMENT_BYTES);
    }

    #[test]
    fn insert_arity_and_type_checks() {
        let mut db = db();
        let err = db
            .execute_sql("INSERT INTO r VALUES (1, 2, 3)")
            .unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
        let err = db
            .execute_sql("INSERT INTO r VALUES ('x', 2, 3, 4)")
            .unwrap_err();
        assert!(err.to_string().contains("not assignable"), "{err}");
    }

    #[test]
    fn insert_constant_arithmetic_and_null() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (x INT, y FLOAT)").unwrap();
        db.execute_sql("INSERT INTO t VALUES (1 + 2 * 3, NULL)")
            .unwrap();
        let out = db.sql("SELECT x, y FROM t").unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(7));
        assert!(out.rows()[0][1].is_null());
    }

    #[test]
    fn explain_shows_both_plans() {
        let db = db();
        let text = db
            .explain(
                "SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500",
                Strategy::Unnested,
            )
            .unwrap();
        assert!(text.contains("-- logical plan (unnested)"), "{text}");
        assert!(text.contains("-- physical plan"), "{text}");
        assert!(text.contains("HashOuterJoin"), "{text}");
    }

    #[test]
    fn timeout_propagates() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE big (x INT)").unwrap();
        let values: Vec<String> = (0..400).map(|i| format!("({i})")).collect();
        db.execute_sql(&format!("INSERT INTO big VALUES {}", values.join(",")))
            .unwrap();
        let err = db
            .sql_with(
                "SELECT * FROM big a, big b, big c WHERE a.x <> b.x AND b.x <> c.x",
                Strategy::Canonical,
                Some(Duration::from_millis(1)),
            )
            .unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    #[test]
    fn response_into_rows() {
        let mut db = Database::new();
        let r = db.execute_sql("CREATE TABLE t (x INT)").unwrap();
        assert_eq!(r, Response::Created);
        assert!(r.into_rows().is_err());
        let r = db.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(r, Response::Inserted(1));
    }

    #[test]
    fn explain_analyze_shows_calls_and_rows() {
        let db = db();
        let q = "SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 5000";
        // Canonical: the subplan runs once per probed outer tuple.
        let text = db.explain_analyze(q, Strategy::Canonical).unwrap();
        assert!(text.contains("calls="), "{text}");
        assert!(text.contains("output rows"), "{text}");
        // The inner aggregate executes more than once (nested loop).
        let nested_calls = text
            .lines()
            .filter(|l| l.contains("HashAggregate"))
            .any(|l| !l.contains("calls=1 "));
        assert!(nested_calls, "expected repeated subplan calls:\n{text}");
        // Unnested: every operator runs exactly once.
        let text = db.explain_analyze(q, Strategy::Unnested).unwrap();
        assert!(
            text.lines()
                .filter(|l| l.contains("calls="))
                .all(|l| l.contains("calls=1 ")),
            "bypass plan runs each operator once:\n{text}"
        );
    }

    #[test]
    fn prepared_queries_survive_and_snapshot() {
        let mut db = db();
        let q = db
            .prepare(
                "SELECT a1 FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500",
                Strategy::CostBased,
            )
            .unwrap();
        // CostBased resolved at prepare time.
        assert_ne!(q.strategy(), Strategy::CostBased);
        let first = q.execute().unwrap();
        // The prepared plan snapshots the data: inserting afterwards
        // does not change its result...
        db.execute_sql("INSERT INTO r VALUES (9, 9, 9, 9000)")
            .unwrap();
        let second = q.execute().unwrap();
        assert!(first.bag_eq(&second));
        // ...while a fresh query sees the new row.
        let fresh = db
            .sql("SELECT a1 FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500")
            .unwrap();
        assert_eq!(fresh.len(), first.len() + 1);
    }

    #[test]
    fn default_strategy_is_unnested() {
        let db = db().with_default_strategy(Strategy::Canonical);
        assert_eq!(db.default_strategy, Strategy::Canonical);
        assert_eq!(Database::new().default_strategy, Strategy::Unnested);
    }
}
