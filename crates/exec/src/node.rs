use std::sync::Arc;

use bypass_catalog::TableColumns;
use bypass_types::{Schema, SortKey, Value};

use crate::agg::AggSpec;
use crate::expr::PhysExpr;
use crate::vector::{compile_chain, CompiledChain};

/// A physical plan node: an operator kind plus the schema of its rows.
/// Children are `Arc`-shared; bypass operators are shared by two
/// [`PhysKind::Stream`] consumers, exactly mirroring the logical DAG.
#[derive(Debug)]
pub struct PhysNode {
    pub kind: PhysKind,
    /// The arity and types of the rows. Names are the planner's: only a
    /// plan's root carries the names a caller sees (a scan's are its
    /// table's, which a renamed root scan hands on under the root's).
    pub schema: Schema,
    /// A pipeline headed by a σ (a σ± among them) only: the predicate as
    /// a chain of terms in planned order (`vector.rs`) — a function of
    /// the predicate and the input's arity, so compiled here, once per
    /// plan, and read by every context and worker that runs the node.
    chain: Option<CompiledChain>,
    /// The planner saw more than one consumer of this node in its query
    /// block: an evaluation of the block runs it once and hands every
    /// consumer the same relation (`eval.rs`, as a bypass operator's two
    /// streams always were).
    pub(crate) shared: bool,
}

impl PhysNode {
    pub fn new(kind: PhysKind, schema: Schema) -> Arc<PhysNode> {
        let predicate = match &kind {
            PhysKind::Pipeline { input, chain, .. } => match chain.stages.first() {
                Some(Stage::Filter(predicate)) => Some((input, predicate)),
                _ => None,
            },
            _ => None,
        };
        let chain = predicate.map(|(input, p)| compile_chain(p, input.schema.arity()));
        Arc::new(PhysNode {
            kind,
            schema,
            chain,
            shared: false,
        })
    }

    /// The compiled predicate chain of a pipeline's σ head (a σ±'s
    /// among them); `None` for every other operator.
    pub fn chain(&self) -> Option<&CompiledChain> {
        self.chain.as_ref()
    }

    /// A pipeline of `stages` over the relation `input` (`schema`: of the
    /// rows leaving the last stage) — how σ, Π, χ, ν and joins are built
    /// by hand; a one-stage pipeline is the operator.
    pub fn pipeline(input: Arc<PhysNode>, stages: Vec<Stage>, schema: Schema) -> Arc<PhysNode> {
        let chain = Chain {
            stages,
            schema: schema.clone(),
        };
        PhysNode::pipe(input, chain, None, None, schema)
    }

    /// The pipeline over `input` that pushes its rows through `chain` —
    /// into a bypass operator's `neg` too, into a Γ's `group` at its end.
    fn pipe(
        input: Arc<PhysNode>,
        chain: Chain,
        neg: Option<Chain>,
        group: Option<Group>,
        schema: Schema,
    ) -> Arc<PhysNode> {
        let kind = PhysKind::Pipeline {
            input,
            chain,
            neg,
            group,
        };
        PhysNode::new(kind, schema)
    }

    /// Γ over `input` (`schema`: its output rows, the keys then the
    /// aggregates), grouping on and aggregating columns of `input`'s
    /// rows. When `input` is a relation pipeline that nothing else holds
    /// — the planner lets go of a pipeline whose only consumer is Γ — Γ
    /// becomes that pipeline's sink: the rows leaving its chain are
    /// folded as they leave. Otherwise Γ is a pipeline with an empty chain
    /// over `input`.
    pub fn aggregate(
        input: Arc<PhysNode>,
        keys: Vec<usize>,
        aggs: Vec<AggSpec>,
        schema: Schema,
    ) -> Arc<PhysNode> {
        let width = input.schema.arity();
        PhysNode::grouped(input, Group { keys, aggs, width }, schema)
    }

    /// [`Self::aggregate`] of a [`Group`] as the planner built it.
    pub(crate) fn grouped(input: Arc<PhysNode>, group: Group, schema: Schema) -> Arc<PhysNode> {
        let input = match Arc::try_unwrap(input) {
            Ok(PhysNode {
                kind:
                    PhysKind::Pipeline {
                        input,
                        chain,
                        neg: None,
                        group: None,
                    },
                shared: false,
                ..
            }) => return PhysNode::pipe(input, chain, None, Some(group), schema),
            Ok(node) => Arc::new(node),
            Err(input) => input,
        };
        let chain = Chain {
            stages: vec![],
            schema: input.schema.clone(),
        };
        PhysNode::pipe(input, chain, None, Some(group), schema)
    }

    /// A bypass operator over `input`: the pipeline headed by `head` — a
    /// σ± by its filter, a ⋈± by a nested-loop probe — whose rows
    /// (`rows`: their schema) the head passes enter the positive stream's
    /// chain `pos`, and those it fails the negative stream's chain `neg`.
    /// A stream without a chain hands the head's rows on as they are.
    pub fn bypass(
        input: Arc<PhysNode>,
        head: Stage,
        rows: Schema,
        pos: Option<Chain>,
        neg: Option<Chain>,
    ) -> Arc<PhysNode> {
        let bare = || Chain {
            stages: vec![],
            schema: rows.clone(),
        };
        let (pos, neg) = (pos.unwrap_or_else(bare), neg.unwrap_or_else(bare));
        let chain = Chain {
            stages: std::iter::once(head).chain(pos.stages).collect(),
            schema: pos.schema,
        };
        let schema = chain.schema.clone();
        PhysNode::pipe(input, chain, Some(neg), None, schema)
    }

    /// Is this a bypass operator — a pipeline with a negative stream?
    pub fn is_bypass(&self) -> bool {
        matches!(self.kind, PhysKind::Pipeline { neg: Some(_), .. })
    }

    /// A scan of the base table `columns` belongs to, under the table's
    /// own schema.
    pub fn scan(columns: Arc<TableColumns>) -> Arc<PhysNode> {
        let schema = columns.data().schema().clone();
        PhysNode::new(PhysKind::Scan { columns }, schema)
    }

    /// The Γ this pipeline ends in, if any.
    pub fn group(&self) -> Option<&Group> {
        match &self.kind {
            PhysKind::Pipeline { group, .. } => group.as_ref(),
            _ => None,
        }
    }

    /// Is this Γ over a relation — a pipeline with an empty chain?
    fn groups_relation(&self) -> bool {
        match &self.kind {
            PhysKind::Pipeline { chain, group, .. } => group.is_some() && chain.stages.is_empty(),
            _ => false,
        }
    }

    /// The join heading this pipeline, if its first stage is a probe: a
    /// join, and a ⋈±, is a pipeline over its left input.
    pub fn head_probe(&self) -> Option<&JoinSpec> {
        match &self.kind {
            PhysKind::Pipeline { chain, .. } => match chain.stages.first() {
                Some(Stage::Probe(spec)) => Some(spec),
                _ => None,
            },
            _ => None,
        }
    }
}

/// How a join finds, for one probe (left) row, its partners among the
/// rows of a materialized build (right) side: a [`Stage::Probe`], at the
/// head of a pipeline over the join's left input or fused into another
/// host's chain.
#[derive(Debug)]
pub struct JoinSpec {
    /// Build side: evaluated (and, for a hash join, hashed) before the
    /// probe loop starts.
    pub right: Arc<PhysNode>,
    pub on: JoinOn,
    /// `Some` makes this a left outerjoin: an unmatched left row is
    /// emitted once, its right side NULL-padded except for the
    /// `(right_column_index, value)` overrides — the `g: f(∅)` defaults
    /// of the paper's ⟕ operator.
    pub defaults: Option<Vec<(usize, Value)>>,
}

/// The matching method of a [`JoinSpec`].
#[derive(Debug)]
pub enum JoinOn {
    /// Nested loop over every build row; `None` is a cross product.
    Loop(Option<PhysExpr>),
    /// Hash equi-join on columns of the probing and the build rows, with
    /// an optional residual predicate over the pair. The planner adds a
    /// computed key to its side's rows as a χ column first.
    Hash {
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Option<PhysExpr>,
    },
}

impl JoinSpec {
    pub fn name(&self) -> &'static str {
        match (&self.on, &self.defaults) {
            (JoinOn::Loop(None), None) => "CrossJoin",
            (JoinOn::Loop(_), None) => "NLJoin",
            (JoinOn::Loop(_), Some(_)) => "NLOuterJoin",
            (JoinOn::Hash { .. }, None) => "HashJoin",
            (JoinOn::Hash { .. }, Some(_)) => "HashOuterJoin",
        }
    }

    fn exprs(&self) -> Vec<&PhysExpr> {
        match &self.on {
            JoinOn::Loop(p) | JoinOn::Hash { residual: p, .. } => p.iter().collect(),
        }
    }
}

/// One streaming operator of a pipeline (DESIGN.md §7): it sees each
/// row its source (or the stage before it) hands on as a borrowed view
/// and passes zero or more rows on, without an intermediate relation.
/// Only the head of a relation pipeline may hold a subquery.
#[derive(Debug)]
pub enum Stage {
    /// σ_p.
    Filter(PhysExpr),
    /// Π.
    Project(Vec<PhysExpr>),
    /// A column-only Π that ends the chain — the exit's materialization
    /// list: the row that leaves is built once, from these columns of
    /// the view, and no wider.
    Pick(Vec<usize>),
    /// χ.
    Map(PhysExpr),
    /// A further join whose probe (left) input is the chain.
    Probe(JoinSpec),
    /// ν: extends each row by its position in the pipeline's input,
    /// which only the pass over that input knows — so ν heads its
    /// pipeline.
    Number,
}

impl Stage {
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Filter(_) => "Filter",
            Stage::Project(_) | Stage::Pick(_) => "Project",
            Stage::Map(_) => "Map",
            Stage::Probe(spec) => spec.name(),
            Stage::Number => "Numbering",
        }
    }

    fn exprs(&self) -> Vec<&PhysExpr> {
        match self {
            Stage::Filter(e) | Stage::Map(e) => vec![e],
            Stage::Project(es) => es.iter().collect(),
            Stage::Pick(_) | Stage::Number => vec![],
            Stage::Probe(spec) => spec.exprs(),
        }
    }
}

/// Γ at the end of a pipeline (DESIGN.md §7): grouping keys — none for
/// a scalar aggregation — and aggregates over the rows leaving the
/// chain, which are folded into the groups as they leave. Keys and
/// arguments are columns of those rows: the planner adds a computed one
/// as a χ column first.
#[derive(Debug)]
pub struct Group {
    pub keys: Vec<usize>,
    pub aggs: Vec<AggSpec>,
    /// The columns of Γ's input as the query sees it, which a whole-row
    /// aggregate (`COUNT(DISTINCT *)`) reads: the χ columns the planner
    /// added for computed keys and arguments follow them.
    pub width: usize,
}

/// The stages of one pipeline, bottom-up, plus the schema of the rows
/// leaving the last of them. Only those rows are ever materialized —
/// or, in a pipeline that ends in a Γ, folded into its groups.
#[derive(Debug)]
pub struct Chain {
    pub stages: Vec<Stage>,
    pub schema: Schema,
}

/// Physical operator kinds.
#[derive(Debug)]
pub enum PhysKind {
    /// Base-table scan over shared storage (zero-copy): the table's
    /// rows ([`TableColumns::data`]) and its lazily built columns over
    /// them.
    Scan { columns: Arc<TableColumns> },
    /// σ, Π, χ, ν, joins, Γ and the bypass operators: a pass over the
    /// evaluated `input` pushing each row through `chain`. A σ head runs
    /// its predicate chunk-wise ([`PhysNode::chain`]) and hands the rows
    /// it keeps to the stages after it; a probe head
    /// ([`PhysNode::head_probe`]) is the join of `input` with its build
    /// side; a ν head numbers the rows; any other head takes every row.
    /// With `neg` the pipeline is a bypass operator
    /// ([`PhysNode::bypass`]): the rows or pairs its head fails enter
    /// `neg`, and its two streams are read through [`PhysKind::Stream`].
    /// With `group` the rows leaving `chain` are Γ's input and the
    /// groups are the pipeline's rows ([`PhysNode::aggregate`]); Γ over
    /// a relation is a pipeline with an empty chain.
    Pipeline {
        input: Arc<PhysNode>,
        chain: Chain,
        neg: Option<Chain>,
        group: Option<Group>,
    },
    /// ORDER BY, a stable sort on columns of the input's rows: the
    /// planner adds a computed key as a χ column first.
    Sort {
        input: Arc<PhysNode>,
        keys: Vec<SortKey>,
    },
    /// LIMIT — first n rows.
    Limit { input: Arc<PhysNode>, n: usize },
    /// SQL's UNION ALL (the paper's ∪̇ when `distinct` is unset) or
    /// UNION: one loop appends each input's rows in order, and with
    /// `distinct` keeps only the first occurrence of each row — δ is a
    /// union of one input. The planner folds an unshared ∪̇ into the
    /// union or δ that consumes it.
    Union {
        inputs: Vec<Arc<PhysNode>>,
        distinct: bool,
    },
    /// Consumes one stream of a bypass operator, which runs once per
    /// plan evaluation for both.
    Stream {
        source: Arc<PhysNode>,
        positive: bool,
    },
}

impl PhysNode {
    /// The operator's own inputs — a probe head's build side among them
    /// — without the build sides of joins fused into its stage chains.
    fn inputs(&self) -> Vec<&Arc<PhysNode>> {
        match &self.kind {
            PhysKind::Scan { .. } => vec![],
            PhysKind::Pipeline { input, .. } => std::iter::once(input)
                .chain(self.head_probe().map(|s| &s.right))
                .collect(),
            PhysKind::Sort { input, .. } | PhysKind::Limit { input, .. } => vec![input],
            PhysKind::Union { inputs, .. } => inputs.iter().collect(),
            PhysKind::Stream { source, .. } => vec![source],
        }
    }

    /// The stages this operator hosts, in `NodeMetrics::stages` order
    /// (a bypass operator: its head and positive stream first).
    fn stages(&self) -> impl Iterator<Item = &Stage> {
        let chains = match &self.kind {
            PhysKind::Pipeline { chain, neg, .. } => [Some(chain), neg.as_ref()],
            _ => [None, None],
        };
        chains.into_iter().flatten().flat_map(|c| &c.stages)
    }

    /// The chain a bypass operator's positive (or negative) stream leaves
    /// through, and the index of the stream's first stage in it: the
    /// positive chain starts with the head.
    pub(crate) fn stream(&self, positive: bool) -> Option<(&Chain, usize)> {
        match &self.kind {
            PhysKind::Pipeline {
                chain,
                neg: Some(neg),
                ..
            } => Some(if positive { (chain, 1) } else { (neg, 0) }),
            _ => None,
        }
    }

    /// Does a stage chain consume this bypass operator's stream?
    pub(crate) fn stream_chained(&self, positive: bool) -> bool {
        self.stream(positive)
            .is_some_and(|(chain, first)| chain.stages.len() > first)
    }

    /// The schema of the rows a tap of this bypass operator's stream
    /// carries: what leaves the stream's chain.
    pub(crate) fn stream_schema(&self, positive: bool) -> &Schema {
        self.stream(positive)
            .map_or(&self.schema, |(chain, _)| &chain.schema)
    }

    /// Every plan this operator evaluates: its inputs, then the build
    /// sides of the joins fused into its stage chains.
    pub fn children(&self) -> Vec<&Arc<PhysNode>> {
        let mut out = self.inputs();
        let fused = self.stages().skip(self.head_probe().is_some() as usize);
        out.extend(fused.filter_map(|s| match s {
            Stage::Probe(spec) => Some(&spec.right),
            _ => None,
        }));
        out
    }

    /// The expressions this operator evaluates: its stages', fused ones
    /// included — no other operator holds one.
    pub fn exprs(&self) -> Vec<&PhysExpr> {
        self.stages().flat_map(Stage::exprs).collect()
    }

    /// Nested plans held inside this operator's expressions.
    pub fn expr_subplans(&self) -> Vec<&Arc<PhysNode>> {
        self.exprs()
            .into_iter()
            .flat_map(|e| e.subquery_plans())
            .collect()
    }

    /// Short operator name (used in physical EXPLAIN output); a pipeline
    /// is named after its head, a bypass operator after the σ± or ⋈± it
    /// is.
    pub fn name(&self) -> &'static str {
        match &self.kind {
            PhysKind::Scan { .. } => "Scan",
            PhysKind::Pipeline { neg: Some(_), .. } => match self.head_probe() {
                Some(_) => "BypassNLJoin",
                None => "BypassFilter",
            },
            PhysKind::Pipeline { chain, .. } => {
                chain.stages.first().map_or("HashAggregate", Stage::name)
            }
            PhysKind::Sort { .. } => "Sort",
            PhysKind::Limit { .. } => "Limit",
            PhysKind::Union { distinct: true, .. } => "Distinct",
            PhysKind::Union { .. } => "UnionAll",
            PhysKind::Stream { positive, .. } => {
                if *positive {
                    "Stream(+)"
                } else {
                    "Stream(-)"
                }
            }
        }
    }

    /// The width of the rows this operator builds (a bypass operator: of
    /// its positive / negative stream; a pipeline that ends in a Γ: of
    /// the rows leaving its chain), `None` for one that hands on the rows
    /// it was given.
    fn built_width(&self) -> Option<String> {
        match &self.kind {
            // A σ± hands its source rows on; a ⋈± builds its pairs.
            PhysKind::Pipeline { neg: Some(_), .. } => self.head_probe().map(|_| {
                let arity = |positive| self.stream_schema(positive).arity();
                format!("{}/{}", arity(true), arity(false))
            }),
            // A pipeline of σs hands its source rows on.
            PhysKind::Pipeline { chain, .. }
                if chain.stages.iter().all(|s| matches!(s, Stage::Filter(_))) =>
            {
                None
            }
            PhysKind::Pipeline { chain, .. } => Some(chain.schema.arity().to_string()),
            _ => None,
        }
    }

    /// The stage chain whose rows leave its host through this node — a
    /// pipeline's own chain (its head prints as the operator itself, a Γ
    /// it ends in above its top stage), or the chain of the bypass
    /// stream this `Stream` node taps.
    fn exit_chain(&self) -> Option<ExitChain<'_>> {
        let (host, chain, offset, first) = match &self.kind {
            PhysKind::Pipeline {
                chain,
                neg: None,
                group,
                ..
            } if chain.stages.len() > 1 || (group.is_some() && !chain.stages.is_empty()) => {
                (self, chain, 0, 1)
            }
            PhysKind::Stream { source, positive } if source.stream_chained(*positive) => {
                let (chain, first) = source.stream(*positive)?;
                let (pos, _) = source.stream(true)?;
                let offset = if *positive { 0 } else { pos.stages.len() };
                (&**source, chain, offset, first)
            }
            _ => return None,
        };
        Some(ExitChain {
            exit: self,
            host,
            chain,
            offset,
            first,
        })
    }

    /// The operator tree as display lines, top-down: DAG-shared
    /// operators appear once (`(#k)`) and as `(shared #k)` afterwards;
    /// fused stages stay where the unfused plan has them, marked
    /// `fused→#k` with the number of the operator that runs them; a
    /// subquery plan hangs below a `subquery:` line of its own. Both
    /// renderers — EXPLAIN and EXPLAIN ANALYZE — are formatters over
    /// these lines.
    fn lines(&self) -> Vec<PlanLine<'_>> {
        let mut w = LineWalker::default();
        w.node(self, 0);
        w.out
    }

    /// EXPLAIN ANALYZE rendering: operator tree annotated with the
    /// collected runtime counters (calls, total rows, inclusive wall
    /// time, and exclusive/self time with child time subtracted). Fused
    /// stages report the rows they received and passed on; their time
    /// is part of the host's.
    pub fn explain_with_metrics(
        &self,
        metrics: &std::collections::HashMap<usize, crate::eval::NodeMetrics>,
    ) -> String {
        self.render(Some(metrics))
    }

    /// Physical EXPLAIN: indented operator names with DAG sharing marks.
    pub fn explain(&self) -> String {
        self.render(None)
    }

    fn render(
        &self,
        metrics: Option<&std::collections::HashMap<usize, crate::eval::NodeMetrics>>,
    ) -> String {
        let mut out = String::new();
        for line in self.lines() {
            out.push_str(&"  ".repeat(line.depth));
            out.push_str(&line.label);
            let at = |n: &PhysNode| metrics?.get(&(n as *const PhysNode as usize));
            match line.source {
                _ if metrics.is_none() => {}
                LineSource::Shared | LineSource::Header => {}
                LineSource::Group(host) => match at(host) {
                    Some(m) => {
                        out.push_str(&format!("  [in={} groups={}]", m.group_rows, m.groups))
                    }
                    None => out.push_str("  [not executed]"),
                },
                LineSource::Stage { host, index } => match at(host)
                    .and_then(|m| m.stages.get(index))
                {
                    Some(st) => out.push_str(&format!("  [in={} out={}]", st.rows_in, st.rows_out)),
                    None => out.push_str("  [not executed]"),
                },
                LineSource::Node(n) => match at(n) {
                    Some(m) => annotate(&mut out, n, m),
                    None => out.push_str("  [not executed]"),
                },
            }
            out.push('\n');
        }
        out
    }
}

/// One line of [`PhysNode::lines`].
struct PlanLine<'a> {
    depth: usize,
    /// Operator name plus its marks (`(#k)`, `(shared #k)`, `fused→#k`).
    label: String,
    source: LineSource<'a>,
}

/// What a [`PlanLine`] stands for — where its runtime counters live.
enum LineSource<'a> {
    /// An operator with its own `NodeMetrics` entry.
    Node(&'a PhysNode),
    /// A later reference to an already listed shared operator.
    Shared,
    /// The `subquery:` line above a subquery plan.
    Header,
    /// The Γ a pipeline (`host`) ends in, printed above its chain.
    Group(&'a PhysNode),
    /// Entry `index` of `host`'s `NodeMetrics::stages`.
    Stage { host: &'a PhysNode, index: usize },
}

/// A fused chain as seen from the node its rows leave through.
#[derive(Clone, Copy)]
struct ExitChain<'a> {
    exit: &'a PhysNode,
    host: &'a PhysNode,
    chain: &'a Chain,
    /// Of the chain's first stage in the host's stage list
    /// (`NodeMetrics::stages`: positive chain first).
    offset: usize,
    /// The lowest stage printed as `fused→#k`: 1 for a chain that starts
    /// with its host's head — the operator line itself.
    first: usize,
}

#[derive(Default)]
struct LineWalker<'a> {
    out: Vec<PlanLine<'a>>,
    /// Numbers of bypass operators, chain hosts and shared operators, in
    /// first-mention order.
    ids: std::collections::HashMap<*const PhysNode, usize>,
    listed: std::collections::HashSet<*const PhysNode>,
}

impl<'a> LineWalker<'a> {
    fn id(&mut self, n: &PhysNode) -> usize {
        let next = self.ids.len() + 1;
        *self.ids.entry(n).or_insert(next)
    }

    fn node(&mut self, n: &'a PhysNode, mut depth: usize) {
        let Some(fused) = n.exit_chain() else {
            return self.operator(n, depth);
        };
        if fused.exit.group().is_some() {
            let id = self.id(fused.host);
            self.out.push(PlanLine {
                depth,
                label: format!("HashAggregate fused→#{id}"),
                source: LineSource::Group(fused.host),
            });
            depth += 1;
        }
        match fused.chain.stages.len() - 1 {
            top if top >= fused.first => self.stage(fused, top, depth),
            _ => self.operator(fused.exit, depth),
        }
    }

    /// Stage `k` of a chain, then what feeds it (the stage below, or the
    /// node the chain hangs off — for a relation pipeline, its head),
    /// then — for a fused join — its build side: the shape of the
    /// unfused tree.
    fn stage(&mut self, fused: ExitChain<'a>, k: usize, depth: usize) {
        let id = self.id(fused.host);
        let stage = &fused.chain.stages[k];
        self.out.push(PlanLine {
            depth,
            label: format!("{} fused→#{id}", stage.name()),
            source: LineSource::Stage {
                host: fused.host,
                index: fused.offset + k,
            },
        });
        if k == fused.first {
            self.operator(fused.exit, depth + 1);
        } else {
            self.stage(fused, k - 1, depth + 1);
        }
        if let Stage::Probe(spec) = stage {
            self.node(&spec.right, depth + 1);
        }
    }

    fn operator(&mut self, n: &'a PhysNode, depth: usize) {
        let mut label = n.name().to_string();
        let is_bypass = n.is_bypass();
        let is_host = n.exit_chain().is_some_and(|c| std::ptr::eq(c.host, n));
        if is_bypass || is_host || n.shared {
            let id = self.id(n);
            if !self.listed.insert(n) && (is_bypass || n.shared) {
                self.out.push(PlanLine {
                    depth,
                    label: format!("{label} (shared #{id})"),
                    source: LineSource::Shared,
                });
                return;
            }
            label.push_str(&format!(" (#{id})"));
        }
        self.out.push(PlanLine {
            depth,
            label,
            source: LineSource::Node(n),
        });
        for sq in n.expr_subplans() {
            self.out.push(PlanLine {
                depth: depth + 1,
                label: "subquery:".to_string(),
                source: LineSource::Header,
            });
            self.node(sq, depth + 2);
        }
        for c in n.inputs() {
            self.node(c, depth + 1);
        }
    }
}

/// The `[calls=… rows=… …]` block of one EXPLAIN ANALYZE line.
fn annotate(out: &mut String, n: &PhysNode, m: &crate::eval::NodeMetrics) {
    out.push_str(&format!("  [calls={} rows={}", m.calls, m.rows));
    // Rows × width is what an operator that builds rows pays for.
    if let Some(cols) = n.built_width() {
        out.push_str(&format!(" cols={cols}"));
    }
    out.push_str(&format!(
        " time={:.3}ms self={:.3}ms",
        m.total_ms(),
        m.self_ms()
    ));
    if n.is_bypass() {
        let split = m
            .split_ratio()
            .map(|r| format!("{:.1}%", r * 100.0))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            " pos={} neg={} split={split}",
            m.pos_rows, m.neg_rows
        ));
    }
    // Exact counts: with `self=` they give the operator's ns/row.
    if n.groups_relation() {
        out.push_str(&format!(" in={} groups={}", m.group_rows, m.groups));
    }
    if m.build_rows > 0 || m.reverify > 0 {
        out.push_str(&format!(" build={} reverify={}", m.build_rows, m.reverify));
    }
    if let Some(JoinSpec {
        on: JoinOn::Hash { .. },
        ..
    }) = n.head_probe()
    {
        out.push_str(&format!(" probe={}", m.input_rows));
    }
    if !m.disjuncts.is_empty() {
        // Per-disjunct selectivities (planned order): `evals` counts
        // rows that reached the term, `hits` rows it decided.
        // Counter-derived, so deterministic — unlike the `ms` timings.
        out.push_str(" disjuncts=[");
        for (i, d) in m.disjuncts.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let sel = if d.evals > 0 {
                format!("{:.1}%", d.hits as f64 / d.evals as f64 * 100.0)
            } else {
                "-".to_string()
            };
            out.push_str(&format!("#{i} evals={} hits={} sel={sel}", d.evals, d.hits));
        }
        out.push(']');
    }
    out.push(']');
}
