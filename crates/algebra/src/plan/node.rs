use std::sync::Arc;

use bypass_types::{DataType, Field, Schema, Value};

use crate::expr::{AggCall, ColumnRef, Scalar};

/// Which output stream of a bypass operator a [`LogicalPlan::Stream`]
/// node consumes. The paper draws the positive stream as a solid line and
/// the negative stream as a dotted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    Positive,
    Negative,
}

impl Stream {
    pub fn sign(self) -> &'static str {
        match self {
            Stream::Positive => "+",
            Stream::Negative => "-",
        }
    }
}

/// A node of the logical algebra (Fig. 1 of the paper).
///
/// Children are `Arc`-shared; plans containing bypass operators are DAGs
/// in which two [`LogicalPlan::Stream`] nodes reference the *same*
/// [`LogicalPlan::BypassFilter`] / [`LogicalPlan::BypassJoin`] node.
/// Rewrites must preserve that sharing (see [`crate::plan::rewrite`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan. The stored schema is already qualified with the
    /// FROM-clause alias.
    Scan {
        table: String,
        alias: String,
        schema: Schema,
    },
    /// The one-row, zero-column relation (`SELECT 1 + 1` without a FROM
    /// clause projects over it). Executes as a constant scan.
    Singleton,
    /// Selection σ_p. The predicate may contain nested algebraic
    /// expressions (scalar subqueries) — the canonical translation of
    /// nested query blocks.
    Filter {
        input: Arc<LogicalPlan>,
        predicate: Scalar,
    },
    /// Projection Π (with optional output aliases). Unaliased plain
    /// column expressions keep their field; other expressions get the
    /// alias or a synthesized name.
    Project {
        input: Arc<LogicalPlan>,
        exprs: Vec<(Scalar, Option<String>)>,
    },
    /// Cross product ×.
    CrossJoin {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
    },
    /// Inner join ⋈_p.
    Join {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        predicate: Scalar,
    },
    /// Left outerjoin with defaults ⟕^{g:f(∅)}_p: unmatched left tuples
    /// are padded with NULLs on the right side, except that the columns
    /// listed in `defaults` receive the given values (`g: f(∅)` — the
    /// count-bug fix).
    OuterJoin {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        predicate: Scalar,
        defaults: Vec<(String, Value)>,
    },
    /// Unary grouping Γ_{g;=A;f} (`keys` non-empty) or scalar aggregation
    /// (`keys` empty, exactly one output row). Keys must be plain column
    /// references. Output schema: key fields followed by one field per
    /// aggregate.
    Aggregate {
        input: Arc<LogicalPlan>,
        keys: Vec<Scalar>,
        aggs: Vec<(AggCall, String)>,
    },
    /// Binary grouping Γ_{g;A1=A2;f}: for every left tuple `x`, compute
    /// `g = f({y ∈ right | x.left_key = y.right_key})`. Handles empty
    /// groups natively (`g = f(∅)`), which is why Eqv. 5 uses it. The
    /// paper's Γᵇ takes any θ; every plan here groups on the numbering
    /// key `t = t'`.
    BinaryGroup {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        left_key: Scalar,
        right_key: Scalar,
        agg: AggCall,
        name: String,
    },
    /// Map χ_{name:expr}: extends every tuple by one computed attribute.
    Map {
        input: Arc<LogicalPlan>,
        expr: Scalar,
        name: String,
    },
    /// Numbering ν_name: extends every tuple by a unique integer
    /// (deterministic: the input position). Turns a multiset into a set
    /// — required by Eqv. 5.
    Numbering {
        input: Arc<LogicalPlan>,
        name: String,
    },
    /// Duplicate elimination.
    Distinct { input: Arc<LogicalPlan> },
    /// Sorting (ORDER BY); `true` = descending.
    Sort {
        input: Arc<LogicalPlan>,
        keys: Vec<(Scalar, bool)>,
    },
    /// LIMIT: keep the first `n` rows of the input order.
    Limit { input: Arc<LogicalPlan>, n: usize },
    /// Derived-table aliasing: identity on rows, re-qualifies every
    /// output column with `alias` (a FROM-clause `(SELECT …) AS x`).
    Alias {
        input: Arc<LogicalPlan>,
        alias: String,
    },
    /// Disjoint union ∪̇. The rewrites guarantee disjointness (a bypass
    /// operator partitions its input); execution is bag concatenation.
    Union {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
    },
    /// Bypass selection σ±_p: the positive stream carries tuples whose
    /// predicate is TRUE; the negative stream the rest (FALSE *and*
    /// UNKNOWN). Consumed via two [`LogicalPlan::Stream`] nodes.
    BypassFilter {
        input: Arc<LogicalPlan>,
        predicate: Scalar,
    },
    /// Bypass join ⋈±_p: the positive stream carries joined pairs
    /// satisfying p, the negative stream the complementary pairs
    /// (two-valued logic, cf. Fig. 1 footnote).
    BypassJoin {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        predicate: Scalar,
    },
    /// Stream selector: consumes one output of a bypass operator.
    Stream {
        source: Arc<LogicalPlan>,
        stream: Stream,
    },
}

impl LogicalPlan {
    /// The output schema of this node.
    pub fn schema(&self) -> Schema {
        if let Some(input) = self.hands_on() {
            return input.schema();
        }
        match self.children().as_slice() {
            [] => self.schema_over(&[]),
            [a] => self.schema_over(&[&a.schema()]),
            [a, b] => self.schema_over(&[&a.schema(), &b.schema()]),
            _ => unreachable!("no operator has more than two inputs"),
        }
    }

    /// The input whose rows this node hands on as they are (some of
    /// them, reordered, or beside another input's of the same layout):
    /// its schema is this node's.
    pub(crate) fn hands_on(&self) -> Option<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::BypassFilter { input, .. }
            | LogicalPlan::Stream { source: input, .. }
            | LogicalPlan::Union { left: input, .. } => Some(input),
            _ => None,
        }
    }

    /// The output schema of this node over children with the schemas
    /// `inputs` (in [`LogicalPlan::children`] order) — the one definition
    /// of schema derivation: [`LogicalPlan::schema`] recurses through it,
    /// and a pass that keeps each node's schema derives it once per node.
    pub fn schema_over(&self, inputs: &[&Schema]) -> Schema {
        if self.hands_on().is_some() {
            return inputs[0].clone();
        }
        match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Singleton => Schema::empty(),
            LogicalPlan::Filter { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::Sort { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::BypassFilter { .. }
            | LogicalPlan::Stream { .. }
            | LogicalPlan::Union { .. } => unreachable!("hands its input's schema on"),
            LogicalPlan::Alias { alias, .. } => inputs[0].with_qualifier(alias),
            LogicalPlan::Project { exprs, .. } => Schema::new(
                exprs
                    .iter()
                    .enumerate()
                    .map(|(i, (e, alias))| project_field(e, alias.as_deref(), inputs[0], i))
                    .collect(),
            ),
            LogicalPlan::CrossJoin { .. }
            | LogicalPlan::Join { .. }
            | LogicalPlan::OuterJoin { .. }
            | LogicalPlan::BypassJoin { .. } => inputs[0].concat(inputs[1]),
            LogicalPlan::Aggregate { keys, aggs, .. } => {
                let mut fields = Vec::with_capacity(keys.len() + aggs.len());
                for (i, k) in keys.iter().enumerate() {
                    fields.push(project_field(k, None, inputs[0], i));
                }
                for (agg, name) in aggs {
                    fields.push(Field::new(name, agg.data_type(inputs[0])));
                }
                Schema::new(fields)
            }
            LogicalPlan::BinaryGroup { agg, name, .. } => {
                inputs[0].extended(Field::new(name, agg.data_type(inputs[1])))
            }
            LogicalPlan::Map { expr, name, .. } => {
                inputs[0].extended(Field::new(name, expr.data_type(inputs[0])))
            }
            LogicalPlan::Numbering { name, .. } => {
                inputs[0].extended(Field::new(name, DataType::Int))
            }
        }
    }

    /// The schema this node's expressions are resolved against: the
    /// concatenation of the children's output schemas.
    pub fn input_schema(&self) -> Schema {
        let children = self.children();
        match children.len() {
            0 => Schema::empty(),
            1 => children[0].schema(),
            _ => children[1..]
                .iter()
                .fold(children[0].schema(), |acc, c| acc.concat(&c.schema())),
        }
    }

    /// Direct children (for Stream nodes: the shared bypass source).
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Singleton => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Map { input, .. }
            | LogicalPlan::Numbering { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Alias { input, .. }
            | LogicalPlan::BypassFilter { input, .. } => vec![input],
            LogicalPlan::CrossJoin { left, right }
            | LogicalPlan::Join { left, right, .. }
            | LogicalPlan::OuterJoin { left, right, .. }
            | LogicalPlan::BinaryGroup { left, right, .. }
            | LogicalPlan::Union { left, right }
            | LogicalPlan::BypassJoin { left, right, .. } => vec![left, right],
            LogicalPlan::Stream { source, .. } => vec![source],
        }
    }

    /// The child slots, in [`LogicalPlan::children`] order.
    fn children_mut(&mut self) -> Vec<&mut Arc<LogicalPlan>> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Singleton => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Map { input, .. }
            | LogicalPlan::Numbering { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Alias { input, .. }
            | LogicalPlan::BypassFilter { input, .. } => vec![input],
            LogicalPlan::CrossJoin { left, right }
            | LogicalPlan::Join { left, right, .. }
            | LogicalPlan::OuterJoin { left, right, .. }
            | LogicalPlan::BinaryGroup { left, right, .. }
            | LogicalPlan::Union { left, right }
            | LogicalPlan::BypassJoin { left, right, .. } => vec![left, right],
            LogicalPlan::Stream { source, .. } => vec![source],
        }
    }

    /// Rebuild this node with new children (same order as
    /// [`LogicalPlan::children`]). Panics on arity mismatch — that is a
    /// rewrite bug, not a runtime condition.
    pub fn with_children(&self, children: Vec<Arc<LogicalPlan>>) -> LogicalPlan {
        let mut out = self.clone();
        let slots = out.children_mut();
        assert_eq!(children.len(), slots.len(), "with_children arity mismatch");
        for (slot, child) in slots.into_iter().zip(children) {
            *slot = child;
        }
        out
    }

    /// The expressions evaluated by this node (not descending into
    /// children).
    pub fn exprs(&self) -> Vec<&Scalar> {
        match self {
            LogicalPlan::Scan { .. }
            | LogicalPlan::Singleton
            | LogicalPlan::CrossJoin { .. }
            | LogicalPlan::Numbering { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Alias { .. }
            | LogicalPlan::Union { .. }
            | LogicalPlan::Stream { .. } => vec![],
            LogicalPlan::Filter { predicate, .. }
            | LogicalPlan::Join { predicate, .. }
            | LogicalPlan::OuterJoin { predicate, .. }
            | LogicalPlan::BypassFilter { predicate, .. }
            | LogicalPlan::BypassJoin { predicate, .. } => vec![predicate],
            LogicalPlan::Project { exprs, .. } => exprs.iter().map(|(e, _)| e).collect(),
            LogicalPlan::Aggregate { keys, aggs, .. } => keys
                .iter()
                .chain(aggs.iter().filter_map(|(a, _)| a.arg.as_deref()))
                .collect(),
            LogicalPlan::BinaryGroup {
                left_key,
                right_key,
                agg,
                ..
            } => {
                let mut v = vec![left_key, right_key];
                if let Some(a) = agg.arg.as_deref() {
                    v.push(a);
                }
                v
            }
            LogicalPlan::Map { expr, .. } => vec![expr],
            LogicalPlan::Sort { keys, .. } => keys.iter().map(|(e, _)| e).collect(),
        }
    }

    /// The expression slots, in [`LogicalPlan::exprs`] order.
    fn exprs_mut(&mut self) -> Vec<&mut Scalar> {
        match self {
            LogicalPlan::Scan { .. }
            | LogicalPlan::Singleton
            | LogicalPlan::CrossJoin { .. }
            | LogicalPlan::Numbering { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Alias { .. }
            | LogicalPlan::Union { .. }
            | LogicalPlan::Stream { .. } => vec![],
            LogicalPlan::Filter { predicate, .. }
            | LogicalPlan::Join { predicate, .. }
            | LogicalPlan::OuterJoin { predicate, .. }
            | LogicalPlan::BypassFilter { predicate, .. }
            | LogicalPlan::BypassJoin { predicate, .. } => vec![predicate],
            LogicalPlan::Project { exprs, .. } => exprs.iter_mut().map(|(e, _)| e).collect(),
            LogicalPlan::Aggregate { keys, aggs, .. } => keys
                .iter_mut()
                .chain(aggs.iter_mut().filter_map(|(a, _)| a.arg.as_deref_mut()))
                .collect(),
            LogicalPlan::BinaryGroup {
                left_key,
                right_key,
                agg,
                ..
            } => [left_key, right_key]
                .into_iter()
                .chain(agg.arg.as_deref_mut())
                .collect(),
            LogicalPlan::Map { expr, .. } => vec![expr],
            LogicalPlan::Sort { keys, .. } => keys.iter_mut().map(|(e, _)| e).collect(),
        }
    }

    /// Rebuild this node with `f` applied to each of its expressions
    /// (same order as [`LogicalPlan::exprs`]); children are kept.
    pub fn map_exprs(&self, f: &mut impl FnMut(&Scalar) -> Scalar) -> LogicalPlan {
        let mut out = self.clone();
        for e in out.exprs_mut() {
            *e = f(e);
        }
        out
    }

    /// Column references that are free in this whole (sub)plan: they do
    /// not resolve against any scope inside the plan. A non-empty result
    /// for a subquery plan means the subquery is *correlated* (Kim types
    /// J / JA).
    pub fn free_refs(&self) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        self.collect_free(&mut out);
        out
    }

    fn collect_free(&self, out: &mut Vec<ColumnRef>) {
        for c in self.children() {
            c.collect_free(out);
        }
        let scope = self.expr_scope();
        for e in self.exprs() {
            for r in e.free_refs(&scope) {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
    }

    /// The scope a node's expressions see. This differs from
    /// [`LogicalPlan::input_schema`] only for [`LogicalPlan::BinaryGroup`],
    /// whose `right_key` and aggregate argument see the right input while
    /// `left_key` sees the left one — the concatenation covers both.
    fn expr_scope(&self) -> Schema {
        self.input_schema()
    }

    /// True if any expression in this plan (including nested subquery
    /// plans) contains a subquery.
    pub fn contains_subquery(&self) -> bool {
        if self.exprs().iter().any(|e| e.contains_subquery()) {
            return true;
        }
        self.children().iter().any(|c| c.contains_subquery())
    }

    /// Is this node a streaming consumer of `input` — a subquery-free σ,
    /// Π or χ over it, or a subquery-free join whose *left* input it
    /// is? Such a consumer runs inside the pipeline that produces
    /// `input`'s rows (the physical planner fuses it into the join
    /// below, DESIGN.md §7); any other consumer gets them materialized.
    pub fn streams(&self, input: &Arc<LogicalPlan>) -> bool {
        let streamed = match self {
            LogicalPlan::Filter { input: i, .. }
            | LogicalPlan::Project { input: i, .. }
            | LogicalPlan::Map { input: i, .. } => i,
            LogicalPlan::Join { left, .. }
            | LogicalPlan::OuterJoin { left, .. }
            | LogicalPlan::CrossJoin { left, .. } => left,
            _ => return false,
        };
        Arc::ptr_eq(streamed, input) && self.exprs().iter().all(|e| !e.contains_subquery())
    }
}

/// Derive the output field for a projection / group-key expression.
fn project_field(e: &Scalar, alias: Option<&str>, in_schema: &Schema, idx: usize) -> Field {
    match (e, alias) {
        (Scalar::Column(c), None) => in_schema
            .find(c.qualifier.as_deref(), &c.name)
            .map(|i| in_schema.field(i).clone())
            .unwrap_or_else(|| Field::new(&c.name, DataType::Unknown)),
        (Scalar::Column(c), Some(a)) => in_schema
            .find(c.qualifier.as_deref(), &c.name)
            .map(|i| in_schema.field(i).with_name(a).unqualified())
            .unwrap_or_else(|| Field::new(a, DataType::Unknown)),
        (e, Some(a)) => Field::new(a, e.data_type(in_schema)),
        (e, None) => Field::new(format!("__col{idx}"), e.data_type(in_schema)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::plan::PlanBuilder;

    fn scan_r() -> Arc<LogicalPlan> {
        PlanBuilder::test_scan("r", &["a1", "a2", "a3", "a4"]).build()
    }

    fn scan_s() -> Arc<LogicalPlan> {
        PlanBuilder::test_scan("s", &["b1", "b2", "b3", "b4"]).build()
    }

    #[test]
    fn scan_schema_is_qualified() {
        let r = scan_r();
        let s = r.schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.field(0).qualifier(), Some("r"));
        assert_eq!(s.field(0).name(), "a1");
    }

    #[test]
    fn join_schema_concatenates() {
        let j = LogicalPlan::Join {
            left: scan_r(),
            right: scan_s(),
            predicate: Scalar::qcol("r", "a2").eq(Scalar::qcol("s", "b2")),
        };
        assert_eq!(j.schema().arity(), 8);
        assert_eq!(j.schema().field(4).name(), "b1");
    }

    #[test]
    fn aggregate_schema() {
        let g = LogicalPlan::Aggregate {
            input: scan_s(),
            keys: vec![Scalar::qcol("s", "b2")],
            aggs: vec![(AggCall::count_star(), "g".into())],
        };
        let sch = g.schema();
        assert_eq!(sch.arity(), 2);
        assert_eq!(sch.field(0).name(), "b2");
        assert_eq!(sch.field(0).qualifier(), Some("s"));
        assert_eq!(sch.field(1).name(), "g");
        assert_eq!(sch.field(1).data_type(), DataType::Int);
    }

    #[test]
    fn map_and_numbering_extend_schema() {
        let m = LogicalPlan::Map {
            input: scan_r(),
            expr: Scalar::binary(BinOp::Add, Scalar::qcol("r", "a1"), Scalar::qcol("r", "a2")),
            name: "g".into(),
        };
        assert_eq!(m.schema().arity(), 5);
        assert_eq!(m.schema().field(4).name(), "g");

        let n = LogicalPlan::Numbering {
            input: scan_r(),
            name: "t".into(),
        };
        assert_eq!(n.schema().field(4).data_type(), DataType::Int);
    }

    #[test]
    fn project_field_naming() {
        let p = LogicalPlan::Project {
            input: scan_r(),
            exprs: vec![
                (Scalar::qcol("r", "a1"), None),
                (Scalar::qcol("r", "a2"), Some("x".into())),
                (
                    Scalar::binary(BinOp::Add, Scalar::qcol("r", "a1"), Scalar::lit(1i64)),
                    None,
                ),
            ],
        };
        let s = p.schema();
        assert_eq!(s.field(0).qualified_name(), "r.a1");
        assert_eq!(s.field(1).qualified_name(), "x");
        assert_eq!(s.field(2).name(), "__col2");
    }

    #[test]
    fn bypass_stream_schemas() {
        let bp = Arc::new(LogicalPlan::BypassFilter {
            input: scan_r(),
            predicate: Scalar::qcol("r", "a4").gt(Scalar::lit(1500i64)),
        });
        let pos = LogicalPlan::Stream {
            source: bp.clone(),
            stream: Stream::Positive,
        };
        let neg = LogicalPlan::Stream {
            source: bp,
            stream: Stream::Negative,
        };
        assert_eq!(pos.schema(), neg.schema());
        assert_eq!(pos.schema().arity(), 4);

        let bj = Arc::new(LogicalPlan::BypassJoin {
            left: scan_r(),
            right: scan_s(),
            predicate: Scalar::qcol("r", "a2").eq(Scalar::qcol("s", "b2")),
        });
        let pos = LogicalPlan::Stream {
            source: bj.clone(),
            stream: Stream::Positive,
        };
        assert_eq!(pos.schema().arity(), 8, "both join streams are pairs");
    }

    #[test]
    fn free_refs_detect_correlation() {
        // σ_{a2 = b2}(S): a2 is free (outer reference into R).
        let inner = LogicalPlan::Filter {
            input: scan_s(),
            predicate: Scalar::col("a2").eq(Scalar::qcol("s", "b2")),
        };
        let free = inner.free_refs();
        assert_eq!(free.len(), 1);
        assert_eq!(free[0].name, "a2");

        // Uncorrelated filter has no free refs.
        let inner = LogicalPlan::Filter {
            input: scan_s(),
            predicate: Scalar::qcol("s", "b4").gt(Scalar::lit(1500i64)),
        };
        assert!(inner.free_refs().is_empty());
    }

    #[test]
    fn free_refs_see_through_subqueries() {
        // Outer filter on R whose predicate holds a subquery over S that
        // references r.a2: the *outer* plan has no free refs because a2
        // resolves against R.
        let sub = Arc::new(LogicalPlan::Aggregate {
            input: Arc::new(LogicalPlan::Filter {
                input: scan_s(),
                predicate: Scalar::qcol("r", "a2").eq(Scalar::qcol("s", "b2")),
            }),
            keys: vec![],
            aggs: vec![(AggCall::count_star(), "c".into())],
        });
        assert_eq!(sub.free_refs().len(), 1, "subquery itself is correlated");

        let outer = LogicalPlan::Filter {
            input: scan_r(),
            predicate: Scalar::qcol("r", "a1").eq(Scalar::Subquery(sub)),
        };
        assert!(outer.free_refs().is_empty(), "correlation binds in outer");
        assert!(outer.contains_subquery());
    }

    #[test]
    fn alias_requalifies_schema() {
        let a = LogicalPlan::Alias {
            input: scan_r(),
            alias: "x".into(),
        };
        let s = a.schema();
        assert!(s.fields().iter().all(|f| f.qualifier() == Some("x")));
        assert_eq!(s.resolve(Some("x"), "a1").unwrap(), 0);
        assert!(s.resolve(Some("r"), "a1").is_err(), "old qualifier gone");
    }

    #[test]
    fn with_children_roundtrip() {
        let f = LogicalPlan::Filter {
            input: scan_r(),
            predicate: Scalar::qcol("r", "a1").gt(Scalar::lit(0i64)),
        };
        let rebuilt = f.with_children(vec![scan_r()]);
        assert_eq!(f, rebuilt);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn with_children_checks_arity() {
        let f = LogicalPlan::Filter {
            input: scan_r(),
            predicate: Scalar::lit(true),
        };
        let _ = f.with_children(vec![]);
    }
}
