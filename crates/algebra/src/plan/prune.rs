//! Column pruning: carry only the columns somebody reads (DESIGN.md
//! §2b).
//!
//! The paper's equivalences all end in a `Π_{A(e1)}` and say nothing
//! about how wide the tuples in between are. [`prune_columns`] finds, for
//! every node of the plan DAG, the output positions some consumer reads,
//! and rebuilds the plan so that rows are *built* no wider than that:
//!
//! * an existing Π loses the expressions nobody reads — unless the
//!   expression could raise, in which case it is still evaluated;
//! * a join (inner / outer / cross, or the tapped stream of a ⋈±) whose
//!   consumer does not stream it gets a column-only Π on top, which the
//!   physical planner compiles into the join's exit (DESIGN.md §7): the
//!   narrow row is the only row built;
//! * the two inputs of a ∪̇ are brought to the same positions.
//!
//! Nothing else changes: operators that hand rows on by reference (scan,
//! σ, σ±, stream taps) stay as they are, ν, χ and Γᵇ get narrower
//! through their inputs, and the root of every block keeps its schema.
//!
//! The analysis is three linear passes over the nodes, each node's
//! schema derived once; the rebuild is a [`Rule`] under [`rewrite`], so
//! shared nodes stay shared and an unchanged subtree comes back
//! pointer-equal.

use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use bypass_types::{FxHashMap, Schema};

use crate::expr::{ColumnRef, Scalar};
use crate::plan::node::LogicalPlan;
use crate::plan::rewrite::{rewrite, Blocks, Rule};

/// Rebuild `plan` so that no operator builds a column nobody reads.
/// Result bags, row order, errors and the root schema are those of
/// `plan`; a plan with nothing to narrow comes back pointer-equal, so
/// the rule is idempotent.
pub fn prune_columns(plan: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
    let mut analysis = Analysis::default();
    let root = analysis.derive(plan);
    analysis.require(root);
    if !analysis.settle() {
        return plan.clone();
    }
    rewrite(plan, &mut analysis, Blocks::Nested)
}

/// What the analysis knows about one node of the input plan.
struct Node<'a> {
    plan: &'a Arc<LogicalPlan>,
    /// Where its children, then the nested blocks of its expressions,
    /// sit in [`Analysis::nodes`].
    inputs: Vec<usize>,
    children: usize,
    /// The node's output schema, derived once from its children's (and
    /// shared with the input it is handed on from).
    schema: Rc<Schema>,
    /// Where the node's output positions start in [`Analysis::required`]
    /// and [`Analysis::kept`].
    at: usize,
    /// Column references in or below the node that nothing inside it
    /// binds: the correlated references a nested block's holder reads
    /// off its own input.
    free: Vec<ColumnRef>,
    /// What the node's own expressions read: `(expression, child,
    /// position)`, the free references of a nested block among those of
    /// the expression that holds it.
    reads: Vec<(usize, usize, usize)>,
    /// An expression names a column ambiguously: the planner will
    /// reject the plan, so every input column stays.
    ambiguous: bool,
    /// Join exits only: consumer edges, and whether every one of them
    /// streams the node.
    consumers: usize,
    streamed: bool,
    /// A join exit that gets a Π of what it keeps on top.
    wrap: bool,
}

impl Node<'_> {
    /// The node's output positions in the two position tables.
    fn span(&self) -> Range<usize> {
        self.at..self.at + self.schema.arity()
    }
}

#[derive(Default)]
struct Analysis<'a> {
    /// Every node once — inputs and nested blocks before the node that
    /// holds them, so a reverse walk meets a node after all its
    /// consumers.
    nodes: Vec<Node<'a>>,
    /// Where a node of the input plan sits in `nodes`, by address.
    index: FxHashMap<*const LogicalPlan, usize>,
    /// Per output position of every node ([`Node::span`]): does some
    /// consumer read it? The union over all consumers of a shared node.
    required: Vec<bool>,
    /// Per output position of every node: does the rebuilt node still
    /// produce it? A superset of the required ones.
    kept: Vec<bool>,
}

/// The positions set in `mask`.
fn positions(mask: &[bool]) -> Vec<usize> {
    (0..mask.len()).filter(|&i| mask[i]).collect()
}

/// `Π_positions(input)`, naming the columns by the fields of `schema` —
/// the schema `input` had before it was rebuilt; the rebuild keeps every
/// one of `positions`. A position is only ever asked for because a
/// reader named it, so its field's own name finds it again.
fn project(input: Arc<LogicalPlan>, schema: &Schema, positions: &[usize]) -> Arc<LogicalPlan> {
    let exprs = positions
        .iter()
        .map(|&i| {
            let f = schema.field(i);
            (
                Scalar::Column(ColumnRef::new(f.qualifier(), f.name())),
                None,
            )
        })
        .collect();
    Arc::new(LogicalPlan::Project { input, exprs })
}

/// Do rows leave a join pipeline through `plan` — an inner / outer /
/// cross join, or the tap of one stream of a ⋈±?
fn is_exit(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::CrossJoin { .. }
        | LogicalPlan::Join { .. }
        | LogicalPlan::OuterJoin { .. } => true,
        LogicalPlan::Stream { source, .. } => {
            matches!(source.as_ref(), LogicalPlan::BypassJoin { .. })
        }
        _ => false,
    }
}

impl<'a> Analysis<'a> {
    /// Pass 1, bottom-up: every node's schema, what its expressions read
    /// of its inputs — the name resolution of the physical planner,
    /// against schemas that are already known — and the references that
    /// stay free. Returns where `plan` sits in `nodes`.
    fn derive(&mut self, plan: &'a Arc<LogicalPlan>) -> usize {
        if let Some(&at) = self.index.get(&Arc::as_ptr(plan)) {
            return at;
        }
        let mut inputs: Vec<usize> = plan
            .children()
            .into_iter()
            .map(|c| self.derive(c))
            .collect();
        let children = inputs.len();
        let exprs = plan.exprs();
        for e in &exprs {
            for block in e.subquery_plans() {
                inputs.push(self.derive(block));
            }
        }
        let schemas: Vec<&Schema> = inputs[..children]
            .iter()
            .map(|&c| &*self.nodes[c].schema)
            .collect();
        let schema = match plan.hands_on() {
            Some(_) => self.nodes[inputs[0]].schema.clone(),
            None => Rc::new(plan.schema_over(&schemas)),
        };

        let mut free: Vec<ColumnRef> = Vec::new();
        let mut reads = Vec::new();
        let mut ambiguous = false;
        for &c in &inputs[..children] {
            for r in &self.nodes[c].free {
                if !free.contains(r) {
                    free.push(r.clone());
                }
            }
        }
        // Γᵇ's `left_key` sees the left input only, its `right_key` and
        // aggregate argument the right one; everything else all inputs.
        let binary_group = matches!(plan.as_ref(), LogicalPlan::BinaryGroup { .. });
        for (i, e) in exprs.iter().enumerate() {
            let sides = match (binary_group, i) {
                (false, _) => 0..children,
                (true, 0) => 0..1,
                (true, _) => 1..2,
            };
            let mut land = |r: &ColumnRef| {
                let mut found = None;
                for side in sides.clone() {
                    match schemas[side].resolve_opt(r.qualifier.as_deref(), &r.name) {
                        Ok(None) => {}
                        Ok(Some(at)) if found.is_none() => found = Some((i, side, at)),
                        _ => {
                            ambiguous = true;
                            return;
                        }
                    }
                }
                match found {
                    Some(read) => reads.push(read),
                    // Nowhere in scope: an outer reference.
                    None if !free.contains(r) => free.push(r.clone()),
                    None => {}
                }
            };
            e.walk(&mut |x| match x {
                Scalar::Column(c) => land(c),
                Scalar::Subquery(p)
                | Scalar::Exists { plan: p, .. }
                | Scalar::InSubquery { plan: p, .. }
                | Scalar::QuantifiedCmp { plan: p, .. } => {
                    let block = &self.nodes[self.index[&Arc::as_ptr(p)]];
                    block.free.iter().for_each(&mut land);
                }
                _ => {}
            });
        }
        let at = self.required.len();
        self.required.resize(at + schema.arity(), false);
        self.nodes.push(Node {
            plan,
            inputs,
            children,
            schema,
            at,
            free,
            reads,
            ambiguous,
            consumers: 0,
            streamed: true,
            wrap: false,
        });
        self.index.insert(Arc::as_ptr(plan), self.nodes.len() - 1);
        self.nodes.len() - 1
    }

    /// Pass 2, top-down: what each node's consumers read of it. A block's
    /// root is read in full. A Π settles what it keeps here, too.
    fn require(&mut self, root: usize) {
        self.kept = vec![false; self.required.len()];
        self.required[self.nodes[root].span()].fill(true);
        (self.nodes[root].consumers, self.nodes[root].streamed) = (1, false);
        // The node's own row of `required`, while its inputs' are written.
        let mut wanted = Vec::new();
        for at in (0..self.nodes.len()).rev() {
            let node = &self.nodes[at];
            let span = |k: usize| self.nodes[node.inputs[k]].span();
            wanted.clear();
            wanted.extend_from_slice(&self.required[node.span()]);
            // What the node hands through from its inputs: per child,
            // from which of its own positions on — …
            let through: [Option<usize>; 2] = match node.plan.as_ref() {
                LogicalPlan::Scan { .. } | LogicalPlan::Singleton => continue,
                LogicalPlan::Filter { .. }
                | LogicalPlan::Sort { .. }
                | LogicalPlan::Limit { .. }
                | LogicalPlan::Alias { .. }
                | LogicalPlan::BypassFilter { .. }
                | LogicalPlan::Stream { .. }
                | LogicalPlan::Map { .. }
                | LogicalPlan::Numbering { .. } => [Some(0), None],
                LogicalPlan::Union { .. } => [Some(0), Some(0)],
                LogicalPlan::CrossJoin { .. }
                | LogicalPlan::Join { .. }
                | LogicalPlan::OuterJoin { .. }
                | LogicalPlan::BypassJoin { .. } => [Some(0), Some(span(0).len())],
                LogicalPlan::BinaryGroup { .. } => [Some(0), None],
                LogicalPlan::Project { .. }
                | LogicalPlan::Aggregate { .. }
                | LogicalPlan::Distinct { .. } => [None, None],
            };
            for (k, from) in through.into_iter().enumerate() {
                if let Some(from) = from {
                    for (r, w) in self.required[span(k)].iter_mut().zip(&wanted[from..]) {
                        *r |= w;
                    }
                }
            }
            // … and what it reads itself.
            match node.plan.as_ref() {
                // A Π evaluates what is read and what could raise: a
                // literal cannot, nor can a column that is there.
                LogicalPlan::Project { exprs, .. } => {
                    let droppable = |i: usize| match &exprs[i].0 {
                        Scalar::Literal(_) => true,
                        Scalar::Column(_) => node.reads.iter().any(|r| r.0 == i),
                        _ => false,
                    };
                    let keep = &mut self.kept[node.span()];
                    for (i, k) in keep.iter_mut().enumerate() {
                        *k = wanted[i] || !droppable(i);
                    }
                    let child = span(0).start;
                    for &(i, _, pos) in &node.reads {
                        self.required[child + pos] |= self.kept[node.at + i];
                    }
                }
                _ => {
                    for &(_, side, pos) in &node.reads {
                        self.required[span(side).start + pos] = true;
                    }
                }
            }
            let all = match node.plan.as_ref() {
                // `g: f(∅)` names columns of the right input.
                LogicalPlan::OuterJoin { defaults, .. } => {
                    let right = &self.nodes[node.inputs[1]].schema;
                    let mut unknown = false;
                    for (name, _) in defaults {
                        match right.resolve(None, name) {
                            Ok(i) => self.required[span(1).start + i] = true,
                            Err(_) => unknown = true,
                        }
                    }
                    [false, unknown]
                }
                LogicalPlan::Distinct { .. } => [true, false],
                // COUNT(DISTINCT *) compares whole rows.
                LogicalPlan::Aggregate { aggs, .. } => [
                    aggs.iter().any(|(a, _)| a.distinct && a.arg.is_none()),
                    false,
                ],
                LogicalPlan::BinaryGroup { agg, .. } => [false, agg.distinct && agg.arg.is_none()],
                _ => [false, false],
            };
            // A nested block's root is read in full.
            let whole = all.into_iter().chain(std::iter::repeat(true));
            for (k, whole) in (0..node.inputs.len()).zip(whole) {
                if whole || k >= node.children || node.ambiguous {
                    self.required[span(k)].fill(true);
                }
            }
            // Join exits learn who consumes them, and how.
            let (plan, children) = (node.plan, node.children);
            for k in 0..children {
                let child = self.nodes[at].inputs[k];
                if is_exit(self.nodes[child].plan) {
                    let streams = plan.streams(self.nodes[child].plan);
                    self.nodes[child].consumers += 1;
                    self.nodes[child].streamed &= streams;
                }
            }
        }
    }

    /// Pass 3, bottom-up: the positions every rebuilt node produces, and
    /// which join exits get a Π. Returns whether anything changes.
    fn settle(&mut self) -> bool {
        let mut changed = false;
        for at in 0..self.nodes.len() {
            let node = &self.nodes[at];
            let span = node.span();
            let input = |k: usize| self.nodes[node.inputs[k]].span();
            // What reaches the node from its inputs, side by side.
            let handed = |kept: &mut Vec<bool>| {
                let mut to = span.start;
                for k in 0..node.children {
                    kept.copy_within(input(k), to);
                    to += input(k).len();
                }
            };
            let mut wrap = false;
            match node.plan.as_ref() {
                LogicalPlan::Scan { .. }
                | LogicalPlan::Singleton
                | LogicalPlan::Aggregate { .. } => self.kept[span].fill(true),
                LogicalPlan::Project { .. } => {
                    changed |= self.kept[span].contains(&false);
                }
                LogicalPlan::Filter { .. }
                | LogicalPlan::Distinct { .. }
                | LogicalPlan::Sort { .. }
                | LogicalPlan::Limit { .. }
                | LogicalPlan::Alias { .. }
                | LogicalPlan::BypassFilter { .. }
                | LogicalPlan::BypassJoin { .. } => handed(&mut self.kept),
                LogicalPlan::Map { .. } | LogicalPlan::Numbering { .. } => {
                    handed(&mut self.kept);
                    self.kept[span.end - 1] = true;
                }
                LogicalPlan::BinaryGroup { .. } => {
                    self.kept.copy_within(input(0), span.start);
                    self.kept[span.end - 1] = true;
                }
                LogicalPlan::Union { .. } => {
                    changed |= (0..2).any(|k| self.kept[input(k)] != self.required[span.clone()]);
                    self.kept[span.clone()].copy_from_slice(&self.required[span]);
                }
                // The join exits: rows leave a pipeline here unless the
                // one consumer streams them on.
                LogicalPlan::CrossJoin { .. }
                | LogicalPlan::Join { .. }
                | LogicalPlan::OuterJoin { .. }
                | LogicalPlan::Stream { .. } => {
                    handed(&mut self.kept);
                    let piped = node.consumers == 1 && node.streamed;
                    wrap = is_exit(node.plan)
                        && !piped
                        && self.kept[span.clone()] != self.required[span.clone()];
                    if wrap {
                        self.kept[span.clone()].copy_from_slice(&self.required[span]);
                    }
                }
            }
            changed |= wrap;
            self.nodes[at].wrap = wrap;
        }
        changed
    }
}

/// The rebuild: every node of the input plan is replaced by what the
/// analysis settled for it.
impl Rule for Analysis<'_> {
    fn post_of(&mut self, original: &Arc<LogicalPlan>, node: Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        let f = &self.nodes[self.index[&Arc::as_ptr(original)]];
        let kept = &self.kept[f.span()];
        match node.as_ref() {
            LogicalPlan::Project { input, exprs } if kept.contains(&false) => {
                let exprs = positions(kept)
                    .into_iter()
                    .map(|i| {
                        let (e, alias) = &exprs[i];
                        // A computed column is named by its position.
                        let positional = || format!("__col{i}");
                        let named = matches!(e, Scalar::Column(_)) || alias.is_some();
                        (
                            e.clone(),
                            alias.clone().or_else(|| (!named).then(positional)),
                        )
                    })
                    .collect();
                Arc::new(LogicalPlan::Project {
                    input: input.clone(),
                    exprs,
                })
            }
            LogicalPlan::Union { left, right } => {
                let align = |k: usize, now: &Arc<LogicalPlan>| {
                    let input = &self.nodes[f.inputs[k]];
                    if self.kept[input.span()] == *kept {
                        now.clone()
                    } else {
                        project(now.clone(), &input.schema, &positions(kept))
                    }
                };
                let (l, r) = (align(0, left), align(1, right));
                if Arc::ptr_eq(&l, left) && Arc::ptr_eq(&r, right) {
                    node
                } else {
                    Arc::new(LogicalPlan::Union { left: l, right: r })
                }
            }
            _ if f.wrap => project(node, &f.schema, &positions(kept)),
            _ => node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggCall, AggFunc, BinOp};
    use crate::plan::PlanBuilder;
    use bypass_types::Value;

    fn r() -> PlanBuilder {
        PlanBuilder::test_scan("r", &["a1", "a2", "a3", "a4"])
    }

    fn s() -> PlanBuilder {
        PlanBuilder::test_scan("s", &["b1", "b2", "b3", "b4"])
    }

    fn r_join_s() -> PlanBuilder {
        r().join(s(), Scalar::qcol("r", "a2").eq(Scalar::qcol("s", "b2")))
    }

    fn count_star(input: PlanBuilder) -> PlanBuilder {
        input.aggregate(vec![], vec![(AggCall::count_star(), "n".into())])
    }

    fn sum(input: PlanBuilder, q: &str, col: &str) -> PlanBuilder {
        let call = AggCall::new(AggFunc::Sum, false, Some(Scalar::qcol(q, col)));
        input.aggregate(vec![], vec![(call, "total".into())])
    }

    /// `prune_columns`, checked for what holds of every plan: the root
    /// schema stays and a second application changes nothing.
    fn prune(plan: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        let pruned = prune_columns(plan);
        assert_eq!(pruned.schema(), plan.schema(), "root schema moved");
        assert!(
            Arc::ptr_eq(&prune_columns(&pruned), &pruned),
            "not idempotent:\n{}",
            pruned.explain()
        );
        pruned
    }

    #[test]
    fn a_join_under_a_blocking_consumer_builds_what_is_read() {
        let plan = sum(r_join_s(), "s", "b1").build();
        assert_eq!(
            prune(&plan).explain(),
            "Γ[; total: sum(s.b1)]\n  Π[s.b1]\n    ⋈[(r.a2 = s.b2)]\n      Scan r\n      Scan s\n"
        );
    }

    #[test]
    fn a_zero_column_requirement_keeps_a_legal_row() {
        let plan = count_star(r_join_s()).build();
        let pruned = prune(&plan);
        assert_eq!(
            pruned.explain(),
            "Γ[; n: count(*)]\n  Π[]\n    ⋈[(r.a2 = s.b2)]\n      Scan r\n      Scan s\n"
        );
        assert_eq!(pruned.children()[0].schema().arity(), 0);
    }

    #[test]
    fn a_streamed_join_gets_no_projection_of_its_own() {
        // ⋈ → σ → Π is one pipeline: the Π at its top is where rows get
        // built, and it already says which columns.
        let plan = sum(
            r_join_s()
                .filter(Scalar::qcol("r", "a4").gt(Scalar::qcol("s", "b4")))
                .project_columns(&[("r", "a1"), ("s", "b1")]),
            "s",
            "b1",
        )
        .build();
        assert_eq!(
            prune(&plan).explain(),
            "Γ[; total: sum(s.b1)]\n  Π[s.b1]\n    σ[(r.a4 > s.b4)]\n      ⋈[(r.a2 = s.b2)]\n        Scan r\n        Scan s\n"
        );
    }

    #[test]
    fn whole_row_readers_and_roots_keep_every_column() {
        let all = [("r", "a1"), ("r", "a4"), ("s", "b1")];
        // SELECT *: the block's root.
        let star = r_join_s().project_columns(&all).build();
        assert!(Arc::ptr_eq(&prune(&star), &star));
        // SELECT DISTINCT *.
        let distinct = PlanBuilder::from_plan(star.clone()).distinct().build();
        assert!(Arc::ptr_eq(&prune(&distinct), &distinct));
        // COUNT(DISTINCT *) compares whole rows.
        let count_distinct = PlanBuilder::from_plan(star)
            .aggregate(vec![], vec![(AggCall::count_distinct_star(), "n".into())])
            .build();
        assert!(Arc::ptr_eq(&prune(&count_distinct), &count_distinct));
    }

    #[test]
    fn union_inputs_stay_aligned() {
        // One input is a Π, the other a bare stream tap; the consumer
        // reads one column of four.
        let (pos, neg) = r().bypass_filter(Scalar::qcol("r", "a4").gt(Scalar::lit(1500i64)));
        let all = [("r", "a1"), ("r", "a2"), ("r", "a3"), ("r", "a4")];
        let plan = sum(pos.project_columns(&all).union(neg), "r", "a2").build();
        let pruned = prune(&plan);
        let LogicalPlan::Union { left, right } = pruned.children()[0].as_ref() else {
            panic!("expected ∪̇:\n{}", pruned.explain());
        };
        for input in [left, right] {
            let LogicalPlan::Project { exprs, .. } = input.as_ref() else {
                panic!("expected Π:\n{}", pruned.explain());
            };
            assert_eq!(exprs, &vec![(Scalar::qcol("r", "a2"), None)]);
        }
        assert_eq!(left.schema(), right.schema());
    }

    #[test]
    fn outer_join_defaults_and_keys_survive() {
        let groups = s()
            .aggregate(
                vec![Scalar::qcol("s", "b2")],
                vec![
                    (AggCall::count_star(), "g".into()),
                    (AggCall::count_star(), "unread".into()),
                ],
            )
            .project(vec![
                (Scalar::qcol("s", "b2"), Some("k".into())),
                (Scalar::col("g"), None),
                (Scalar::col("unread"), None),
            ]);
        let plan = count_star(r().outer_join(
            groups,
            Scalar::qcol("r", "a2").eq(Scalar::col("k")),
            vec![("g".into(), Value::Int(0))],
        ))
        .build();
        let text = prune(&plan).explain();
        // Nobody reads `g` above the join, but the join pads with it.
        assert!(text.contains("Π[s.b2 AS k, g]\n"), "{text}");
        assert!(text.contains("Π[]\n    ⟕["), "{text}");
    }

    #[test]
    fn a_column_read_only_by_a_nested_block_survives() {
        // Correlated references reach the Π from one and from two blocks
        // down; `a1` is read by nobody.
        let innermost = PlanBuilder::test_scan("t", &["c3"])
            .filter(Scalar::qcol("r", "a3").eq(Scalar::qcol("t", "c3")))
            .build();
        let inner = s()
            .filter(
                Scalar::qcol("r", "a2")
                    .eq(Scalar::qcol("s", "b2"))
                    .and(Scalar::Exists {
                        negated: false,
                        plan: innermost,
                    }),
            )
            .build();
        let plan = count_star(
            r().project_columns(&[("r", "a1"), ("r", "a2"), ("r", "a3")])
                .filter(Scalar::Exists {
                    negated: false,
                    plan: inner,
                }),
        )
        .build();
        let text = prune(&plan).explain();
        assert!(text.contains("Π[r.a2, r.a3]\n"), "{text}");
    }

    #[test]
    fn both_streams_of_a_bypass_filter_get_their_union() {
        // The positive stream's consumer reads a1, the negative one's b1,
        // the σ± itself a4: the join under it builds exactly those.
        let (pos, neg) = r_join_s().bypass_filter(Scalar::qcol("r", "a4").gt(Scalar::lit(0i64)));
        let plan = sum(pos, "r", "a1").cross_join(sum(neg, "s", "b1")).build();
        let text = prune(&plan).explain();
        assert!(text.contains("Π[r.a1, r.a4, s.b1]\n"), "{text}");
        assert_eq!(text.matches("Π[").count(), 1, "{text}");
    }

    #[test]
    fn a_shared_join_is_narrowed_once_for_all_its_consumers() {
        let shared = r_join_s();
        let plan = sum(shared.clone(), "r", "a1")
            .cross_join(sum(shared, "s", "b1"))
            .build();
        let pruned = prune(&plan);
        let inputs: Vec<_> = pruned
            .children()
            .into_iter()
            .map(|agg| agg.children()[0].clone())
            .collect();
        assert!(Arc::ptr_eq(&inputs[0], &inputs[1]), "{}", pruned.explain());
        assert!(inputs[0].explain().starts_with("Π[r.a1, s.b1]\n"));
    }

    #[test]
    fn expressions_that_could_raise_are_still_evaluated() {
        // SELECT COUNT(*) FROM (SELECT a2, a1 / 0 AS x, a3 + 1 FROM r) d
        let division = Scalar::binary(BinOp::Div, Scalar::qcol("r", "a1"), Scalar::lit(0i64));
        let addition = Scalar::binary(BinOp::Add, Scalar::qcol("r", "a3"), Scalar::lit(1i64));
        let plan = count_star(
            r().project(vec![
                (Scalar::qcol("r", "a2"), None),
                (division, Some("x".into())),
                (addition, None),
            ])
            .aliased("d"),
        )
        .build();
        // The unaliased survivor keeps the name its position gave it.
        assert_eq!(
            prune(&plan).explain(),
            "Γ[; n: count(*)]\n  ρ[d]\n    Π[(r.a1 / 0) AS x, (r.a3 + 1) AS __col2]\n      Scan r\n"
        );
    }
}
