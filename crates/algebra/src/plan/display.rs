//! Plan rendering: an indented, paper-style notation (σ, Π, Γ, ⟕, χ, ν,
//! σ±, ⋈±, ∪̇) with DAG-aware printing — a bypass node shared by two
//! streams, and any node two consumers read, is printed once and
//! referenced by id afterwards, mirroring the solid/dotted edge notation
//! of the paper's figures.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::plan::node::{LogicalPlan, Stream};

impl LogicalPlan {
    /// Render the plan as an indented operator tree (DAG references are
    /// marked `shared #n`). This is the stable format the plan-shape
    /// golden tests assert on.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let mut reached = HashMap::new();
        count_reaches(self, &mut reached);
        let mut printer = Printer {
            out: &mut out,
            reached,
            seen: HashMap::new(),
            next_id: 1,
        };
        printer.node(self, 0);
        out
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// How many edges — inputs and subquery plans — reach each node below
/// `plan`, each node's own edges counted once.
fn count_reaches(plan: &LogicalPlan, reached: &mut HashMap<*const LogicalPlan, usize>) {
    let exprs = plan.exprs();
    let subqueries = exprs.iter().flat_map(|e| e.subquery_plans());
    for c in plan.children().into_iter().chain(subqueries) {
        let n = reached.entry(Arc::as_ptr(c)).or_insert(0);
        *n += 1;
        if *n == 1 {
            count_reaches(c, reached);
        }
    }
}

struct Printer<'a> {
    out: &'a mut String,
    /// Edges reaching each node: a node reached twice is numbered.
    reached: HashMap<*const LogicalPlan, usize>,
    /// Numbered nodes (every bypass node) already printed → id.
    seen: HashMap<*const LogicalPlan, usize>,
    next_id: usize,
}

impl Printer<'_> {
    fn line(&mut self, depth: usize, text: &str) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// The id of a node printed for the first time.
    fn number(&mut self, ptr: *const LogicalPlan) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.seen.insert(ptr, id);
        id
    }

    fn node(&mut self, plan: &LogicalPlan, depth: usize) {
        // Stream nodes print their bypass source inline with a +/- tag.
        if let LogicalPlan::Stream { source, stream } = plan {
            self.stream(source, *stream, depth);
            return;
        }
        let (ptr, mut text) = (plan as *const LogicalPlan, label(plan));
        if self.reached.get(&ptr).is_some_and(|&n| n > 1) {
            if let Some(&id) = self.seen.get(&ptr) {
                return self.line(depth, &format!("{text} (shared #{id})"));
            }
            text = format!("{text} (#{})", self.number(ptr));
        }
        self.line(depth, &text);
        self.subqueries(plan, depth + 1);
        for c in plan.children() {
            self.node(c, depth + 1);
        }
    }

    fn stream(&mut self, source: &Arc<LogicalPlan>, stream: Stream, depth: usize) {
        let ptr = Arc::as_ptr(source);
        if let Some(&id) = self.seen.get(&ptr) {
            // Already printed: emit a reference only.
            let sym = bypass_symbol(source);
            self.line(depth, &format!("{sym}{} (shared #{id})", stream.sign()));
            return;
        }
        let id = self.number(ptr);
        let sym = bypass_symbol(source);
        let pred = source
            .exprs()
            .first()
            .map(|e| e.to_string())
            .unwrap_or_default();
        self.line(depth, &format!("{sym}{}[{pred}] (#{id})", stream.sign()));
        self.subqueries(source, depth + 1);
        for c in source.children() {
            self.node(c, depth + 1);
        }
    }

    /// Nested plans inside this node's predicates, printed as labelled
    /// sub-blocks before the relational children.
    fn subqueries(&mut self, plan: &LogicalPlan, depth: usize) {
        for e in plan.exprs() {
            for sq in e.subquery_plans() {
                self.line(depth, "subquery:");
                self.node(sq, depth + 1);
            }
        }
    }
}

fn bypass_symbol(source: &LogicalPlan) -> &'static str {
    match source {
        LogicalPlan::BypassJoin { .. } => "⋈±",
        _ => "σ±",
    }
}

fn label(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { table, alias, .. } => {
            if table == alias {
                format!("Scan {table}")
            } else {
                format!("Scan {table} AS {alias}")
            }
        }
        LogicalPlan::Singleton => "Singleton".to_string(),
        LogicalPlan::Filter { predicate, .. } => format!("σ[{predicate}]"),
        LogicalPlan::Project { exprs, .. } => {
            let cols: Vec<String> = exprs
                .iter()
                .map(|(e, a)| match a {
                    Some(a) => format!("{e} AS {a}"),
                    None => e.to_string(),
                })
                .collect();
            format!("Π[{}]", cols.join(", "))
        }
        LogicalPlan::CrossJoin { .. } => "×".to_string(),
        LogicalPlan::Join { predicate, .. } => format!("⋈[{predicate}]"),
        LogicalPlan::OuterJoin {
            predicate,
            defaults,
            ..
        } => {
            let d: Vec<String> = defaults.iter().map(|(n, v)| format!("{n}←{v}")).collect();
            format!("⟕[{predicate}] defaults[{}]", d.join(", "))
        }
        LogicalPlan::Aggregate { keys, aggs, .. } => {
            let k: Vec<String> = keys.iter().map(|e| e.to_string()).collect();
            let a: Vec<String> = aggs
                .iter()
                .map(|(agg, name)| format!("{name}: {agg}"))
                .collect();
            format!("Γ[{}; {}]", k.join(", "), a.join(", "))
        }
        LogicalPlan::BinaryGroup {
            left_key,
            right_key,
            agg,
            name,
            ..
        } => format!("Γᵇ[{name}: {agg} | {left_key} = {right_key}]"),
        LogicalPlan::Map { expr, name, .. } => format!("χ[{name}: {expr}]"),
        LogicalPlan::Numbering { name, .. } => format!("ν[{name}]"),
        LogicalPlan::Distinct { .. } => "δ".to_string(),
        LogicalPlan::Sort { keys, .. } => {
            let k: Vec<String> = keys
                .iter()
                .map(|(e, desc)| format!("{e}{}", if *desc { " DESC" } else { "" }))
                .collect();
            format!("Sort[{}]", k.join(", "))
        }
        LogicalPlan::Limit { n, .. } => format!("Limit[{n}]"),
        LogicalPlan::Alias { alias, .. } => format!("ρ[{alias}]"),
        LogicalPlan::Union { .. } => "∪̇".to_string(),
        LogicalPlan::BypassFilter { predicate, .. } => format!("σ±[{predicate}]"),
        LogicalPlan::BypassJoin { predicate, .. } => format!("⋈±[{predicate}]"),
        LogicalPlan::Stream { .. } => unreachable!("streams are printed inline"),
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::{AggCall, Scalar};
    use crate::plan::PlanBuilder;

    #[test]
    fn tree_rendering() {
        let plan = PlanBuilder::test_scan("r", &["a1", "a4"])
            .filter(Scalar::qcol("r", "a4").gt(Scalar::lit(1500i64)))
            .project_columns(&[("r", "a1")])
            .build();
        let text = plan.explain();
        assert_eq!(text, "Π[r.a1]\n  σ[(r.a4 > 1500)]\n    Scan r\n");
    }

    #[test]
    fn dag_rendering_shares_bypass() {
        let (pos, neg) = PlanBuilder::test_scan("r", &["a"])
            .bypass_filter(Scalar::qcol("r", "a").gt(Scalar::lit(0i64)));
        let plan = pos.union(neg).build();
        let text = plan.explain();
        assert!(text.contains("σ±+[(r.a > 0)] (#1)"), "{text}");
        assert!(text.contains("σ±- (shared #1)"), "{text}");
        // The scan is printed exactly once.
        assert_eq!(text.matches("Scan r").count(), 1, "{text}");
    }

    #[test]
    fn subquery_rendering() {
        let sub = PlanBuilder::test_scan("s", &["b2"])
            .aggregate(vec![], vec![(AggCall::count_star(), "c".into())])
            .build();
        let plan = PlanBuilder::test_scan("r", &["a1"])
            .filter(Scalar::qcol("r", "a1").eq(Scalar::Subquery(sub)))
            .build();
        let text = plan.explain();
        assert!(text.contains("subquery:"), "{text}");
        assert!(text.contains("Γ[; c: count(*)]"), "{text}");
    }
}
