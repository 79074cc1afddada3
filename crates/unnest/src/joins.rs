//! Generic join ordering and predicate pushdown.
//!
//! The canonical translation produces `σ_p(R₁ × R₂ × …)` — correct but
//! hopeless to execute literally (TPC-H 2d would materialize a 10⁹-row
//! cross product). This pass rewrites every filter-over-cross-product
//! region into a left-deep tree of inner joins:
//!
//! 1. conjuncts referencing a single input are pushed onto that input,
//! 2. the join tree is built greedily, always joining in an input that
//!    is *connected* to the current tree by some conjunct (hash-joinable
//!    later), falling back to a cross product only when no conjunct
//!    connects,
//! 3. conjuncts containing subqueries or free (correlation) references
//!    stay in a selection above the join tree — exactly the shape the
//!    unnesting driver and the canonical evaluator expect.
//!
//! The pass is applied by **every** strategy (it is orthogonal to
//! unnesting: the paper's plans also join before they filter); it also
//! descends into nested subquery plans so the inner blocks of canonical
//! plans are joined sensibly too.

use std::sync::Arc;

use bypass_algebra::{rewrite, Blocks, LogicalPlan, Scalar};
use bypass_types::Schema;

/// Apply join ordering everywhere in the plan (including nested
/// subquery plans inside predicates).
pub fn optimize_joins(plan: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
    let _span = bypass_trace::span("unnest.optimize_joins");
    rewrite(plan, &mut join_region, Blocks::Nested)
}

/// The rule, bottom-up: a filter-over-cross-product region rooted at
/// `node` becomes a join tree.
fn join_region(node: Arc<LogicalPlan>) -> Arc<LogicalPlan> {
    let (region, predicate) = match node.as_ref() {
        LogicalPlan::Filter { input, predicate } => (input, Some(predicate)),
        // A bare cross-product region without a filter on top can still
        // contain pushable conjuncts from inner filters.
        LogicalPlan::CrossJoin { .. } => (&node, None),
        _ => return node,
    };
    let (inputs, mut conjuncts) = flatten_region(region);
    if inputs.len() < 2 {
        return node;
    }
    conjuncts.extend(predicate.iter().flat_map(|p| p.conjuncts()).cloned());
    build_join_tree(inputs, conjuncts)
}

/// Flatten a region of cross products and filters into its atomic
/// inputs plus the conjuncts collected on the way.
fn flatten_region(plan: &Arc<LogicalPlan>) -> (Vec<Arc<LogicalPlan>>, Vec<Scalar>) {
    let mut inputs = Vec::new();
    let mut conjuncts = Vec::new();
    fn walk(
        plan: &Arc<LogicalPlan>,
        inputs: &mut Vec<Arc<LogicalPlan>>,
        conjuncts: &mut Vec<Scalar>,
    ) {
        match plan.as_ref() {
            LogicalPlan::CrossJoin { left, right } => {
                walk(left, inputs, conjuncts);
                walk(right, inputs, conjuncts);
            }
            LogicalPlan::Filter { input, predicate } => {
                conjuncts.extend(predicate.conjuncts().into_iter().cloned());
                walk(input, inputs, conjuncts);
            }
            _ => inputs.push(plan.clone()),
        }
    }
    walk(plan, &mut inputs, &mut conjuncts);
    (inputs, conjuncts)
}

/// Greedy left-deep join-tree construction.
fn build_join_tree(inputs: Vec<Arc<LogicalPlan>>, conjuncts: Vec<Scalar>) -> Arc<LogicalPlan> {
    let schemas: Vec<Schema> = inputs.iter().map(|i| i.schema()).collect();
    // Classify each conjunct: the set of inputs it references. Conjuncts
    // with subqueries or unresolvable (correlation) refs go on top.
    let mut top: Vec<Scalar> = Vec::new();
    let mut pushed: Vec<Vec<Scalar>> = vec![Vec::new(); inputs.len()];
    let mut join_conjs: Vec<(Scalar, Vec<usize>)> = Vec::new();
    'conj: for c in conjuncts {
        if c.contains_subquery() {
            top.push(c);
            continue;
        }
        let mut used = Vec::new();
        for r in c.column_refs() {
            let mut found = None;
            for (i, s) in schemas.iter().enumerate() {
                if r.resolves_in(s) {
                    found = Some(i);
                    break;
                }
            }
            match found {
                Some(i) => {
                    if !used.contains(&i) {
                        used.push(i);
                    }
                }
                None => {
                    // Correlation reference — not resolvable here.
                    top.push(c);
                    continue 'conj;
                }
            }
        }
        match used.len() {
            0 => top.push(c), // constant predicate: keep on top
            1 => pushed[used[0]].push(c),
            _ => join_conjs.push((c, used)),
        }
    }

    // Apply pushed single-input conjuncts.
    let mut parts: Vec<Option<Arc<LogicalPlan>>> = inputs
        .into_iter()
        .zip(pushed)
        .map(|(p, cs)| {
            Some(match Scalar::conjunction(cs) {
                Some(pred) => Arc::new(LogicalPlan::Filter {
                    input: p,
                    predicate: pred,
                }),
                None => p,
            })
        })
        .collect();

    // Greedy connection: start from input 0.
    let mut in_tree = vec![false; parts.len()];
    let mut tree = parts[0].take().expect("first input");
    in_tree[0] = true;
    let mut remaining = parts.iter().filter(|p| p.is_some()).count();
    while remaining > 0 {
        // Find a conjunct linking the tree to exactly one new input.
        let mut next: Option<usize> = None;
        for (_, used) in &join_conjs {
            let new: Vec<usize> = used.iter().copied().filter(|&i| !in_tree[i]).collect();
            let old = used.iter().any(|&i| in_tree[i]);
            if old && new.len() == 1 {
                next = Some(new[0]);
                break;
            }
        }
        // Fall back to the next unused input (cross product).
        let next = next.unwrap_or_else(|| {
            parts
                .iter()
                .position(|p| p.is_some())
                .expect("remaining input")
        });
        let right = parts[next].take().expect("unused input");
        in_tree[next] = true;
        remaining -= 1;
        // Collect every join conjunct now fully contained in the tree.
        let mut preds = Vec::new();
        join_conjs.retain(|(c, used)| {
            if used.iter().all(|&i| in_tree[i]) {
                preds.push(c.clone());
                false
            } else {
                true
            }
        });
        tree = match Scalar::conjunction(preds) {
            Some(pred) => Arc::new(LogicalPlan::Join {
                left: tree,
                right,
                predicate: pred,
            }),
            None => Arc::new(LogicalPlan::CrossJoin { left: tree, right }),
        };
    }

    // Anything not yet applied (should not happen for join conjuncts,
    // but be safe) plus the top conjuncts.
    let leftover: Vec<Scalar> = join_conjs.into_iter().map(|(c, _)| c).collect();
    let all_top: Vec<Scalar> = leftover.into_iter().chain(top).collect();
    match Scalar::conjunction(all_top) {
        Some(pred) => Arc::new(LogicalPlan::Filter {
            input: tree,
            predicate: pred,
        }),
        None => tree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_algebra::{AggCall, PlanBuilder};

    #[test]
    fn cross_products_become_joins() {
        let plan = PlanBuilder::test_scan("a", &["x"])
            .cross_join(PlanBuilder::test_scan("b", &["y"]))
            .cross_join(PlanBuilder::test_scan("c", &["z"]))
            .filter(
                Scalar::qcol("a", "x")
                    .eq(Scalar::qcol("b", "y"))
                    .and(Scalar::qcol("b", "y").eq(Scalar::qcol("c", "z")))
                    .and(Scalar::qcol("a", "x").gt(Scalar::lit(5i64))),
            )
            .build();
        let out = optimize_joins(&plan);
        let text = out.explain();
        assert!(!text.contains("×"), "no cross products left:\n{text}");
        assert_eq!(text.matches("⋈").count(), 2, "{text}");
        // Local predicate pushed onto scan a.
        assert!(text.contains("σ[(a.x > 5)]"), "{text}");
        // Schema order may change; the output schema must still contain
        // all three columns.
        assert_eq!(out.schema().arity(), 3);
    }

    #[test]
    fn correlation_and_subquery_conjuncts_stay_on_top() {
        let sub = PlanBuilder::test_scan("s", &["b"])
            .aggregate(vec![], vec![(AggCall::count_star(), "c".into())])
            .build();
        let plan = PlanBuilder::test_scan("a", &["x"])
            .cross_join(PlanBuilder::test_scan("b", &["y"]))
            .filter(
                Scalar::qcol("a", "x")
                    .eq(Scalar::qcol("b", "y"))
                    .and(Scalar::col("outer_ref").eq(Scalar::qcol("a", "x")))
                    .and(Scalar::qcol("a", "x").eq(Scalar::Subquery(sub))),
            )
            .build();
        let out = optimize_joins(&plan);
        let text = out.explain();
        // Join built; correlation + subquery conjuncts in the top filter.
        assert!(text.contains("⋈"), "{text}");
        let LogicalPlan::Filter { predicate, .. } = out.as_ref() else {
            panic!("top filter expected:\n{text}");
        };
        assert!(predicate.contains_subquery());
        assert!(predicate.to_string().contains("outer_ref"));
    }

    #[test]
    fn unconnected_inputs_fall_back_to_cross() {
        let plan = PlanBuilder::test_scan("a", &["x"])
            .cross_join(PlanBuilder::test_scan("b", &["y"]))
            .filter(Scalar::qcol("a", "x").gt(Scalar::lit(1i64)))
            .build();
        let out = optimize_joins(&plan);
        let text = out.explain();
        assert!(text.contains("×"), "{text}");
        assert!(text.contains("σ[(a.x > 1)]"), "{text}");
    }

    #[test]
    fn descends_into_subquery_plans() {
        let inner = PlanBuilder::test_scan("s", &["b"])
            .cross_join(PlanBuilder::test_scan("t", &["c"]))
            .filter(
                Scalar::qcol("s", "b")
                    .eq(Scalar::qcol("t", "c"))
                    .and(Scalar::col("x").eq(Scalar::qcol("s", "b"))),
            )
            .aggregate(vec![], vec![(AggCall::count_star(), "n".into())])
            .build();
        let plan = PlanBuilder::test_scan("a", &["x"])
            .filter(Scalar::qcol("a", "x").eq(Scalar::Subquery(inner)))
            .build();
        let out = optimize_joins(&plan);
        let text = out.explain();
        assert!(
            text.contains("⋈[(s.b = t.c)]"),
            "inner block joined:\n{text}"
        );
    }

    #[test]
    fn idempotent_on_already_joined_plans() {
        let plan = PlanBuilder::test_scan("a", &["x"])
            .join(
                PlanBuilder::test_scan("b", &["y"]),
                Scalar::qcol("a", "x").eq(Scalar::qcol("b", "y")),
            )
            .build();
        let out = optimize_joins(&plan);
        assert!(Arc::ptr_eq(&plan, &out));
    }
}
