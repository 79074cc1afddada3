//! The one plan rewriter: every logical rewrite of the engine is a
//! [`Rule`] applied by [`rewrite`].
//!
//! Plans with bypass operators are DAGs, and a naive recursive rebuild
//! would duplicate a shared bypass node — silently turning the DAG into
//! a tree and doubling that operator's work at execution time. So the
//! walk is memoized by node address, and it is the only such walk:
//!
//! * a node reachable over several paths (two `Stream` parents, a nested
//!   block) is rewritten **once**, and every path ends up at the same
//!   rewritten `Arc`;
//! * a subtree no rule changed is returned **pointer-equal**;
//! * the visiting order is fixed — [`Rule::pre`], then the children left
//!   to right, then (under [`Blocks::Nested`]) the nested blocks inside
//!   the node's expressions left to right, then [`Rule::post`] (through
//!   [`Rule::post_of`]) — because
//!   rules draw fresh column names (`__g0`, `__k1`, …) as they fire and
//!   the plan goldens pin those names.

use std::sync::Arc;

use bypass_types::FxHashMap;

use crate::plan::node::LogicalPlan;

/// Whether [`rewrite`] enters the nested blocks (subquery plans) held
/// inside a node's expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocks {
    /// Rewrite the outermost block only; nested blocks stay as they are.
    TopOnly,
    /// Rewrite nested blocks too, sharing the memo with the outer walk.
    Nested,
}

/// One rewrite, applied at every node [`rewrite`] visits. A closure
/// `FnMut(Arc<LogicalPlan>) -> Arc<LogicalPlan>` is a rule with only a
/// [`Rule::post`].
pub trait Rule {
    /// Called on a node before its children are visited. Returning a
    /// replacement makes the walk continue *in the replacement* — it is
    /// visited like any other plan, `pre` included, so a rule composes
    /// with what it emits (linear and tree queries unfold this way) and
    /// must make progress to terminate. The node itself is dropped:
    /// neither its children nor `post` are visited.
    fn pre(&mut self, _node: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        None
    }

    /// Called on a node after its children and nested blocks were
    /// rewritten; returns what takes its place (the node itself for
    /// "no change").
    fn post(&mut self, node: Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        node
    }

    /// [`Rule::post`] for a rule that looked at the plan before the walk
    /// and keeps what it found by node: `original` is the node of the
    /// input plan that `node` is the rebuild of (the same `Arc` if
    /// nothing below it changed).
    fn post_of(
        &mut self,
        _original: &Arc<LogicalPlan>,
        node: Arc<LogicalPlan>,
    ) -> Arc<LogicalPlan> {
        self.post(node)
    }
}

impl<F: FnMut(Arc<LogicalPlan>) -> Arc<LogicalPlan>> Rule for F {
    fn post(&mut self, node: Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        self(node)
    }
}

/// Apply `rule` over the whole plan DAG (see the module docs for the
/// contract).
pub fn rewrite(plan: &Arc<LogicalPlan>, rule: &mut impl Rule, blocks: Blocks) -> Arc<LogicalPlan> {
    Rewriter {
        rule,
        blocks,
        memo: FxHashMap::default(),
    }
    .visit(plan)
}

struct Rewriter<'r, R> {
    rule: &'r mut R,
    blocks: Blocks,
    /// Node address → (the node, its rewrite). The entry holds the node
    /// itself because an address alone does not keep it alive: the
    /// replacement plans of [`Rule::pre`] are temporaries, and a later
    /// allocation reusing a freed address would replay an unrelated
    /// rewrite.
    memo: FxHashMap<*const LogicalPlan, (Arc<LogicalPlan>, Arc<LogicalPlan>)>,
}

impl<R: Rule> Rewriter<'_, R> {
    fn visit(&mut self, plan: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        if let Some((_alive, done)) = self.memo.get(&Arc::as_ptr(plan)) {
            return done.clone();
        }
        let out = match self.rule.pre(plan) {
            Some(replacement) => self.visit(&replacement),
            None => {
                let node = self.visit_children(plan);
                let node = match self.blocks {
                    Blocks::Nested => self.visit_nested(node),
                    Blocks::TopOnly => node,
                };
                self.rule.post_of(plan, node)
            }
        };
        self.memo
            .insert(Arc::as_ptr(plan), (plan.clone(), out.clone()));
        out
    }

    fn visit_children(&mut self, plan: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        let old = plan.children();
        let new: Vec<Arc<LogicalPlan>> = old.iter().map(|c| self.visit(c)).collect();
        if new.iter().zip(&old).all(|(a, b)| Arc::ptr_eq(a, b)) {
            plan.clone()
        } else {
            Arc::new(plan.with_children(new))
        }
    }

    fn visit_nested(&mut self, node: Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        if !node.exprs().iter().any(|e| e.contains_subquery()) {
            return node;
        }
        let mut changed = false;
        let rebuilt = node.map_exprs(&mut |e| {
            e.map_plans(&mut |block| {
                let out = self.visit(block);
                changed |= !Arc::ptr_eq(&out, block);
                out
            })
        });
        if changed {
            Arc::new(rebuilt)
        } else {
            node
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Scalar;
    use crate::plan::PlanBuilder;

    fn scan(table: &str) -> Arc<LogicalPlan> {
        PlanBuilder::test_scan(table, &["a"]).build()
    }

    fn is_scan_of(plan: &LogicalPlan, name: &str) -> bool {
        matches!(plan, LogicalPlan::Scan { table, .. } if table == name)
    }

    /// A rule replacing every scan of `from` by one shared scan of `to`.
    fn replace_scans(
        from: &'static str,
        to: &'static str,
    ) -> impl FnMut(Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        let replacement = scan(to);
        move |p| {
            if is_scan_of(&p, from) {
                replacement.clone()
            } else {
                p
            }
        }
    }

    #[test]
    fn identity_rule_returns_the_input_pointer() {
        let nested = PlanBuilder::from_plan(scan("s"))
            .filter(Scalar::col("a").eq(Scalar::qcol("s", "a")))
            .build();
        let plan = PlanBuilder::from_plan(scan("r"))
            .filter(Scalar::qcol("r", "a").eq(Scalar::Subquery(nested)))
            .build();
        struct Identity;
        impl Rule for Identity {}
        for blocks in [Blocks::TopOnly, Blocks::Nested] {
            assert!(Arc::ptr_eq(&plan, &rewrite(&plan, &mut Identity, blocks)));
            assert!(Arc::ptr_eq(&plan, &rewrite(&plan, &mut |p| p, blocks)));
        }
    }

    #[test]
    fn bypass_shared_by_streams_and_a_nested_block_is_rewritten_once() {
        // σ_{a = ⟨Stream+(B)⟩}(Stream+(B) ∪̇ Stream-(B)), B = σ±(r): B is
        // reachable over two Stream parents and from the nested block.
        let (pos, neg) =
            PlanBuilder::from_plan(scan("r")).bypass_filter(Scalar::col("a").gt(Scalar::lit(0i64)));
        let nested = pos.clone().build();
        let plan = pos
            .union(neg)
            .filter(Scalar::col("a").eq(Scalar::Subquery(nested)))
            .build();

        let mut bypass_visits = 0;
        let mut replace = replace_scans("r", "r2");
        let out = rewrite(
            &plan,
            &mut |p: Arc<LogicalPlan>| {
                if matches!(p.as_ref(), LogicalPlan::BypassFilter { .. }) {
                    bypass_visits += 1;
                }
                replace(p)
            },
            Blocks::Nested,
        );
        assert_eq!(bypass_visits, 1, "shared node rewritten once");

        let LogicalPlan::Filter { input, predicate } = out.as_ref() else {
            panic!("expected filter");
        };
        let LogicalPlan::Union { left, right } = input.as_ref() else {
            panic!("expected union");
        };
        let source = |p: &Arc<LogicalPlan>| match p.as_ref() {
            LogicalPlan::Stream { source, .. } => source.clone(),
            other => panic!("expected stream, got {other:?}"),
        };
        let block = predicate.subquery_plans()[0].clone();
        assert!(
            Arc::ptr_eq(left, &block),
            "the positive stream is shared too"
        );
        let bypass = source(left);
        assert!(Arc::ptr_eq(&bypass, &source(right)), "streams share it");
        assert!(
            Arc::ptr_eq(&bypass, &source(&block)),
            "nested block shares it"
        );
        let LogicalPlan::BypassFilter { input, .. } = bypass.as_ref() else {
            panic!("expected bypass");
        };
        assert!(is_scan_of(input, "r2"), "and it was actually rewritten");
    }

    #[test]
    fn top_only_never_enters_a_nested_block() {
        let nested = scan("r");
        let plan = PlanBuilder::from_plan(scan("r"))
            .filter(Scalar::col("a").eq(Scalar::Subquery(nested.clone())))
            .build();
        let out = rewrite(&plan, &mut replace_scans("r", "r2"), Blocks::TopOnly);
        let LogicalPlan::Filter { input, predicate } = out.as_ref() else {
            panic!("expected filter");
        };
        assert!(is_scan_of(input, "r2"), "outer block rewritten");
        assert!(Arc::ptr_eq(predicate.subquery_plans()[0], &nested));

        let out = rewrite(&plan, &mut replace_scans("r", "r2"), Blocks::Nested);
        let LogicalPlan::Filter { predicate, .. } = out.as_ref() else {
            panic!("expected filter");
        };
        assert!(is_scan_of(predicate.subquery_plans()[0], "r2"));
    }

    /// `pre` hands the walk a temporary plan which is dropped as soon as
    /// its own rewrite is known. Were the memo keyed by address alone,
    /// the next temporary would be allocated at the freed address and
    /// find the previous one's rewrite there.
    #[test]
    fn a_dropped_replacement_cannot_alias_a_later_one() {
        struct ViaTemporary;
        impl Rule for ViaTemporary {
            // σ_p(x) ⟶ Distinct(x), a fresh temporary …
            fn pre(&mut self, node: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
                match node.as_ref() {
                    LogicalPlan::Filter { input, .. } => {
                        Some(PlanBuilder::from_plan(input.clone()).distinct().build())
                    }
                    _ => None,
                }
            }
            // … ⟶ x, which leaves the temporary unreferenced.
            fn post(&mut self, node: Arc<LogicalPlan>) -> Arc<LogicalPlan> {
                match node.as_ref() {
                    LogicalPlan::Distinct { input } => input.clone(),
                    _ => node,
                }
            }
        }
        // Sibling selections: nothing of a plan node's size is allocated
        // between dropping the first temporary and making the second.
        let selection = |t| PlanBuilder::from_plan(scan(t)).filter(Scalar::lit(true));
        let plan = selection("t0").union(selection("t1")).build();
        let out = rewrite(&plan, &mut ViaTemporary, Blocks::TopOnly);
        let LogicalPlan::Union { left, right } = out.as_ref() else {
            panic!("expected union");
        };
        assert!(is_scan_of(left, "t0"), "{left:?}");
        assert!(is_scan_of(right, "t1"), "{right:?}");
    }
}
