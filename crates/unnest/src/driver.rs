//! The bypass unnesting rule: the paper's equivalences applied top-down
//! over a canonical plan by [`bypass_algebra::rewrite`], handling simple,
//! linear and tree nested queries.
//!
//! For every selection whose predicate contains a nested block
//! ([`rewrite_selection`]) the rule:
//!
//! 1. desugars quantified subqueries (EXISTS / positive IN) into count
//!    comparisons,
//! 2. splits the predicate into conjuncts and keeps the subquery-free
//!    ones as an ordinary selection below,
//! 3. rewrites the first subquery-bearing conjunct:
//!    * a plain conjunct (no disjunction) is unnested in place —
//!      Eqv. 1 / 4 / 5 via [`crate::attach`],
//!    * a disjunction is split as [`Split`] says — here into a **bypass
//!      chain** (the generalization of Eqv. 2/3 to n disjuncts):
//!      disjuncts are ordered by rank, each non-final disjunct turns
//!      into a bypass selection whose positive stream exits into the
//!      final disjoint union, and subquery disjuncts are unnested right
//!      before their bypass selection,
//! 4. hands the result back to the rewriter, which visits it like any
//!    other plan — including the selections the rewrites themselves emit.
//!
//! Any unsupported shape falls back to canonical nested-loop evaluation
//! for that predicate only.

use std::sync::Arc;

use bypass_algebra::{rewrite, Blocks, LogicalPlan, PlanBuilder, Rule, Scalar};
use bypass_types::{Result, Schema};

use crate::analysis::{scalar_subqueries, substitute_subquery};
use crate::attach::attach_aggregate;
use crate::names::NameGen;
use crate::quantified::desugar_quantified;
use crate::rank::{order_disjuncts, DisjunctOrder};

/// Options steering the rewrite driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteOptions {
    /// How the disjuncts of a disjunctive predicate are ordered in the
    /// bypass chain (Eqv. 2 vs Eqv. 3, Section 3.1 Remark).
    pub order: DisjunctOrder,
}

/// What a disjunctive linking predicate `σ_{d₁ ∨ … ∨ dₙ}` turns into —
/// the one decision that separates the paper's plans from the OR→UNION
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Split {
    /// A bypass chain in this disjunct order (Eqv. 2/3), with the whole
    /// unnesting repertoire (Eqv. 1–5) below it.
    BypassChain(DisjunctOrder),
    /// Disjoint branches sharing nothing ([`crate::union_rewrite`]), and
    /// only the pre-bypass repertoire (Γ + outerjoin) inside them.
    DisjointBranches,
}

/// The state of one rewrite run. As a [`Rule`] it is the bypass
/// unnesting of the paper: selections (Eqv. 1–5) and SELECT-clause
/// nesting.
pub(crate) struct Ctx {
    pub names: NameGen,
    pub split: Split,
}

/// Unnest a canonical plan using the bypass equivalences. (No rewrite
/// can fail today; `Result` is the signature `Strategy::prepare` and
/// its callers are written against.)
pub fn unnest(plan: &Arc<LogicalPlan>, options: RewriteOptions) -> Result<Arc<LogicalPlan>> {
    let _span = bypass_trace::span("unnest.drive");
    let mut ctx = Ctx {
        names: NameGen::new(),
        split: Split::BypassChain(options.order),
    };
    // Nested blocks too: a canonical fallback for the outer block does
    // not preclude unnesting within the inner one.
    Ok(rewrite(plan, &mut ctx, Blocks::Nested))
}

impl Rule for Ctx {
    /// The rewrites leave selections with nested blocks in bypass streams
    /// (`σ_p` on a negative stream when p holds a block that inner-first
    /// attachment does not take, such as `Q4_FIG6`'s EXISTS — Fig. 6);
    /// the rewriter visits what `pre` returns, so those are unnested in
    /// turn.
    fn pre(&mut self, node: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        match node.as_ref() {
            LogicalPlan::Filter { input, predicate } => rewrite_selection(input, predicate, self),
            // Only a projection with a scalar subquery as written: a lone
            // EXISTS in the SELECT clause stays nested.
            LogicalPlan::Project { input, exprs }
                if exprs.iter().any(|(e, _)| !scalar_subqueries(e).is_empty()) =>
            {
                rewrite_projection(node, input, exprs, self)
            }
            _ => None,
        }
    }
}

/// Unnest one selection `σ_predicate(input)`. Returns `None` when the
/// shape is unsupported (canonical fallback for this predicate only).
pub(crate) fn rewrite_selection(
    input: &Arc<LogicalPlan>,
    predicate: &Scalar,
    ctx: &mut Ctx,
) -> Option<Arc<LogicalPlan>> {
    if !predicate.contains_subquery() {
        return None;
    }
    let pred = desugar_quantified(predicate, true);
    let out_schema = input.schema();
    // Three kinds of conjuncts: rewritable (containing scalar
    // subqueries), inert (only non-attachable subqueries, e.g. NOT IN —
    // evaluated canonically above) and plain (applied below).
    let (mut rewritable, mut inert, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    for c in pred.conjuncts() {
        if !scalar_subqueries(c).is_empty() {
            rewritable.push(c.clone());
        } else if c.contains_subquery() {
            inert.push(c.clone());
        } else {
            plain.push(c.clone());
        }
    }
    if rewritable.is_empty() {
        return None;
    }
    let mut base = PlanBuilder::from_plan(input.clone());
    if let Some(p) = Scalar::conjunction(plain) {
        base = base.filter(p);
    }
    let target = rewritable.remove(0);
    let disjuncts: Vec<Scalar> = target.disjuncts().into_iter().cloned().collect();
    let result = if disjuncts.len() < 2 {
        // Conjunctive linking: unnest in place (Eqv. 1 core, or Eqv. 4/5
        // when the correlation inside is disjunctive).
        let (b, rewritten) = attach_subqueries(base, &target, ctx)?;
        project_to(b.filter(rewritten), &out_schema)
    } else {
        match ctx.split {
            Split::BypassChain(order) => bypass_chain(base, disjuncts, order, &out_schema, ctx)?,
            Split::DisjointBranches => {
                crate::union_rewrite::disjoint_branches(base, &disjuncts, &out_schema, ctx)?
            }
        }
    };
    // Remaining subquery conjuncts re-apply above (the rewriter revisits
    // the rewritable ones — conjunctive tree queries).
    let rest: Vec<Scalar> = rewritable.into_iter().chain(inert).collect();
    let result = match Scalar::conjunction(rest) {
        Some(rest) => result.filter(rest),
        None => result,
    };
    Some(result.build())
}

/// Unnest scalar subqueries inside projection expressions (nesting in
/// the SELECT clause). Each subquery is attached to the projection input
/// as a computed column; the projection keeps its original output names.
fn rewrite_projection(
    original: &Arc<LogicalPlan>,
    input: &Arc<LogicalPlan>,
    exprs: &[(Scalar, Option<String>)],
    ctx: &mut Ctx,
) -> Option<Arc<LogicalPlan>> {
    let out_schema = original.schema();
    let mut b = PlanBuilder::from_plan(input.clone());
    let mut new_exprs: Vec<(Scalar, Option<String>)> = Vec::with_capacity(exprs.len());
    let mut changed = false;
    for (i, (e, alias)) in exprs.iter().enumerate() {
        // A projected value is not a WHERE-clause predicate: FALSE and
        // UNKNOWN are *visible* in the output, so the count rewrites for
        // IN/ANY/ALL (which conflate them) must not fire — polarity
        // `false` keeps them nested and only rewrites EXISTS (exact).
        let e = desugar_quantified(e, false);
        if scalar_subqueries(&e).is_empty() {
            new_exprs.push((e, alias.clone()));
            continue;
        }
        let (b2, rewritten) = attach_subqueries(b.clone(), &e, ctx)?;
        b = b2;
        changed = true;
        // Pin the original output column name.
        new_exprs.push((rewritten, Some(out_schema.field(i).name().to_string())));
    }
    changed.then(|| b.project(new_exprs).build())
}

/// The bypass chain (Eqv. 2/3 generalized to n disjuncts): disjuncts in
/// `order`, each non-final one a bypass selection whose positive stream
/// exits into the final disjoint union, subquery disjuncts unnested
/// right before their bypass selection. The produced plan has schema
/// `out_schema`.
fn bypass_chain(
    base: PlanBuilder,
    disjuncts: Vec<Scalar>,
    order: DisjunctOrder,
    out_schema: &Schema,
    ctx: &mut Ctx,
) -> Option<PlanBuilder> {
    let mut sp = bypass_trace::span("unnest.bypass_chain");
    crate::outcomes::record_outcome("bypass:chain");
    if sp.is_recording() {
        sp.arg("disjuncts", disjuncts.len() as u64);
    }
    let ordered = order_disjuncts(disjuncts, order);
    let mut current = base;
    let mut outputs: Vec<PlanBuilder> = Vec::new();
    let n = ordered.len();
    for (i, d) in ordered.into_iter().enumerate() {
        // Unnest this disjunct's subqueries against the running stream.
        let (plan, rewritten) = attach_subqueries(current.clone(), &d, ctx)?;
        if i == n - 1 {
            outputs.push(project_to(plan.filter(rewritten), out_schema));
        } else {
            let (pos, neg) = plan.bypass_filter(rewritten);
            outputs.push(project_to(pos, out_schema));
            current = project_to(neg, out_schema);
        }
    }
    outputs.into_iter().reduce(PlanBuilder::union)
}

/// Replace every scalar subquery in `expr` by an attached aggregate
/// column over `builder`. Quantified subqueries that survived
/// desugaring (e.g. NOT IN) stay nested — the expression remains
/// correct, it is simply evaluated canonically.
pub(crate) fn attach_subqueries(
    builder: PlanBuilder,
    expr: &Scalar,
    ctx: &mut Ctx,
) -> Option<(PlanBuilder, Scalar)> {
    let mut subs = scalar_subqueries(expr);
    // The same nested block may occur several times in one expression
    // (e.g. `¬d ∨ d IS NULL` duplicates d): attach it once, substitution
    // replaces every occurrence.
    {
        let mut seen = std::collections::HashSet::new();
        subs.retain(|p| seen.insert(Arc::as_ptr(p)));
    }
    let mut b = builder;
    let mut e = expr.clone();
    for sub in subs {
        let (b2, g) = attach_aggregate(b, &sub, ctx)?;
        b = b2;
        e = substitute_subquery(&e, &sub, &Scalar::col(g));
    }
    Some((b, e))
}

/// Project a (possibly attachment-extended) stream back to the original
/// block schema `A(R)` — the final `Π_{A(R)}` of every equivalence.
pub(crate) fn project_to(b: PlanBuilder, schema: &Schema) -> PlanBuilder {
    let exprs = schema
        .fields()
        .iter()
        .map(|f| {
            let col = match f.qualifier() {
                Some(q) => Scalar::qcol(q, f.name()),
                None => Scalar::col(f.name()),
            };
            (col, None)
        })
        .collect();
    b.project(exprs)
}
