//! The core unnesting primitive: **attach** a scalar-aggregate subquery
//! to an outer plan as a computed column.
//!
//! `attach_aggregate(current, sub)` returns a plan whose schema extends
//! `A(current)` by (at least) one column `g` holding, for every tuple of
//! `current`, the value the nested block would have produced for it —
//! with cardinality exactly `|current|` (Section 3.7 of the paper). The
//! caller then replaces the subquery by a reference to `g`.
//!
//! Dispatch, in order:
//!
//! 1. **Uncorrelated (type A)** — cross join with the one-row aggregate.
//! 2. **Conjunctive equality correlation** — Γ on the correlation keys +
//!    leftouterjoin with `f(∅)` defaults (the core of Eqv. 1/2/3).
//! 3. **Disjunctive correlation, Eqv. 4 conditions** (single equality
//!    correlation disjunct, decomposable aggregate, subquery-free rest
//!    `p`) — bypass selection on `p`, partial aggregates on both
//!    streams, χ to combine.
//! 4. **Disjunctive correlation, general (Eqv. 5)** — ν numbering,
//!    bypass join on the correlation disjunct(s), `σ_p` on the negative
//!    stream, disjoint union, ρ rename, binary grouping.
//! 5. **Fallback** — ν numbering, θ-join on the entire inner predicate,
//!    binary grouping (correct for any inner predicate; the join is
//!    hash-based whenever equality conjuncts exist).

use std::sync::Arc;

use bypass_algebra::{AggCall, AggFunc, BinOp, LogicalPlan, PlanBuilder, Scalar};
use bypass_types::Schema;

use crate::analysis::{eq_correlation, is_local, EqCorrelation};
use crate::driver::{Ctx, Split};
use crate::names::NameGen;
use crate::outcomes::record_outcome;

/// Report one attempt outcome: always bump the metrics tally, and
/// mirror it onto the trace span when tracing is recording.
fn outcome(sp: &mut bypass_trace::SpanGuard, rec: bool, key: &'static str) {
    record_outcome(key);
    if rec {
        sp.arg("outcome", key);
    }
}

/// Attach the scalar-aggregate subquery `agg_plan` to `current`.
/// Returns `None` when the subquery shape is not supported (the caller
/// falls back to canonical nested evaluation).
pub(crate) fn attach_aggregate(
    current: PlanBuilder,
    agg_plan: &Arc<LogicalPlan>,
    ctx: &mut Ctx,
) -> Option<(PlanBuilder, String)> {
    let names = &mut ctx.names;
    // One span per attempted equivalence: `outcome` records which of
    // Eqv. 1–5 fired, or why the subquery was rejected (stays nested).
    let mut sp = bypass_trace::span("unnest.attach");
    let rec = sp.is_recording();
    // The canonical shape of a scalar subquery: key-less single-aggregate.
    let LogicalPlan::Aggregate { input, keys, aggs } = agg_plan.as_ref() else {
        outcome(&mut sp, rec, "rejected:not-scalar-aggregate");
        return None;
    };
    if !keys.is_empty() || aggs.len() != 1 {
        outcome(&mut sp, rec, "rejected:keyed-or-multi-aggregate");
        return None;
    }
    let (agg, agg_name) = (&aggs[0].0, &aggs[0].1);

    // Type A: evaluate once, attach via cross product (cardinality ×1).
    if agg_plan.free_refs().is_empty() {
        outcome(&mut sp, rec, "type-a:cross-join");
        let g = names.fresh("g");
        let one_row = PlanBuilder::from_plan(agg_plan.clone())
            .project(vec![(Scalar::col(agg_name.clone()), Some(g.clone()))]);
        return Some((current.cross_join(one_row), g));
    }

    // Correlated: the canonical translation puts the correlation inside
    // the filter(s) directly below the aggregate. Consecutive filters
    // (e.g. from quantified-subquery desugaring) are flattened into one
    // conjunct list.
    let (source, conjuncts) = split_filters(input);
    if conjuncts.is_empty() {
        outcome(&mut sp, rec, "rejected:correlated-without-filter");
        return None;
    }
    // All correlation must live in those filters; free references deeper
    // inside the source would survive the rewrite un-bound.
    if !source.free_refs().is_empty() {
        outcome(&mut sp, rec, "rejected:free-refs-below-filter");
        return None;
    }
    let inner_schema = source.schema();
    // Aggregate argument must be evaluable in the inner block.
    if let Some(arg) = agg.arg.as_deref() {
        if !is_local(arg, &inner_schema) {
            outcome(&mut sp, rec, "rejected:non-local-aggregate-arg");
            return None;
        }
    }

    let (free_cs, local_cs): (Vec<Scalar>, Vec<Scalar>) = conjuncts
        .into_iter()
        .partition(|c| !is_local(c, &inner_schema));
    if free_cs.is_empty() {
        // Free refs hide somewhere we do not understand (nested deeper
        // than the top filter) — give up.
        outcome(&mut sp, rec, "rejected:hidden-correlation");
        return None;
    }

    // Case 2: every correlated conjunct is an equality — Γ + ⟕.
    let eq_corrs: Vec<Option<EqCorrelation>> = free_cs
        .iter()
        .map(|c| eq_correlation(c, &inner_schema))
        .collect();
    if eq_corrs.iter().all(Option::is_some) {
        outcome(&mut sp, rec, "eqv1:gamma-outerjoin");
        let corrs: Vec<EqCorrelation> = eq_corrs.into_iter().flatten().collect();
        return Some(gamma_outerjoin(
            current, &source, &local_cs, &corrs, agg, names,
        ));
    }

    if ctx.split == Split::DisjointBranches {
        // The pre-bypass repertoire (used by the OR→UNION baseline)
        // ends here: disjunctive correlation stays nested.
        outcome(&mut sp, rec, "rejected:classic-only-disjunctive");
        return None;
    }

    // Cases 3/4: exactly one correlated conjunct which is a disjunction.
    if free_cs.len() == 1 {
        let disjuncts: Vec<Scalar> = free_cs[0].disjuncts().into_iter().cloned().collect();
        if disjuncts.len() >= 2 {
            let (corr_ds, local_ds): (Vec<Scalar>, Vec<Scalar>) = disjuncts
                .into_iter()
                .partition(|d| !is_local(d, &inner_schema));
            if !corr_ds.is_empty() {
                // Eqv. 4: single equality correlation disjunct,
                // decomposable aggregate, subquery-free p.
                if corr_ds.len() == 1
                    && !local_ds.is_empty()
                    && agg.is_decomposable()
                    && local_ds.iter().all(|d| !d.contains_subquery())
                {
                    if let Some(corr) = eq_correlation(&corr_ds[0], &inner_schema) {
                        outcome(&mut sp, rec, "eqv4:decomposed-bypass-filter");
                        return Some(eqv4_decomposed(
                            current, &source, &local_cs, &corr, &local_ds, agg, names,
                        ));
                    }
                }
                // Eqv. 5: general disjunctive correlation. The
                // correlation disjuncts become the bypass-join predicate;
                // p may itself contain nested subqueries (linear
                // queries) — they are unnested by the driver afterwards.
                if corr_ds.iter().all(|d| !d.contains_subquery()) {
                    outcome(&mut sp, rec, "eqv5:bypass-join-binary-grouping");
                    return Some(eqv5_binary_grouping(
                        current, &source, &local_cs, &corr_ds, &local_ds, agg, names,
                    ));
                }
            }
        }
    }

    // Case 5: general fallback — θ-join on the whole inner predicate +
    // binary grouping.
    outcome(&mut sp, rec, "fallback:theta-join-binary-grouping");
    let whole = Scalar::conjunction(free_cs.into_iter().chain(local_cs).collect())
        .expect("non-empty predicate");
    Some(join_binary_grouping(current, &source, &whole, agg, names))
}

/// Descend through consecutive selections, collecting their conjuncts.
fn split_filters(plan: &Arc<LogicalPlan>) -> (Arc<LogicalPlan>, Vec<Scalar>) {
    let mut conjuncts = Vec::new();
    let mut cur = plan.clone();
    while let LogicalPlan::Filter { input, predicate } = cur.clone().as_ref() {
        conjuncts.extend(predicate.conjuncts().into_iter().cloned());
        cur = input.clone();
    }
    (cur, conjuncts)
}

/// Γ + leftouterjoin core (Eqv. 1): group the inner block by its
/// correlation keys, aggregate per group, outer-join with `f(∅)`
/// defaults.
fn gamma_outerjoin(
    current: PlanBuilder,
    source: &Arc<LogicalPlan>,
    local_cs: &[Scalar],
    corrs: &[EqCorrelation],
    agg: &AggCall,
    names: &mut NameGen,
) -> (PlanBuilder, String) {
    let x = apply_locals(PlanBuilder::from_plan(source.clone()), local_cs);
    let g = names.fresh("g");
    // Deduplicate inner keys: two correlation conjuncts may reference
    // the same inner column (`a2 = b1 AND a4 = b1`); grouping or
    // projecting `b1` twice would make the reference ambiguous.
    let mut unique_keys: Vec<Scalar> = Vec::new();
    let mut key_index: Vec<usize> = Vec::with_capacity(corrs.len());
    for c in corrs {
        match unique_keys.iter().position(|k| *k == c.key) {
            Some(i) => key_index.push(i),
            None => {
                key_index.push(unique_keys.len());
                unique_keys.push(c.key.clone());
            }
        }
    }
    let grouped = x.aggregate(unique_keys.clone(), vec![((*agg).clone(), g.clone())]);
    // Rename the keys to fresh names so the outerjoin predicate cannot
    // collide with outer columns (TPC-H 2d joins the same tables in both
    // blocks).
    let fresh_keys: Vec<String> = unique_keys.iter().map(|_| names.fresh("k")).collect();
    let mut proj: Vec<(Scalar, Option<String>)> = unique_keys
        .iter()
        .zip(&fresh_keys)
        .map(|(key, k)| (key.clone(), Some(k.clone())))
        .collect();
    proj.push((Scalar::col(g.clone()), None));
    let projected = grouped.project(proj);

    let join_pred = Scalar::conjunction(
        corrs
            .iter()
            .zip(&key_index)
            .map(|(c, i)| c.outer.clone().eq(Scalar::col(fresh_keys[*i].clone())))
            .collect(),
    )
    .expect("at least one correlation key");
    let attached = current.outer_join(projected, join_pred, vec![(g.clone(), agg.empty_value())]);
    (attached, g)
}

/// Eqv. 4 core: split the inner relation with a bypass selection on the
/// correlation-independent predicate `p`; aggregate the positive stream
/// once (uncorrelated partial), group the negative stream by the
/// correlation key; recombine with χ.
fn eqv4_decomposed(
    current: PlanBuilder,
    source: &Arc<LogicalPlan>,
    local_cs: &[Scalar],
    corr: &EqCorrelation,
    local_ds: &[Scalar],
    agg: &AggCall,
    names: &mut NameGen,
) -> (PlanBuilder, String) {
    let x = apply_locals(PlanBuilder::from_plan(source.clone()), local_cs);
    let p = Scalar::disjunction(local_ds.to_vec()).expect("p is non-empty");
    let (pos, neg) = x.bypass_filter(p);

    let partials = decompose(agg);
    // Correlated partials over the negative stream, grouped by the key.
    let neg_names: Vec<String> = partials.iter().map(|_| names.fresh("p")).collect();
    let grouped = neg.aggregate(
        vec![corr.key.clone()],
        partials
            .iter()
            .cloned()
            .zip(neg_names.iter().cloned())
            .collect(),
    );
    let k = names.fresh("k");
    let mut proj: Vec<(Scalar, Option<String>)> = vec![(corr.key.clone(), Some(k.clone()))];
    for n in &neg_names {
        proj.push((Scalar::col(n.clone()), None));
    }
    let projected = grouped.project(proj);
    let defaults = partials
        .iter()
        .zip(&neg_names)
        .map(|(c, n)| (n.clone(), c.empty_value()))
        .collect();
    let lhs = current.outer_join(projected, corr.outer.clone().eq(Scalar::col(k)), defaults);

    // Correlation-independent partials over the positive stream —
    // evaluated once (a one-row aggregate, cross-joined in).
    let pos_names: Vec<String> = partials.iter().map(|_| names.fresh("q")).collect();
    let scal = pos.aggregate(
        vec![],
        partials
            .iter()
            .cloned()
            .zip(pos_names.iter().cloned())
            .collect(),
    );
    let combined = lhs.cross_join(scal);

    let g = names.fresh("g");
    let combine_expr = combine_partials(agg, &neg_names, &pos_names);
    (combined.map(combine_expr, g.clone()), g)
}

/// Eqv. 5 core: ν + bypass join on the correlation disjunct(s) + σ_p on
/// the negative stream + ∪̇ + ρ + binary grouping.
fn eqv5_binary_grouping(
    current: PlanBuilder,
    source: &Arc<LogicalPlan>,
    local_cs: &[Scalar],
    corr_ds: &[Scalar],
    local_ds: &[Scalar],
    agg: &AggCall,
    names: &mut NameGen,
) -> (PlanBuilder, String) {
    let t = names.fresh("t");
    let numbered = current.numbering(t.clone());
    let x = apply_locals(PlanBuilder::from_plan(source.clone()), local_cs);

    let join_pred =
        Scalar::disjunction(corr_ds.to_vec()).expect("at least one correlation disjunct");
    let u = match Scalar::disjunction(local_ds.to_vec()) {
        // e2 = σ_p(negative stream); the physical planner fuses this
        // filter into the bypass join's negative emission.
        Some(p) => {
            let (pos, neg) = numbered.clone().bypass_join(x, join_pred);
            pos.union(neg.filter(p))
        }
        // Pure correlation disjunction: the negative stream would
        // contribute nothing — a plain θ-join avoids materializing it.
        None => numbered.clone().join(x, join_pred),
    };

    // ρ_{t'←t}: rename the numbering column in the joined stream so it
    // can be matched against the left copy.
    let t2 = names.fresh("t");
    let u_schema = u.schema();
    let renamed = u.project(rename_projection(&u_schema, &t, &t2));

    let g = names.fresh("g");
    let grouped = numbered.binary_group(
        renamed,
        Scalar::col(t),
        Scalar::col(t2),
        (*agg).clone(),
        g.clone(),
    );
    (grouped, g)
}

/// Fallback: θ-join the numbered outer with the inner source on the
/// *entire* inner predicate, then binary-group by the numbering column.
/// Works for any predicate; equality conjuncts still become hash keys in
/// the physical plan.
fn join_binary_grouping(
    current: PlanBuilder,
    source: &Arc<LogicalPlan>,
    predicate: &Scalar,
    agg: &AggCall,
    names: &mut NameGen,
) -> (PlanBuilder, String) {
    let t = names.fresh("t");
    let numbered = current.numbering(t.clone());
    let joined = numbered
        .clone()
        .join(PlanBuilder::from_plan(source.clone()), predicate.clone());
    let t2 = names.fresh("t");
    let j_schema = joined.schema();
    let renamed = joined.project(rename_projection(&j_schema, &t, &t2));
    let g = names.fresh("g");
    let grouped = numbered.binary_group(
        renamed,
        Scalar::col(t),
        Scalar::col(t2),
        (*agg).clone(),
        g.clone(),
    );
    (grouped, g)
}

fn apply_locals(b: PlanBuilder, local_cs: &[Scalar]) -> PlanBuilder {
    match Scalar::conjunction(local_cs.to_vec()) {
        Some(p) => b.filter(p),
        None => b,
    }
}

/// Projection that keeps every column, renaming `from` to `to`.
fn rename_projection(schema: &Schema, from: &str, to: &str) -> Vec<(Scalar, Option<String>)> {
    schema
        .fields()
        .iter()
        .map(|f| {
            let col = match f.qualifier() {
                Some(q) => Scalar::qcol(q, f.name()),
                None => Scalar::col(f.name()),
            };
            if f.qualifier().is_none() && f.name() == from {
                (col, Some(to.to_string()))
            } else {
                (col, None)
            }
        })
        .collect()
}

/// The partial aggregates `f_I` of a decomposable aggregate
/// (Section 3.3). AVG decomposes into (SUM, COUNT); everything else is
/// its own partial.
fn decompose(agg: &AggCall) -> Vec<AggCall> {
    debug_assert!(agg.is_decomposable());
    match agg.func {
        AggFunc::Avg => vec![
            AggCall::new(AggFunc::Sum, false, agg.arg.as_deref().cloned()),
            AggCall::new(AggFunc::Count, false, agg.arg.as_deref().cloned()),
        ],
        // MIN/MAX DISTINCT ≡ MIN/MAX.
        AggFunc::Min | AggFunc::Max => {
            vec![AggCall::new(agg.func, false, agg.arg.as_deref().cloned())]
        }
        _ => vec![agg.clone()],
    }
}

/// The combining expression `f_O(f_I(neg-partials), f_I(pos-partials))`.
fn combine_partials(agg: &AggCall, neg: &[String], pos: &[String]) -> Scalar {
    let c = |n: &String| Scalar::col(n.clone());
    match agg.func {
        AggFunc::Count => Scalar::binary(BinOp::Add, c(&neg[0]), c(&pos[0])),
        AggFunc::Sum => Scalar::binary(BinOp::NullSafeAdd, c(&neg[0]), c(&pos[0])),
        AggFunc::Min => Scalar::binary(BinOp::Least, c(&neg[0]), c(&pos[0])),
        AggFunc::Max => Scalar::binary(BinOp::Greatest, c(&neg[0]), c(&pos[0])),
        AggFunc::Avg => {
            // (sum₁ +ₙ sum₂) · 1.0 / (count₁ + count₂); the ·1.0 forces
            // float division, and a NULL total sum (count = 0) short-
            // circuits the division to NULL before the zero denominator.
            let sum = Scalar::binary(BinOp::NullSafeAdd, c(&neg[0]), c(&pos[0]));
            let count = Scalar::binary(BinOp::Add, c(&neg[1]), c(&pos[1]));
            Scalar::binary(
                BinOp::Div,
                Scalar::binary(BinOp::Mul, sum, Scalar::lit(1.0f64)),
                count,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_algebra::AggFunc;

    #[test]
    fn decompose_shapes() {
        let count = AggCall::count_star();
        assert_eq!(decompose(&count).len(), 1);
        let avg = AggCall::new(AggFunc::Avg, false, Some(Scalar::col("x")));
        let parts = decompose(&avg);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].func, AggFunc::Sum);
        assert_eq!(parts[1].func, AggFunc::Count);
        // MIN DISTINCT decomposes to plain MIN.
        let mind = AggCall::new(AggFunc::Min, true, Some(Scalar::col("x")));
        assert!(!decompose(&mind)[0].distinct);
    }

    #[test]
    fn combine_shapes() {
        let count = AggCall::count_star();
        let e = combine_partials(&count, &["a".into()], &["b".into()]);
        assert_eq!(e.to_string(), "(a + b)");
        let avg = AggCall::new(AggFunc::Avg, false, Some(Scalar::col("x")));
        let e = combine_partials(
            &avg,
            &["s1".into(), "c1".into()],
            &["s2".into(), "c2".into()],
        );
        assert!(e.to_string().contains("+ₙ"), "{e}");
        assert!(e.to_string().contains("/"), "{e}");
    }

    #[test]
    fn rename_projection_targets_one_column() {
        use bypass_types::{DataType, Field};
        let schema = Schema::new(vec![
            Field::qualified("r", "a", DataType::Int),
            Field::new("__t0", DataType::Int),
        ]);
        let proj = rename_projection(&schema, "__t0", "__t1");
        assert_eq!(proj.len(), 2);
        assert_eq!(proj[0].1, None);
        assert_eq!(proj[1].1.as_deref(), Some("__t1"));
    }
}
