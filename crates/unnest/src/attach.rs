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
//! 3. **Disjunctive correlation** — the scalar subqueries of the local
//!    disjuncts `p` attach to the inner source first (*inner blocks
//!    first*, recursively through this function), so `p` is
//!    subquery-free for what follows; then
//!    * **Eqv. 4** (single equality correlation disjunct, an aggregate
//!      that decomposes over σ±_p's streams) — bypass selection on `p`,
//!      partial aggregates on both streams, χ to combine. A DISTINCT
//!      COUNT/SUM/AVG qualifies when `p` keeps its classes of equal
//!      values in one stream ([`keeps_distinct_classes`],
//!      `eqv4:distinct-split`);
//!    * **Eqv. 5** otherwise — ν numbering, bypass join on the
//!      correlation disjunct(s), `σ_p` on the negative stream, disjoint
//!      union, ρ rename, binary grouping.
//! 4. **Fallback** — ν numbering, θ-join on the entire inner predicate,
//!    binary grouping (correct for any inner predicate; the join is
//!    hash-based whenever equality conjuncts exist).

use std::sync::Arc;

use bypass_algebra::{AggCall, AggFunc, BinOp, ColumnRef, LogicalPlan, PlanBuilder, Scalar};
use bypass_types::Schema;

use crate::analysis::{eq_correlation, is_local, EqCorrelation};
use crate::driver::{attach_subqueries, project_to, Ctx, Split};
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
        let g = ctx.names.fresh("g");
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
            current,
            &source,
            &local_cs,
            &corrs,
            agg,
            &mut ctx.names,
        ));
    }

    if ctx.split == Split::DisjointBranches {
        // The pre-bypass repertoire (used by the OR→UNION baseline)
        // ends here: disjunctive correlation stays nested.
        outcome(&mut sp, rec, "rejected:classic-only-disjunctive");
        return None;
    }

    // Case 3: exactly one correlated conjunct which is a disjunction,
    // with subquery-free correlation disjuncts.
    if free_cs.len() == 1 {
        let disjuncts = free_cs[0].disjuncts();
        let (corr_ds, local_ds): (Vec<Scalar>, Vec<Scalar>) = disjuncts
            .iter()
            .map(|&d| d.clone())
            .partition(|d| !is_local(d, &inner_schema));
        if disjuncts.len() >= 2
            && !corr_ds.is_empty()
            && corr_ds.iter().all(|d| !d.contains_subquery())
        {
            let mut p = Scalar::disjunction(local_ds);
            // Read off p as written: the side condition looks into the
            // nested blocks that inner-first attachment replaces.
            let class_split = !agg.is_decomposable()
                && p.as_ref()
                    .is_some_and(|p| keeps_distinct_classes(agg, p, &inner_schema));
            let mut x = apply_locals(PlanBuilder::from_plan(source.clone()), &local_cs);
            // Inner blocks first: p's own subqueries attach to the inner
            // source, once per inner row, so p is subquery-free for the
            // split below. A block that cannot attach leaves p nested.
            if let Some(nested) = p.as_ref().filter(|p| p.contains_subquery()) {
                if let Some((attached, p_attached)) = attach_subqueries(x.clone(), nested, ctx) {
                    (x, p) = (attached, Some(p_attached));
                }
            }
            // Eqv. 4: single equality correlation disjunct, an aggregate
            // that decomposes over σ±_p's streams, subquery-free p.
            if let ([corr_d], Some(p)) = (corr_ds.as_slice(), &p) {
                let decomposes = agg.is_decomposable() || class_split;
                if let Some(corr) = eq_correlation(corr_d, &inner_schema)
                    .filter(|_| decomposes && !p.contains_subquery())
                {
                    let key = if class_split {
                        "eqv4:distinct-split"
                    } else {
                        "eqv4:decomposed-bypass-filter"
                    };
                    outcome(&mut sp, rec, key);
                    return Some(eqv4_decomposed(
                        current,
                        x,
                        &inner_schema,
                        &corr,
                        p.clone(),
                        agg,
                        &mut ctx.names,
                    ));
                }
            }
            // Eqv. 5: general disjunctive correlation. The correlation
            // disjuncts become the bypass-join predicate; a block of p
            // that could not attach above is unnested by the driver on
            // the negative stream.
            outcome(&mut sp, rec, "eqv5:bypass-join-binary-grouping");
            return Some(eqv5_binary_grouping(
                current,
                x,
                &inner_schema,
                &corr_ds,
                p,
                agg,
                &mut ctx.names,
            ));
        }
    }

    // Case 4: general fallback — θ-join on the whole inner predicate +
    // binary grouping.
    outcome(&mut sp, rec, "fallback:theta-join-binary-grouping");
    let whole = Scalar::conjunction(free_cs.into_iter().chain(local_cs).collect())
        .expect("non-empty predicate");
    Some(join_binary_grouping(
        current,
        &source,
        &whole,
        agg,
        &mut ctx.names,
    ))
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

/// Eqv. 4 core: split the inner relation `x` with a bypass selection on
/// the correlation-independent predicate `p`; aggregate the positive
/// stream once (uncorrelated partial), group the negative stream by the
/// correlation key; recombine with χ. Both streams leave σ± as `A(S)`
/// (`inner`): a `*` argument counts the inner rows, not the columns
/// that inner-first attachment added for `p`.
fn eqv4_decomposed(
    current: PlanBuilder,
    x: PlanBuilder,
    inner: &Schema,
    corr: &EqCorrelation,
    p: Scalar,
    agg: &AggCall,
    names: &mut NameGen,
) -> (PlanBuilder, String) {
    let attached = x.schema().arity() != inner.arity();
    let (pos, neg) = x.bypass_filter(p);
    let (pos, neg) = if attached {
        (project_to(pos, inner), project_to(neg, inner))
    } else {
        (pos, neg)
    };

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
/// the negative stream + ∪̇ + ρ + binary grouping. The ρ's Π also drops
/// what inner-first attachment added to `x` beyond `A(S)` (`inner`).
fn eqv5_binary_grouping(
    current: PlanBuilder,
    x: PlanBuilder,
    inner: &Schema,
    corr_ds: &[Scalar],
    p: Option<Scalar>,
    agg: &AggCall,
    names: &mut NameGen,
) -> (PlanBuilder, String) {
    let t = names.fresh("t");
    let numbered = current.numbering(t.clone());
    let join_pred =
        Scalar::disjunction(corr_ds.to_vec()).expect("at least one correlation disjunct");
    let u = match p {
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
    let u_schema = numbered.schema().concat(inner);
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
/// (Section 3.3), or of a DISTINCT one over a split that keeps its
/// classes apart ([`keeps_distinct_classes`]). AVG decomposes into
/// (SUM, COUNT), each as DISTINCT as the AVG; everything else is its own
/// partial.
fn decompose(agg: &AggCall) -> Vec<AggCall> {
    let arg = || agg.arg.as_deref().cloned();
    match agg.func {
        AggFunc::Avg => vec![
            AggCall::new(AggFunc::Sum, agg.distinct, arg()),
            AggCall::new(AggFunc::Count, agg.distinct, arg()),
        ],
        // MIN/MAX DISTINCT ≡ MIN/MAX.
        AggFunc::Min | AggFunc::Max => vec![AggCall::new(agg.func, false, arg())],
        _ => vec![agg.clone()],
    }
}

/// The DISTINCT side condition of Eqv. 4: does σ±_p send every class of
/// inner rows that `agg`'s DISTINCT counts once to the same stream? Then
/// the two streams share no class, and a DISTINCT COUNT/SUM/AVG over
/// their union is the sum of its partials over each.
///
/// It holds when `p` reads nothing but the class's own columns — the
/// whole row for `*`, else a bare argument column ([`AggCall::arg_column`];
/// a computed argument never qualifies) — and reads them only as bare
/// operands of a comparison, IS [NOT] NULL or IN (BETWEEN is two
/// comparisons). These tell apart no two values DISTINCT treats as one:
/// `-0.0` and `0.0`, `1` and `1.0` compare equal and both NaNs are
/// UNKNOWN. Arithmetic can (`1.0 / b1 > 0`, `b1 / 2 > 0.4`), so it must
/// not touch those columns. A scalar subquery of `p` qualifies when each
/// of its correlation conjuncts is an equality whose outer side is such a
/// bare column: inner-first attachment turns it into a ⟕ keyed on that
/// column, whose hash equality is `=`'s, so its value is one per class.
fn keeps_distinct_classes(agg: &AggCall, p: &Scalar, inner: &Schema) -> bool {
    let class = match (&agg.arg, agg.arg_column()) {
        (None, _) => None,
        (_, Some(c)) => Some(inner.find(c.qualifier.as_deref(), &c.name)),
        _ => return false,
    };
    let reads = |c: &ColumnRef| {
        let at = inner.find(c.qualifier.as_deref(), &c.name);
        at.is_some() && class.is_none_or(|class| class == at)
    };
    Classes { reads }.predicate(p)
}

/// The walk of [`keeps_distinct_classes`] over `p`: `reads` admits the
/// inner columns a class is made of.
struct Classes<F> {
    reads: F,
}

impl<F: Fn(&ColumnRef) -> bool> Classes<F> {
    fn predicate(&self, p: &Scalar) -> bool {
        match p {
            Scalar::Binary {
                op: BinOp::And | BinOp::Or,
                left,
                right,
            } => self.predicate(left) && self.predicate(right),
            Scalar::Not(e) => self.predicate(e),
            Scalar::Binary { op, left, right } if op.is_comparison() => {
                self.operand(left) && self.operand(right)
            }
            Scalar::IsNull { expr, .. } => self.operand(expr),
            Scalar::InList { expr, list, .. } => {
                self.operand(expr) && list.iter().all(|e| self.operand(e))
            }
            e => self.opaque(e),
        }
    }

    fn operand(&self, e: &Scalar) -> bool {
        match e {
            Scalar::Column(c) => (self.reads)(c),
            e => self.opaque(e),
        }
    }

    /// An expression that may compute anything, so it must read no inner
    /// column itself; its scalar subqueries must correlate on admitted
    /// bare columns only.
    fn opaque(&self, e: &Scalar) -> bool {
        let mut ok = true;
        e.walk(&mut |x| match x {
            Scalar::Column(_)
            | Scalar::Exists { .. }
            | Scalar::InSubquery { .. }
            | Scalar::QuantifiedCmp { .. } => ok = false,
            Scalar::Subquery(plan) => ok &= self.block(plan),
            _ => {}
        });
        ok
    }

    /// A scalar-aggregate block whose free references are all bare
    /// admitted columns on the outer side of correlation equalities.
    fn block(&self, plan: &Arc<LogicalPlan>) -> bool {
        if plan.free_refs().is_empty() {
            return true;
        }
        let LogicalPlan::Aggregate { input, keys, aggs } = plan.as_ref() else {
            return false;
        };
        let (source, conjuncts) = split_filters(input);
        let scope = source.schema();
        let local_arg = |a: &AggCall| a.arg.as_deref().is_none_or(|a| is_local(a, &scope));
        keys.is_empty()
            && aggs.len() == 1
            && local_arg(&aggs[0].0)
            && source.free_refs().is_empty()
            && conjuncts.iter().all(|c| {
                is_local(c, &scope)
                    || eq_correlation(c, &scope).is_some_and(
                        |corr| matches!(&corr.outer, Scalar::Column(o) if (self.reads)(o)),
                    )
            })
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
    fn decompose_keeps_distinct_on_avg_partials() {
        let avg = AggCall::new(AggFunc::Avg, true, Some(Scalar::col("x")));
        assert!(decompose(&avg).iter().all(|p| p.distinct));
        let sum = AggCall::new(AggFunc::Sum, true, Some(Scalar::col("x")));
        assert!(decompose(&sum)[0].distinct);
    }

    /// `A(S)` of the side-condition tests.
    fn s_schema() -> Schema {
        use bypass_types::{DataType, Field};
        let field = |c| Field::qualified("s", c, DataType::Int);
        Schema::new(vec![field("b1"), field("b2"), field("b3")])
    }

    fn col(c: &str) -> Scalar {
        Scalar::col(c)
    }

    fn num(v: i64) -> Scalar {
        Scalar::lit(v)
    }

    /// `(SELECT COUNT(*) FROM t WHERE corr)`.
    fn block(corr: Scalar) -> Scalar {
        let plan = PlanBuilder::test_scan("t", &["c1", "c2"])
            .filter(corr)
            .aggregate(vec![], vec![(AggCall::count_star(), "n".into())])
            .build();
        Scalar::Subquery(plan)
    }

    /// `1 <= e`, the desugared `EXISTS` form.
    fn one_le(e: Scalar) -> Scalar {
        Scalar::binary(BinOp::LtEq, num(1), e)
    }

    fn keeps(agg: &AggCall, p: &Scalar) -> bool {
        keeps_distinct_classes(agg, p, &s_schema())
    }

    #[test]
    fn the_whole_row_admits_bare_reads_of_any_column() {
        let star = AggCall::count_distinct_star();
        assert!(keeps(&star, &col("b3").gt(num(4))));
        let in_list = Scalar::InList {
            negated: true,
            expr: Box::new(col("b2")),
            list: vec![num(1), num(2)],
        };
        let is_null = Scalar::IsNull {
            negated: false,
            expr: Box::new(col("b1")),
        };
        let both = Scalar::Not(Box::new(in_list.or(is_null)));
        assert!(keeps(&star, &both));
        // Two columns of one row compared with each other.
        assert!(keeps(&star, &col("b1").lt(Scalar::qcol("s", "b3"))));
    }

    #[test]
    fn a_column_argument_admits_reads_of_that_column_only() {
        let b1 = AggCall::new(AggFunc::Sum, true, Some(col("b1")));
        assert!(keeps(&b1, &Scalar::qcol("s", "b1").gt(num(4))));
        assert!(!keeps(&b1, &col("b3").gt(num(4))));
        assert!(!keeps(&b1, &col("b1").gt(num(4)).or(col("b2").eq(num(1)))));
        // A computed argument has no class column to check p against.
        let computed = Scalar::binary(BinOp::Add, col("b1"), num(1));
        let sum = AggCall::new(AggFunc::Sum, true, Some(computed));
        assert!(!keeps(&sum, &col("b1").gt(num(4))));
    }

    #[test]
    fn arithmetic_or_like_on_a_class_column_refuses() {
        let star = AggCall::count_distinct_star();
        let b1 = AggCall::new(AggFunc::Count, true, Some(col("b1")));
        // 1.0 / b1 > 0 tells -0.0 from 0.0; b1 / 2 > 0.4 tells 1 from 1.0.
        let inverse = Scalar::binary(BinOp::Div, Scalar::lit(1.0f64), col("b1")).gt(num(0));
        let half = Scalar::binary(BinOp::Div, col("b1"), num(2)).gt(Scalar::lit(0.4f64));
        for p in [&inverse, &half] {
            assert!(!keeps(&star, p), "{p}");
            assert!(!keeps(&b1, p), "{p}");
        }
        let negated = Scalar::Neg(Box::new(col("b1"))).lt(num(0));
        assert!(!keeps(&b1, &negated));
        let like = Scalar::Like {
            negated: false,
            expr: Box::new(col("b1")),
            pattern: Box::new(Scalar::lit("1%")),
        };
        assert!(!keeps(&star, &like));
        // Arithmetic on constants only reads no column.
        assert!(keeps(
            &b1,
            &col("b1").gt(Scalar::binary(BinOp::Add, num(1), num(2)))
        ));
    }

    #[test]
    fn a_block_of_p_correlates_on_bare_class_columns_only() {
        let star = AggCall::count_distinct_star();
        let b1 = AggCall::new(AggFunc::Count, true, Some(col("b1")));
        let c1 = || Scalar::qcol("t", "c1");
        // The block is a value of the class whatever p does with it.
        let bare = block(col("b1").eq(c1()));
        let plus = Scalar::binary(BinOp::Add, bare.clone(), num(1));
        assert!(keeps(&b1, &one_le(plus)));
        assert!(keeps(&star, &col("b3").eq(bare.clone())));
        // ... but p reads b3 beside it, outside b1's class.
        assert!(!keeps(&b1, &col("b3").eq(bare)));
        // Correlated on another column, or through arithmetic.
        assert!(!keeps(&b1, &one_le(block(col("b2").eq(c1())))));
        let computed = Scalar::binary(BinOp::Mul, col("b1"), Scalar::lit(1.0f64));
        assert!(!keeps(&star, &one_le(block(computed.eq(c1())))));
        // A disjunctive or non-equality correlation.
        let either = col("b1").eq(c1()).or(Scalar::qcol("t", "c2").gt(num(0)));
        assert!(!keeps(&star, &one_le(block(either))));
        assert!(!keeps(&star, &one_le(block(col("b1").lt(c1())))));
        // Uncorrelated: one value for every row.
        let type_a = block(Scalar::qcol("t", "c2").gt(num(0)));
        assert!(keeps(&b1, &one_le(type_a)));
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
