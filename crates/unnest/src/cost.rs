//! Cardinality and cost estimation over logical plans.
//!
//! The paper's third argument for algebraic unnesting (Section 1) is
//! that equivalences "can be used during plan generation … in a
//! cost-based manner. The latter is especially important … since some
//! unnesting strategies do not always result in better plans." This
//! module provides the estimator that makes that possible: a classic
//! System-R-style bottom-up model with textbook selectivities, extended
//! with the one thing unnesting decisions hinge on — **nested blocks in
//! predicates cost `input-cardinality × subplan-cost`** (the
//! nested-loop evaluation the canonical plan implies), while unnested
//! plans pay their operators once.
//!
//! Units are abstract "tuple touches"; only *relative* comparisons
//! between candidate plans for the same query are meaningful.

use std::sync::Arc;

use bypass_algebra::{BinOp, LogicalPlan, Scalar, Stream};

/// Row-count oracle for base tables. Implemented by the catalog (in
/// `bypass-core`); tests may use closures.
pub trait StatsSource {
    /// Number of rows in a base table, if known.
    fn table_rows(&self, table: &str) -> Option<f64>;
    /// Number of distinct values in `table.column`, if known.
    fn column_distinct(&self, table: &str, column: &str) -> Option<f64>;
}

impl<F> StatsSource for F
where
    F: Fn(&str) -> Option<f64>,
{
    fn table_rows(&self, table: &str) -> Option<f64> {
        self(table)
    }
    fn column_distinct(&self, _table: &str, _column: &str) -> Option<f64> {
        None
    }
}

/// Estimated properties of a (sub)plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Output cardinality in rows.
    pub rows: f64,
    /// Total work to produce the output (tuple touches).
    pub cost: f64,
}

/// Estimate a logical plan bottom-up.
pub fn estimate(plan: &Arc<LogicalPlan>, stats: &dyn StatsSource) -> Estimate {
    match plan.as_ref() {
        LogicalPlan::Scan { table, .. } => {
            let rows = stats.table_rows(table).unwrap_or(1000.0);
            Estimate { rows, cost: rows }
        }
        LogicalPlan::Singleton => Estimate {
            rows: 1.0,
            cost: 1.0,
        },
        LogicalPlan::Filter { input, predicate } => {
            let e = estimate(input, stats);
            let sel = selectivity(predicate);
            // Each input row evaluates the predicate once; nested blocks
            // multiply by the subplan cost (nested-loop evaluation).
            let per_row = 1.0 + nested_eval_cost(predicate, stats);
            Estimate {
                rows: (e.rows * sel).max(0.0),
                cost: e.cost + e.rows * per_row,
            }
        }
        LogicalPlan::Project { input, exprs } => {
            let e = estimate(input, stats);
            let per_row = 1.0
                + exprs
                    .iter()
                    .map(|(x, _)| nested_eval_cost(x, stats))
                    .sum::<f64>();
            Estimate {
                rows: e.rows,
                cost: e.cost + e.rows * per_row,
            }
        }
        LogicalPlan::CrossJoin { left, right } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            let rows = l.rows * r.rows;
            Estimate {
                rows,
                cost: l.cost + r.cost + rows,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            let sel = selectivity(predicate);
            let rows = (l.rows * r.rows * sel).max(0.0);
            // Hash join when any equality conjunct exists, else NL.
            let has_equi = predicate
                .conjuncts()
                .iter()
                .any(|c| matches!(c, Scalar::Binary { op: BinOp::Eq, .. }));
            let join_work = if has_equi {
                l.rows + r.rows + rows
            } else {
                l.rows * r.rows
            };
            Estimate {
                rows,
                cost: l.cost + r.cost + join_work,
            }
        }
        LogicalPlan::OuterJoin { left, right, .. } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            // The unnesting outerjoins probe a unique-key side: output
            // cardinality is exactly the left side (Section 3.7).
            Estimate {
                rows: l.rows,
                cost: l.cost + r.cost + l.rows + r.rows,
            }
        }
        LogicalPlan::Aggregate { input, keys, aggs } => {
            let e = estimate(input, stats);
            let rows = if keys.is_empty() {
                1.0
            } else {
                // Distinct keys: bounded by input size; assume 10%
                // groups when statistics cannot say better.
                (e.rows * 0.1).max(1.0)
            };
            let per_row = 1.0
                + aggs
                    .iter()
                    .filter_map(|(a, _)| a.arg.as_deref())
                    .map(|x| nested_eval_cost(x, stats))
                    .sum::<f64>();
            Estimate {
                rows,
                cost: e.cost + e.rows * per_row,
            }
        }
        LogicalPlan::BinaryGroup { left, right, .. } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            Estimate {
                rows: l.rows,
                cost: l.cost + r.cost + l.rows + r.rows,
            }
        }
        LogicalPlan::Map { input, expr, .. } => {
            let e = estimate(input, stats);
            let per_row = 1.0 + nested_eval_cost(expr, stats);
            Estimate {
                rows: e.rows,
                cost: e.cost + e.rows * per_row,
            }
        }
        LogicalPlan::Numbering { input, .. } => {
            let e = estimate(input, stats);
            Estimate {
                rows: e.rows,
                cost: e.cost + e.rows,
            }
        }
        LogicalPlan::Distinct { input } => {
            let e = estimate(input, stats);
            Estimate {
                rows: (e.rows * 0.9).max(1.0).min(e.rows),
                cost: e.cost + e.rows,
            }
        }
        LogicalPlan::Sort { input, .. } => {
            let e = estimate(input, stats);
            let n = e.rows.max(2.0);
            Estimate {
                rows: e.rows,
                cost: e.cost + n * n.log2(),
            }
        }
        LogicalPlan::Limit { input, n } => {
            let e = estimate(input, stats);
            Estimate {
                rows: e.rows.min(*n as f64),
                cost: e.cost,
            }
        }
        LogicalPlan::Alias { input, .. } => estimate(input, stats),
        LogicalPlan::Union { left, right } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            Estimate {
                rows: l.rows + r.rows,
                cost: l.cost + r.cost,
            }
        }
        LogicalPlan::BypassFilter { input, predicate } => {
            let e = estimate(input, stats);
            let per_row = 1.0 + nested_eval_cost(predicate, stats);
            Estimate {
                rows: e.rows, // both streams together
                cost: e.cost + e.rows * per_row,
            }
        }
        LogicalPlan::BypassJoin { left, right, .. } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            let rows = l.rows * r.rows;
            Estimate {
                rows,
                cost: l.cost + r.cost + rows,
            }
        }
        LogicalPlan::Stream { source, stream } => {
            let e = estimate(source, stats);
            // Streams split their source; charge the source cost to the
            // positive consumer only so a shared bypass is not counted
            // twice.
            let sel = match source.as_ref() {
                LogicalPlan::BypassFilter { predicate, .. } => selectivity(predicate),
                LogicalPlan::BypassJoin { predicate, .. } => selectivity(predicate),
                _ => 0.5,
            };
            let (rows, cost) = match stream {
                Stream::Positive => (e.rows * sel, e.cost),
                Stream::Negative => ((e.rows * (1.0 - sel)).max(0.0), 0.0),
            };
            Estimate { rows, cost }
        }
    }
}

/// Textbook selectivity of a predicate (System-R style defaults) — the
/// one table; [`crate::estimate_rank`] orders disjuncts by it too.
pub(crate) fn selectivity(p: &Scalar) -> f64 {
    match p {
        Scalar::Binary { op, left, right } => match op {
            BinOp::And => selectivity(left) * selectivity(right),
            BinOp::Or => {
                let (a, b) = (selectivity(left), selectivity(right));
                (a + b - a * b).clamp(0.0, 1.0)
            }
            BinOp::Eq => 0.1,
            BinOp::Neq => 0.9,
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 1.0 / 3.0,
            _ => 0.5,
        },
        Scalar::Not(x) => 1.0 - selectivity(x),
        Scalar::Like { .. } => 0.25,
        Scalar::IsNull { negated, .. } => {
            if *negated {
                0.95
            } else {
                0.05
            }
        }
        Scalar::InList { list, .. } => (0.1 * list.len() as f64).min(0.5),
        Scalar::Exists { .. } | Scalar::InSubquery { .. } | Scalar::QuantifiedCmp { .. } => 0.5,
        _ => 0.5,
    }
}

/// Extra per-tuple cost of the nested blocks inside an expression —
/// the term that makes canonical plans expensive.
fn nested_eval_cost(e: &Scalar, stats: &dyn StatsSource) -> f64 {
    e.subquery_plans()
        .iter()
        .map(|p| estimate(p, stats).cost)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_algebra::{AggCall, PlanBuilder};

    fn stats(rows: f64) -> impl StatsSource {
        move |_: &str| Some(rows)
    }

    fn nested_filter() -> Arc<LogicalPlan> {
        let sub = PlanBuilder::test_scan("s", &["b2"])
            .filter(Scalar::col("a2").eq(Scalar::qcol("s", "b2")))
            .aggregate(vec![], vec![(AggCall::count_star(), "c".into())])
            .build();
        PlanBuilder::test_scan("r", &["a1", "a2", "a4"])
            .filter(
                Scalar::qcol("r", "a1")
                    .eq(Scalar::Subquery(sub))
                    .or(Scalar::qcol("r", "a4").gt(Scalar::lit(1500i64))),
            )
            .build()
    }

    #[test]
    fn canonical_nested_filter_is_quadratic() {
        let s1 = estimate(&nested_filter(), &stats(100.0));
        let s2 = estimate(&nested_filter(), &stats(1000.0));
        // ×10 data → ~×100 cost (n rows × n-row subplan each).
        let ratio = s2.cost / s1.cost;
        assert!(
            (50.0..200.0).contains(&ratio),
            "expected quadratic growth, got ×{ratio}"
        );
    }

    #[test]
    fn unnested_beats_canonical_at_scale() {
        let canonical = nested_filter();
        let unnested = crate::unnest(&canonical, crate::RewriteOptions::default()).unwrap();
        let s = stats(10_000.0);
        let c = estimate(&canonical, &s);
        let u = estimate(&unnested, &s);
        assert!(
            u.cost * 10.0 < c.cost,
            "unnested {:.0} should be ≪ canonical {:.0}",
            u.cost,
            c.cost
        );
    }

    #[test]
    fn canonical_can_win_on_tiny_inner() {
        // One-row inner relation: the nested loop is n × O(1), while
        // unnesting pays fixed overhead — the cost model must be able to
        // prefer canonical ("not always better", Section 1).
        let tiny = |t: &str| Some(if t == "s" { 1.0 } else { 30.0 });
        let canonical = nested_filter();
        let unnested = crate::unnest(&canonical, crate::RewriteOptions::default()).unwrap();
        let c = estimate(&canonical, &tiny);
        let u = estimate(&unnested, &tiny);
        // No assertion on which side wins universally; the estimates
        // must at least be in the same ballpark so the choice is real.
        assert!(
            c.cost < u.cost * 10.0 && u.cost < c.cost * 10.0,
            "tiny instance: canonical {:.0} vs unnested {:.0}",
            c.cost,
            u.cost
        );
    }

    #[test]
    fn stream_split_does_not_double_count_source() {
        let (pos, neg) = PlanBuilder::test_scan("r", &["a"])
            .bypass_filter(Scalar::qcol("r", "a").gt(Scalar::lit(0i64)));
        let plan = pos.union(neg).build();
        let e = estimate(&plan, &stats(100.0));
        // Source scan (100) + bypass pass (100); not 2×.
        assert!(e.cost <= 250.0, "cost {e:?}");
        assert!((e.rows - 100.0).abs() < 1.0, "partition preserves rows");
    }

    #[test]
    fn selectivities_compose() {
        let p = Scalar::col("a")
            .eq(Scalar::lit(1i64))
            .and(Scalar::col("b").gt(Scalar::lit(2i64)));
        assert!((selectivity(&p) - 0.1 / 3.0).abs() < 1e-9);
        let q = Scalar::col("a")
            .eq(Scalar::lit(1i64))
            .or(Scalar::col("b").eq(Scalar::lit(2i64)));
        assert!((selectivity(&q) - 0.19).abs() < 1e-9);
    }
}
