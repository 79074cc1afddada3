//! Plan mutations for testing the oracle itself: a differential harness
//! is only trustworthy if it *catches* a broken rewrite. The canonical
//! planted bug swaps the positive and negative streams of every bypass
//! operator — a realistic off-by-one in the bypass chain (the exact
//! class of mistake Eqv. 2/3 ordering bugs produce) that type-checks,
//! produces a well-formed DAG, and returns wrong rows.

use std::sync::Arc;

use bypass_algebra::{prune_columns, rewrite, Blocks, LogicalPlan, Stream};
use bypass_core::{Database, Strategy};
use bypass_exec::{evaluate_with, physical_plan};
use bypass_types::{Relation, Result};

use crate::oracle::QueryExecutor;

/// Swap every `Stream(+)` ↔ `Stream(−)` consumer in the plan. On plans
/// without bypass operators this is the identity.
pub fn flip_bypass_streams(plan: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
    let mut flip = |node: Arc<LogicalPlan>| match node.as_ref() {
        LogicalPlan::Stream { source, stream } => Arc::new(LogicalPlan::Stream {
            source: source.clone(),
            stream: match stream {
                Stream::Positive => Stream::Negative,
                Stream::Negative => Stream::Positive,
            },
        }),
        _ => node,
    };
    rewrite(plan, &mut flip, Blocks::TopOnly)
}

/// Column pruning with a planted bug: a ∪̇ asks its two inputs for
/// different positions — the right-hand Π of every ∪̇ comes back with
/// its first two columns swapped. Type-checks, keeps every arity, and
/// puts the wrong value under the right name for every row that took
/// the negative stream. The oracle's `pruned-vs-unpruned` axis must see
/// it ([`crate::oracle::pruning_divergence`]).
pub fn prune_columns_misaligned(plan: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
    let mut misalign = |node: Arc<LogicalPlan>| {
        let LogicalPlan::Union { left, right } = node.as_ref() else {
            return node;
        };
        match right.as_ref() {
            LogicalPlan::Project { input, exprs } if exprs.len() >= 2 => {
                let mut exprs = exprs.clone();
                exprs.swap(0, 1);
                let right = Arc::new(LogicalPlan::Project {
                    input: input.clone(),
                    exprs,
                });
                Arc::new(LogicalPlan::Union {
                    left: left.clone(),
                    right,
                })
            }
            _ => node,
        }
    };
    rewrite(&prune_columns(plan), &mut misalign, Blocks::Nested)
}

/// An executor with a planted bug: [`Strategy::Unnested`] plans run
/// with flipped bypass streams; every other strategy runs unmodified.
pub struct BrokenUnnestExecutor;

impl QueryExecutor for BrokenUnnestExecutor {
    fn execute(&self, db: &Database, sql: &str, strategy: Strategy) -> Result<Relation> {
        if strategy != Strategy::Unnested {
            return db.sql_with(sql, strategy, None);
        }
        let canonical = db.logical_plan(sql)?;
        let prepared = strategy.prepare(&canonical)?;
        let broken = flip_bypass_streams(&prepared);
        let physical = physical_plan(&broken, db.catalog())?;
        evaluate_with(&physical, strategy.exec_options())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::pruning_divergence;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE r (a1 INT, a2 INT, a3 INT, a4 INT)")
            .unwrap();
        db.execute_sql("INSERT INTO r VALUES (1, 3, 0, 9), (0, 4, 1, 2), (2, 3, 2, 5)")
            .unwrap();
        db.execute_sql("CREATE TABLE s (b1 INT, b2 INT, b3 INT, b4 INT)")
            .unwrap();
        db.execute_sql("INSERT INTO s VALUES (5, 3, 1, 1), (6, 4, 1, 7)")
            .unwrap();
        db
    }

    const Q: &str = "SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 6";

    #[test]
    fn flip_changes_bypass_plans_and_results() {
        let db = db();
        let canonical = db.logical_plan(Q).unwrap();
        let prepared = Strategy::Unnested.prepare(&canonical).unwrap();
        let flipped = flip_bypass_streams(&prepared);
        assert_ne!(prepared.explain(), flipped.explain());
        // Double flip is the identity.
        let back = flip_bypass_streams(&flipped);
        assert_eq!(prepared.explain(), back.explain());
    }

    #[test]
    fn flip_is_identity_without_bypass() {
        let db = db();
        let canonical = db.logical_plan("SELECT * FROM r WHERE a4 > 3").unwrap();
        let prepared = Strategy::Canonical.prepare(&canonical).unwrap();
        assert_eq!(prepared.explain(), flip_bypass_streams(&prepared).explain());
    }

    #[test]
    fn pruning_axis_catches_a_misaligned_union() {
        let mut db = db();
        // A row that takes the negative stream *and* qualifies there:
        // a4 ≤ 6, and exactly a1 = 1 row of s has b2 = 4.
        db.execute_sql("INSERT INTO r VALUES (1, 4, 7, 2)").unwrap();
        let q = "SELECT a2, a3 FROM r \
                 WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 6";
        let strategy = Strategy::Unnested;
        assert_eq!(pruning_divergence(&db, q, strategy, prune_columns), None);
        let caught = pruning_divergence(&db, q, strategy, prune_columns_misaligned)
            .expect("planted pruning bug went unseen");
        assert!(caught.contains("row sequence diverges"), "{caught}");
        // No ∪̇, nothing to misalign.
        assert_eq!(
            pruning_divergence(&db, q, Strategy::Canonical, prune_columns_misaligned),
            None
        );
    }

    #[test]
    fn broken_executor_returns_wrong_rows() {
        let db = db();
        let good = db.sql_with(Q, Strategy::Unnested, None).unwrap();
        let reference = db.sql_with(Q, Strategy::Canonical, None).unwrap();
        assert!(good.bag_eq(&reference));
        let bad = BrokenUnnestExecutor
            .execute(&db, Q, Strategy::Unnested)
            .unwrap();
        assert!(
            !bad.bag_eq(&reference),
            "planted bug must visibly corrupt Q's result"
        );
    }
}
