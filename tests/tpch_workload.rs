//! A wider TPC-H workload over customer/orders/lineitem: realistic
//! nested disjunctive queries beyond the paper's Query 2d, each checked
//! across every evaluation strategy.

use std::time::Duration;

use bypass::datagen::tpch;
use bypass::{Database, Strategy};

fn db() -> Database {
    let mut db = Database::new();
    tpch::register(db.catalog_mut(), &tpch::generate(0.0005, 7)).unwrap();
    db
}

fn check_all_strategies(db: &Database, sql: &str) {
    let reference = db
        .sql_with(sql, Strategy::Canonical, Some(Duration::from_secs(60)))
        .unwrap();
    for s in Strategy::all() {
        let got = db.sql_with(sql, s, Some(Duration::from_secs(60))).unwrap();
        assert!(
            got.bag_eq(&reference),
            "{s} differs on {sql}: {} vs {} rows",
            got.len(),
            reference.len()
        );
    }
}

#[test]
fn max_value_order_or_urgent() {
    // Orders that are the customer's most expensive OR urgent —
    // disjunctive linking over orders.
    let db = db();
    check_all_strategies(
        &db,
        "SELECT o_orderkey FROM orders o \
         WHERE o.o_totalprice = (SELECT MAX(x.o_totalprice) FROM orders x \
                                 WHERE x.o_custkey = o.o_custkey) \
            OR o.o_orderpriority = '1-URGENT'",
    );
}

#[test]
fn lineitem_count_or_flagged() {
    // Disjunctive correlation: count lineitems that belong to the order
    // OR were returned anywhere.
    let db = db();
    check_all_strategies(
        &db,
        "SELECT o_orderkey FROM orders \
         WHERE 10 < (SELECT COUNT(*) FROM lineitem \
                     WHERE o_orderkey = l_orderkey OR l_returnflag = 'R')",
    );
}

#[test]
fn customers_with_big_or_many_orders() {
    let db = db();
    check_all_strategies(
        &db,
        "SELECT c_custkey FROM customer c \
         WHERE 3 <= (SELECT COUNT(*) FROM orders o WHERE o.o_custkey = c.c_custkey) \
            OR c.c_acctbal > 9000.0",
    );
}

#[test]
fn exists_lineitem_or_open_status() {
    let db = db();
    check_all_strategies(
        &db,
        "SELECT o_orderkey FROM orders o \
         WHERE EXISTS (SELECT * FROM lineitem l \
                       WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 45) \
            OR o.o_orderstatus = 'P'",
    );
}

#[test]
fn quantified_all_over_lineitems() {
    // Orders whose every lineitem is small — θ ALL with correlation.
    let db = db();
    check_all_strategies(
        &db,
        "SELECT o_orderkey FROM orders o \
         WHERE 30 >= ALL (SELECT l.l_quantity FROM lineitem l \
                          WHERE l.l_orderkey = o.o_orderkey) \
           AND o.o_totalprice < 100000.0",
    );
}

#[test]
fn select_clause_nesting_over_orders() {
    let db = db();
    check_all_strategies(
        &db,
        "SELECT c_custkey, \
                (SELECT COUNT(*) FROM orders o WHERE o.o_custkey = c.c_custkey) AS n \
         FROM customer c ORDER BY c_custkey",
    );
}

#[test]
fn unnested_wins_on_this_workload_too() {
    // Sanity on plan shapes: the disjunctive queries above actually
    // unnest (no nested block left) under the default strategy.
    let db = db();
    for sql in [
        "SELECT o_orderkey FROM orders o \
         WHERE o.o_totalprice = (SELECT MAX(x.o_totalprice) FROM orders x \
                                 WHERE x.o_custkey = o.o_custkey) \
            OR o.o_orderpriority = '1-URGENT'",
        "SELECT o_orderkey FROM orders \
         WHERE 10 < (SELECT COUNT(*) FROM lineitem \
                     WHERE o_orderkey = l_orderkey OR l_returnflag = 'R')",
    ] {
        let text = db.explain(sql, Strategy::Unnested).unwrap();
        assert!(
            !text.contains("subquery:"),
            "should be fully unnested:\n{text}"
        );
    }
}

/// The physical plan of the benchmark's Q4-like statement, cost-based
/// (unnested). Γᵇ's Γ sinks into the join of its right input (`#5`):
/// `σ_{__t1 IS NOT NULL}` runs inside that join's chain, ahead of the
/// `Pick` of the key, so the join's pairs are folded as they leave and
/// never materialized.
#[test]
fn q4_like_folds_its_join_in_place() {
    let text = db()
        .explain(tpch::QUERY_4_LIKE, Strategy::CostBased)
        .unwrap();
    let physical = text.split("-- physical plan\n").nth(1).unwrap();
    assert_eq!(
        physical,
        "HashAggregate
  UnionAll
    Project fused→#1
      Stream(+)
        BypassFilter (#1)
          Filter
            Scan
    Project fused→#2
      Filter (#2)
        Project fused→#3
          HashOuterJoin (#3)
            Numbering (#4)
              Project fused→#1
                Stream(-)
                  BypassFilter (shared #1)
            HashAggregate fused→#5
              Project fused→#5
                Filter fused→#5
                  HashJoin (#5)
                    Numbering (shared #4)
                    Scan
"
    );
}
