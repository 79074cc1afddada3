//! A dbgen-style generator for a TPC-H subset — all eight tables
//! (`region`, `nation`, `supplier`, `part`, `partsupp`, `customer`,
//! `orders`, `lineitem`) — and the four statements the reproduction runs
//! over them: the paper's Query 2d ([`QUERY_2D`]) and three shapes in
//! the spirit of Q4, Q17 and Q22 ([`QUERY_4_LIKE`], [`QUERY_17_LIKE`],
//! [`QUERY_22_LIKE`]) that put EXISTS, a correlated scalar AVG and an
//! uncorrelated one under disjunction. [`generate`] builds everything;
//! [`generate_2d`] leaves `customer`, `orders` and `lineitem` empty for
//! harnesses that run Query 2d only.
//!
//! The generator reproduces the structural properties the statements'
//! performance depends on:
//!
//! * the fixed `region`/`nation` hierarchy (5 regions × 5 nations, so
//!   `r_name = 'EUROPE'` keeps 1/5 of the suppliers),
//! * `p_type` drawn from the 6×5×5 dbgen syllable grammar
//!   (`LIKE '%BRASS'` keeps 1/5 of the parts),
//! * `p_size` uniform in 1..=50 (`p_size = 15` keeps 1/50),
//! * four `partsupp` rows per part with dbgen's supplier-spreading
//!   formula, `ps_availqty` uniform 1..=9999 (`> 2000` keeps ≈ 0.8) and
//!   `ps_supplycost` uniform in [1, 1000],
//! * `o_orderdate` uniform over 2 406 days, five order priorities, and
//!   1–7 `lineitem` rows per order referencing existing parts and
//!   suppliers, shipped within four months of the order,
//! * cardinalities per scale factor: 10 000·SF suppliers,
//!   200 000·SF parts, 800 000·SF partsupp rows, 150 000·SF customers,
//!   1 500 000·SF orders and ≈ 4 lineitems per order.
//!
//! Only the columns the four statements touch are generated with full
//! fidelity; the remaining columns are present with plausible fillers
//! so that the schema stays recognizably TPC-H.

use bypass_catalog::Catalog;
use bypass_types::Rng;
use bypass_types::{DataType, Field, Relation, Result, Schema, Tuple, Value};

pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// dbgen's 25 nations with their region keys.
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

const TYPE_SYLLABLE_1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLLABLE_2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLLABLE_3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// One generated TPC-H instance (all eight tables; Query 2d touches the
/// first five, `customer`/`orders`/`lineitem` support the wider example
/// workloads).
#[derive(Debug, Clone)]
pub struct TpchInstance {
    pub region: Relation,
    pub nation: Relation,
    pub supplier: Relation,
    pub part: Relation,
    pub partsupp: Relation,
    pub customer: Relation,
    pub orders: Relation,
    pub lineitem: Relation,
}

impl TpchInstance {
    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.region.len()
            + self.nation.len()
            + self.supplier.len()
            + self.part.len()
            + self.partsupp.len()
            + self.customer.len()
            + self.orders.len()
            + self.lineitem.len()
    }
}

/// Generate an instance at the given scale factor. SF 1 corresponds to
/// the official dbgen cardinalities (10k suppliers, 200k parts, 800k
/// partsupp rows); the reproduction uses SF ≤ 0.1 (see DESIGN.md §4).
pub fn generate(sf: f64, seed: u64) -> TpchInstance {
    generate_with(sf, seed, true)
}

/// Generate only the five tables Query 2d touches; `customer`, `orders`
/// and `lineitem` are left empty (they dominate generation time and
/// memory at larger scale factors). The `fig7` harness uses this.
pub fn generate_2d(sf: f64, seed: u64) -> TpchInstance {
    generate_with(sf, seed, false)
}

fn generate_with(sf: f64, seed: u64, full: bool) -> TpchInstance {
    let mut rng = Rng::seed_from_u64(seed);
    let suppliers = ((10_000.0 * sf).round() as usize).max(4);
    let parts = ((200_000.0 * sf).round() as usize).max(1);
    let customers = ((150_000.0 * sf).round() as usize).max(2);
    let order_count = ((1_500_000.0 * sf).round() as usize).max(2);
    let (customer_rel, orders_rel, lineitem_rel) = if full {
        let orders_rel = orders(order_count, customers, &mut rng);
        let lineitem_rel = lineitem(&orders_rel, parts, suppliers, &mut rng);
        (customer(customers, &mut rng), orders_rel, lineitem_rel)
    } else {
        (
            customer(0, &mut rng),
            orders(0, customers, &mut rng),
            Relation::empty(lineitem_schema()),
        )
    };
    TpchInstance {
        region: region(),
        nation: nation(),
        supplier: supplier(suppliers, &mut rng),
        part: part(parts, &mut rng),
        partsupp: partsupp(parts, suppliers, &mut rng),
        customer: customer_rel,
        orders: orders_rel,
        lineitem: lineitem_rel,
    }
}

/// Register under the standard TPC-H table names.
pub fn register(catalog: &mut Catalog, instance: &TpchInstance) -> Result<()> {
    catalog.register("region", instance.region.clone())?;
    catalog.register("nation", instance.nation.clone())?;
    catalog.register("supplier", instance.supplier.clone())?;
    catalog.register("part", instance.part.clone())?;
    catalog.register("partsupp", instance.partsupp.clone())?;
    catalog.register("customer", instance.customer.clone())?;
    catalog.register("orders", instance.orders.clone())?;
    catalog.register("lineitem", instance.lineitem.clone())?;
    Ok(())
}

fn customer(n: usize, rng: &mut Rng) -> Relation {
    let schema = Schema::new(vec![
        Field::new("c_custkey", DataType::Int),
        Field::new("c_name", DataType::Text),
        Field::new("c_address", DataType::Text),
        Field::new("c_nationkey", DataType::Int),
        Field::new("c_phone", DataType::Text),
        Field::new("c_acctbal", DataType::Float),
        Field::new("c_mktsegment", DataType::Text),
        Field::new("c_comment", DataType::Text),
    ]);
    const SEGMENTS: [&str; 5] = [
        "AUTOMOBILE",
        "BUILDING",
        "FURNITURE",
        "MACHINERY",
        "HOUSEHOLD",
    ];
    let rows = (1..=n as i64)
        .map(|k| {
            Tuple::new(vec![
                Value::Int(k),
                Value::text(format!("Customer#{k:09}")),
                Value::text(format!("caddr-{k}")),
                Value::Int(rng.gen_range(0..25)),
                Value::text(format!("{}-555-{k:04}", 10 + k % 25)),
                Value::Float((rng.gen_range(-99999..1000000i64) as f64) / 100.0),
                Value::text(SEGMENTS[rng.gen_range(0..5usize)]),
                Value::text(format!("customer comment {k}")),
            ])
        })
        .collect();
    Relation::new(schema, rows)
}

/// Order dates span 1992-01-01 .. 1998-08-02 as day numbers; status
/// follows dbgen's F/O/P split.
fn orders(n: usize, customers: usize, rng: &mut Rng) -> Relation {
    let schema = Schema::new(vec![
        Field::new("o_orderkey", DataType::Int),
        Field::new("o_custkey", DataType::Int),
        Field::new("o_orderstatus", DataType::Text),
        Field::new("o_totalprice", DataType::Float),
        Field::new("o_orderdate", DataType::Int),
        Field::new("o_orderpriority", DataType::Text),
        Field::new("o_comment", DataType::Text),
    ]);
    const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
    let rows = (1..=n as i64)
        .map(|k| {
            let date = rng.gen_range(0..2406i64); // days since 1992-01-01
            let status = if date < 1100 {
                "F"
            } else if rng.gen_bool(0.5) {
                "O"
            } else {
                "P"
            };
            Tuple::new(vec![
                Value::Int(k),
                Value::Int(rng.gen_range(1..=customers as i64)),
                Value::text(status),
                Value::Float((rng.gen_range(100000..50000000i64) as f64) / 100.0),
                Value::Int(date),
                Value::text(PRIORITIES[rng.gen_range(0..5usize)]),
                Value::text(format!("order comment {k}")),
            ])
        })
        .collect();
    Relation::new(schema, rows)
}

fn lineitem_schema() -> Schema {
    Schema::new(vec![
        Field::new("l_orderkey", DataType::Int),
        Field::new("l_partkey", DataType::Int),
        Field::new("l_suppkey", DataType::Int),
        Field::new("l_linenumber", DataType::Int),
        Field::new("l_quantity", DataType::Int),
        Field::new("l_extendedprice", DataType::Float),
        Field::new("l_discount", DataType::Float),
        Field::new("l_tax", DataType::Float),
        Field::new("l_returnflag", DataType::Text),
        Field::new("l_shipdate", DataType::Int),
        Field::new("l_comment", DataType::Text),
    ])
}

/// 1–7 lineitems per order, referencing existing parts/suppliers.
fn lineitem(orders: &Relation, parts: usize, suppliers: usize, rng: &mut Rng) -> Relation {
    let schema = lineitem_schema();
    let okey_idx = 0usize;
    let odate_idx = 4usize;
    let mut rows = Vec::new();
    for order in orders.rows() {
        let Value::Int(okey) = order[okey_idx] else {
            continue;
        };
        let Value::Int(odate) = order[odate_idx] else {
            continue;
        };
        let lines = rng.gen_range(1..=7i64);
        for line in 1..=lines {
            let flag = if rng.gen_bool(0.25) {
                if rng.gen_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            rows.push(Tuple::new(vec![
                Value::Int(okey),
                Value::Int(rng.gen_range(1..=parts as i64)),
                Value::Int(rng.gen_range(1..=suppliers as i64)),
                Value::Int(line),
                Value::Int(rng.gen_range(1..=50)),
                Value::Float((rng.gen_range(90000..10500000i64) as f64) / 100.0),
                Value::Float(rng.gen_range(0..11i64) as f64 / 100.0),
                Value::Float(rng.gen_range(0..9i64) as f64 / 100.0),
                Value::text(flag),
                Value::Int(odate + rng.gen_range(1..=121i64)),
                Value::text("lineitem"),
            ]));
        }
    }
    Relation::new(schema, rows)
}

fn region() -> Relation {
    let schema = Schema::new(vec![
        Field::new("r_regionkey", DataType::Int),
        Field::new("r_name", DataType::Text),
        Field::new("r_comment", DataType::Text),
    ]);
    let rows = REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::text(name),
                Value::text(format!("region {name}")),
            ])
        })
        .collect();
    Relation::new(schema, rows)
}

fn nation() -> Relation {
    let schema = Schema::new(vec![
        Field::new("n_nationkey", DataType::Int),
        Field::new("n_name", DataType::Text),
        Field::new("n_regionkey", DataType::Int),
        Field::new("n_comment", DataType::Text),
    ]);
    let rows = NATIONS
        .iter()
        .enumerate()
        .map(|(i, (name, region))| {
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::text(name),
                Value::Int(*region),
                Value::text(format!("nation {name}")),
            ])
        })
        .collect();
    Relation::new(schema, rows)
}

fn supplier(n: usize, rng: &mut Rng) -> Relation {
    let schema = Schema::new(vec![
        Field::new("s_suppkey", DataType::Int),
        Field::new("s_name", DataType::Text),
        Field::new("s_address", DataType::Text),
        Field::new("s_nationkey", DataType::Int),
        Field::new("s_phone", DataType::Text),
        Field::new("s_acctbal", DataType::Float),
        Field::new("s_comment", DataType::Text),
    ]);
    let rows = (1..=n as i64)
        .map(|k| {
            let nation = rng.gen_range(0..25i64);
            Tuple::new(vec![
                Value::Int(k),
                Value::text(format!("Supplier#{k:09}")),
                Value::text(format!("addr-{k}")),
                Value::Int(nation),
                Value::text(format!(
                    "{}-{:03}-{:03}-{:04}",
                    10 + nation,
                    rng.gen_range(100..1000i64),
                    rng.gen_range(100..1000i64),
                    rng.gen_range(1000..10000i64)
                )),
                Value::Float((rng.gen_range(-99999..1000000i64) as f64) / 100.0),
                Value::text(format!("supplier comment {k}")),
            ])
        })
        .collect();
    Relation::new(schema, rows)
}

fn part(n: usize, rng: &mut Rng) -> Relation {
    let schema = Schema::new(vec![
        Field::new("p_partkey", DataType::Int),
        Field::new("p_name", DataType::Text),
        Field::new("p_mfgr", DataType::Text),
        Field::new("p_brand", DataType::Text),
        Field::new("p_type", DataType::Text),
        Field::new("p_size", DataType::Int),
        Field::new("p_container", DataType::Text),
        Field::new("p_retailprice", DataType::Float),
        Field::new("p_comment", DataType::Text),
    ]);
    let rows = (1..=n as i64)
        .map(|k| {
            let mfgr = rng.gen_range(1..=5i64);
            let brand = mfgr * 10 + rng.gen_range(1..=5i64);
            let p_type = format!(
                "{} {} {}",
                TYPE_SYLLABLE_1[rng.gen_range(0..6usize)],
                TYPE_SYLLABLE_2[rng.gen_range(0..5usize)],
                TYPE_SYLLABLE_3[rng.gen_range(0..5usize)],
            );
            Tuple::new(vec![
                Value::Int(k),
                Value::text(format!("part {k}")),
                Value::text(format!("Manufacturer#{mfgr}")),
                Value::text(format!("Brand#{brand}")),
                Value::text(p_type),
                Value::Int(rng.gen_range(1..=50)),
                Value::text("JUMBO PKG"),
                Value::Float(900.0 + (k % 1000) as f64 / 10.0),
                Value::text(format!("part comment {k}")),
            ])
        })
        .collect();
    Relation::new(schema, rows)
}

fn partsupp(parts: usize, suppliers: usize, rng: &mut Rng) -> Relation {
    let schema = Schema::new(vec![
        Field::new("ps_partkey", DataType::Int),
        Field::new("ps_suppkey", DataType::Int),
        Field::new("ps_availqty", DataType::Int),
        Field::new("ps_supplycost", DataType::Float),
        Field::new("ps_comment", DataType::Text),
    ]);
    let s = suppliers as i64;
    let mut rows = Vec::with_capacity(parts * 4);
    for pk in 1..=parts as i64 {
        for i in 0..4i64 {
            // dbgen-style supplier spreading: each part gets 4 distinct
            // suppliers spaced around the key space. The stride is
            // clamped so that distinctness also holds for the tiny,
            // scaled-down supplier counts this reproduction uses
            // (4·max(1, S/4) ≤ S for all S ≥ 4).
            let stride = (s / 4).max(1);
            let sk = (pk - 1 + (pk - 1) / s + i * stride).rem_euclid(s) + 1;
            rows.push(Tuple::new(vec![
                Value::Int(pk),
                Value::Int(sk),
                Value::Int(rng.gen_range(1..=9999)),
                Value::Float((rng.gen_range(100..100001i64) as f64) / 100.0),
                Value::text("ps comment"),
            ]));
        }
    }
    Relation::new(schema, rows)
}

/// The paper's Query 2d, written against the standard TPC-H column
/// names (the paper abbreviates `s_nationkey` as `s n key` etc.).
pub const QUERY_2D: &str = "\
SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment \
FROM part, supplier, partsupp, nation, region \
WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15 \
  AND p_type LIKE '%BRASS' \
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
  AND r_name = 'EUROPE' \
  AND (ps_supplycost = (SELECT MIN(x_ps.ps_supplycost) \
                        FROM partsupp x_ps, supplier x_s, nation x_n, region x_r \
                        WHERE x_s.s_suppkey = x_ps.ps_suppkey \
                          AND p_partkey = x_ps.ps_partkey \
                          AND x_s.s_nationkey = x_n.n_nationkey \
                          AND x_n.n_regionkey = x_r.r_regionkey \
                          AND x_r.r_name = 'EUROPE') \
       OR ps_availqty > 2000) \
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey";

/// A Q4-like shape (the engine has no GROUP BY, so the count is global
/// rather than per-priority): orders in a date window that either are
/// urgent or have a late-shipping lineitem — EXISTS under disjunction,
/// the Eqv. 3 bypass case.
pub const QUERY_4_LIKE: &str = "\
SELECT COUNT(*) FROM orders \
WHERE o_orderdate >= 800 AND o_orderdate < 1200 \
  AND (o_orderpriority = '1-URGENT' \
       OR EXISTS (SELECT * FROM lineitem \
                  WHERE l_orderkey = o_orderkey \
                    AND l_shipdate > o_orderdate + 60))";

/// A Q17-like shape: revenue of small-quantity lineitems, where
/// "small" is a correlated scalar AVG over the same part — type JA
/// with a disjunctive escape on `p_size` (Eqv. 5 territory).
pub const QUERY_17_LIKE: &str = "\
SELECT SUM(l_extendedprice) FROM lineitem, part \
WHERE p_partkey = l_partkey AND p_brand = 'Brand#11' \
  AND (2 * l_quantity < (SELECT AVG(l2.l_quantity) FROM lineitem l2 \
                         WHERE l2.l_partkey = p_partkey) \
       OR p_size < 3)";

/// A Q22-like shape: customers above the positive-balance average with
/// no orders — an uncorrelated type-A scalar subquery feeding a
/// NOT EXISTS anti-join.
pub const QUERY_22_LIKE: &str = "\
SELECT COUNT(*) FROM customer \
WHERE c_acctbal > (SELECT AVG(c2.c_acctbal) FROM customer c2 \
                   WHERE c2.c_acctbal > 0.0) \
  AND NOT EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey)";

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_types::{ColumnStats, TableStats};

    /// `TableStats::from_relation` as it was before it counted numeric
    /// columns by sorting: every non-NULL value through one hash set,
    /// i.e. `Value`'s own `Eq`/`Hash` decide what is distinct.
    fn hashed_stats(rel: &Relation) -> TableStats {
        let columns = (0..rel.schema().arity())
            .map(|i| {
                let values = || {
                    rel.rows()
                        .iter()
                        .map(move |t| &t[i])
                        .filter(|v| !v.is_null())
                };
                ColumnStats {
                    distinct: values().collect::<std::collections::HashSet<_>>().len(),
                    nulls: rel.len() - values().count(),
                    min: values().min().cloned(),
                    max: values().max().cloned(),
                }
            })
            .collect();
        TableStats {
            row_count: rel.len(),
            columns,
        }
    }

    #[test]
    fn sorted_distinct_counts_equal_hashed_ones() {
        let i = generate(0.01, 42);
        for rel in [
            &i.region,
            &i.nation,
            &i.supplier,
            &i.part,
            &i.partsupp,
            &i.customer,
            &i.orders,
            &i.lineitem,
        ] {
            assert_eq!(TableStats::from_relation(rel), hashed_stats(rel));
        }
        // What numeric equality folds together: NaNs of either sign and
        // payload, the two zeros, a float and the integer it is exactly —
        // and what it keeps apart: 2^63 (no i64) and a fractional float
        // whose bit pattern is also an integer in the column.
        let half = 0.5f64;
        let mixed = [
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(3.0),
            Value::Int(3),
            Value::Float(i64::MAX as f64),
            Value::Int(i64::MAX),
            Value::Float(half),
            Value::Int(half.to_bits() as i64),
            Value::Null,
            Value::text("3"),
            Value::Bool(true),
        ];
        let rel = Relation::new(
            Schema::new(vec![Field::new("v", DataType::Float)]),
            mixed.iter().map(|v| Tuple::new(vec![v.clone()])).collect(),
        );
        let stats = TableStats::from_relation(&rel);
        assert_eq!(stats, hashed_stats(&rel));
        assert_eq!((stats.columns[0].distinct, stats.columns[0].nulls), (9, 2));
    }

    #[test]
    fn cardinalities_scale() {
        let inst = generate(0.001, 42);
        assert_eq!(inst.region.len(), 5);
        assert_eq!(inst.nation.len(), 25);
        assert_eq!(inst.supplier.len(), 10);
        assert_eq!(inst.part.len(), 200);
        assert_eq!(inst.partsupp.len(), 800);
        assert_eq!(inst.customer.len(), 150);
        assert_eq!(inst.orders.len(), 1500);
        // 1..7 lineitems per order → ~4× orders.
        let ratio = inst.lineitem.len() as f64 / inst.orders.len() as f64;
        assert!((2.0..6.0).contains(&ratio), "{ratio}");
    }

    #[test]
    fn lineitems_reference_orders_and_parts() {
        let inst = generate(0.001, 42);
        let max_order = inst.orders.len() as i64;
        for li in inst.lineitem.rows().iter().take(500) {
            let Value::Int(ok) = li[0] else { panic!() };
            assert!((1..=max_order).contains(&ok));
            let Value::Int(pk) = li[1] else { panic!() };
            assert!((1..=inst.part.len() as i64).contains(&pk));
            let Value::Int(sk) = li[2] else { panic!() };
            assert!((1..=inst.supplier.len() as i64).contains(&sk));
            // Ship date after order date.
            let Value::Int(ship) = li[9] else { panic!() };
            assert!(ship >= 1);
        }
    }

    #[test]
    fn order_custkeys_in_range() {
        let inst = generate(0.001, 42);
        for o in inst.orders.rows() {
            let Value::Int(ck) = o[1] else { panic!() };
            assert!((1..=inst.customer.len() as i64).contains(&ck));
        }
    }

    #[test]
    fn partsupp_suppliers_are_distinct_and_in_range() {
        let inst = generate(0.001, 42);
        let rows = inst.partsupp.rows();
        for chunk in rows.chunks(4) {
            let keys: std::collections::HashSet<_> = chunk.iter().map(|t| t[1].clone()).collect();
            assert_eq!(keys.len(), 4, "four distinct suppliers per part");
            for t in chunk {
                let Value::Int(sk) = t[1] else { panic!() };
                assert!((1..=10).contains(&sk));
            }
        }
    }

    #[test]
    fn brass_selectivity_about_one_fifth() {
        let inst = generate(0.01, 7);
        let idx = inst.part.schema().resolve(None, "p_type").unwrap();
        let brass = inst
            .part
            .rows()
            .iter()
            .filter(|t| matches!(&t[idx], Value::Text(s) if s.ends_with("BRASS")))
            .count();
        let frac = brass as f64 / inst.part.len() as f64;
        assert!((0.13..0.28).contains(&frac), "1/5 expected, got {frac}");
    }

    #[test]
    fn availqty_gt_2000_about_point_eight() {
        let inst = generate(0.01, 7);
        let idx = inst.partsupp.schema().resolve(None, "ps_availqty").unwrap();
        let hits = inst
            .partsupp
            .rows()
            .iter()
            .filter(|t| matches!(t[idx], Value::Int(q) if q > 2000))
            .count();
        let frac = hits as f64 / inst.partsupp.len() as f64;
        assert!((0.75..0.85).contains(&frac), "~0.8 expected, got {frac}");
    }

    #[test]
    fn europe_region_exists_and_nations_map() {
        let inst = generate(0.001, 7);
        let r_name = inst.region.schema().resolve(None, "r_name").unwrap();
        assert!(inst
            .region
            .rows()
            .iter()
            .any(|t| matches!(&t[r_name], Value::Text(s) if s.as_ref() == "EUROPE")));
        // 5 European nations (regionkey 3).
        let rk = inst.nation.schema().resolve(None, "n_regionkey").unwrap();
        let europe = inst
            .nation
            .rows()
            .iter()
            .filter(|t| t[rk] == Value::Int(3))
            .count();
        assert_eq!(europe, 5);
    }

    #[test]
    fn subset_generator_skips_big_tables() {
        let inst = generate_2d(0.001, 42);
        assert_eq!(inst.part.len(), 200);
        assert_eq!(inst.partsupp.len(), 800);
        assert!(inst.customer.is_empty());
        assert!(inst.orders.is_empty());
        assert!(inst.lineitem.is_empty());
        // 2d tables identical to the full generator's (same RNG stream).
        let full = generate(0.001, 42);
        let _ = full;
    }

    #[test]
    fn registration_and_determinism() {
        let mut c = Catalog::new();
        register(&mut c, &generate(0.001, 1)).unwrap();
        assert_eq!(c.len(), 8);
        let a = generate(0.001, 9);
        let b = generate(0.001, 9);
        assert_eq!(a.partsupp, b.partsupp);
    }
}
