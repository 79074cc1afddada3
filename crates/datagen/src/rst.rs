//! The paper's synthetic RST schema (Section 4.1): tables `R`, `S`, `T`
//! with columns `a1..a4`, `b1..b4`, `c1..c4`. Scaling factor 1 yields
//! 10 000 rows; the outer and inner block scale independently (SF1/SF2
//! in Fig. 7).
//!
//! Values are uniform integers in `[0, 3000)` so the paper's literal
//! predicates keep sensible selectivities: `a4 > 1500` ≈ 0.5,
//! `b4 > 1500` ≈ 0.5, and an equality correlation `a2 = b2` matches
//! `rows/3000` tuples per outer tuple.
//!
//! The paper's queries against this schema (Sections 3.1–3.6) live here
//! too: [`Q1`]–[`Q4`], [`Q_EXISTS`], [`Q_COMBINED`], [`q1_with_threshold`].

use bypass_catalog::Catalog;
use bypass_types::Rng;
use bypass_types::{DataType, Field, Relation, Result, Schema, Tuple, Value};

/// Upper bound (exclusive) of the uniform value domain.
pub const DOMAIN: i64 = 3000;

/// Rows per unit of scaling factor.
pub const ROWS_PER_SF: f64 = 10_000.0;

/// Generate one RST table (4 integer columns with the given prefix).
pub fn table(prefix: char, sf: f64, seed: u64) -> Relation {
    let n = (ROWS_PER_SF * sf).round().max(0.0) as usize;
    let schema = Schema::new(
        (1..=4)
            .map(|i| Field::new(format!("{prefix}{i}"), DataType::Int))
            .collect(),
    );
    let mut rng = Rng::seed_from_u64(seed ^ (prefix as u64) << 32);
    let rows = (0..n)
        .map(|_| {
            Tuple::new(
                (0..4)
                    .map(|_| Value::Int(rng.gen_range(0..DOMAIN)))
                    .collect(),
            )
        })
        .collect();
    Relation::new(schema, rows)
}

/// The three tables of one RST instance. `sf_outer` scales `R` (the
/// outer block), `sf_inner` scales `S` and `T` (the inner blocks) —
/// SF1/SF2 in Fig. 7 of the paper.
#[derive(Debug, Clone)]
pub struct RstInstance {
    pub r: Relation,
    pub s: Relation,
    pub t: Relation,
}

/// Generate an instance with independent outer/inner scaling.
pub fn generate(sf_outer: f64, sf_inner: f64, seed: u64) -> RstInstance {
    RstInstance {
        r: table('a', sf_outer, seed),
        s: table('b', sf_inner, seed.wrapping_add(1)),
        t: table('c', sf_inner, seed.wrapping_add(2)),
    }
}

/// Register an instance under the names `r`, `s`, `t`.
pub fn register(catalog: &mut Catalog, instance: &RstInstance) -> Result<()> {
    catalog.register("r", instance.r.clone())?;
    catalog.register("s", instance.s.clone())?;
    catalog.register("t", instance.t.clone())?;
    Ok(())
}

/// Q1 — disjunctive linking (Fig. 7(a)).
pub const Q1: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500";

/// Q2 — disjunctive correlation (Fig. 7(c)).
pub const Q2: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)";

/// Q3 — tree query: two nested blocks at the same level (Section 3.5).
pub const Q3: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) \
        OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)";

/// Q4 — linear query: a block nested within a block (Section 3.6).
pub const Q4: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                 WHERE a2 = b2 \
                    OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))";

/// Q4 with a quantified inner-inner block: the plan of the paper's
/// Fig. 6. Q4 itself unnests its scalar inner-inner block over S first
/// and then splits S by Eqv. 4; an EXISTS is left to the driver, which
/// unnests it with a ⟕ over Eqv. 5's negative join stream.
pub const Q4_FIG6: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                 WHERE a2 = b2 \
                    OR EXISTS (SELECT * FROM t WHERE b4 = c2))";

/// Quantified variant (technical-report extension): EXISTS inside a
/// disjunction.
pub const Q_EXISTS: &str = "SELECT DISTINCT * FROM r \
     WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 1500) OR a4 > 1500";

/// Combined future-work case: disjunctive linking *and* disjunctive
/// correlation in one query (outlook item 1 of the paper).
pub const Q_COMBINED: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500) OR a4 > 2700";

/// Rank-ablation variants of Q1: the selectivity of the plain disjunct
/// `a4 > X` decides whether bypassing it first (Eqv. 2) or evaluating
/// the unnested linking predicate first (Eqv. 3) wins.
pub fn q1_with_threshold(threshold: i64) -> String {
    format!(
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > {threshold}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_counts_scale() {
        assert_eq!(table('a', 0.01, 7).len(), 100);
        assert_eq!(table('a', 0.1, 7).len(), 1000);
        let inst = generate(0.01, 0.05, 7);
        assert_eq!(inst.r.len(), 100);
        assert_eq!(inst.s.len(), 500);
        assert_eq!(inst.t.len(), 500);
    }

    #[test]
    fn schema_matches_paper() {
        let r = table('a', 0.001, 7);
        let names: Vec<&str> = r.schema().fields().iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["a1", "a2", "a3", "a4"]);
        assert!(r
            .schema()
            .fields()
            .iter()
            .all(|f| f.data_type() == DataType::Int));
    }

    #[test]
    fn deterministic_given_seed_distinct_across_tables() {
        let a = table('a', 0.01, 42);
        let b = table('a', 0.01, 42);
        assert_eq!(a, b);
        let c = table('a', 0.01, 43);
        assert_ne!(a, c);
        let inst = generate(0.01, 0.01, 42);
        assert_ne!(inst.r.rows()[0], inst.s.rows()[0]);
    }

    #[test]
    fn values_in_domain_and_roughly_uniform() {
        let r = table('a', 0.1, 11);
        let mut above = 0usize;
        for t in r.rows() {
            for v in t.values() {
                let Value::Int(i) = v else { panic!() };
                assert!((0..DOMAIN).contains(i));
            }
            if let Value::Int(i) = t[3] {
                if i > 1500 {
                    above += 1;
                }
            }
        }
        let frac = above as f64 / r.len() as f64;
        assert!(
            (0.4..0.6).contains(&frac),
            "a4 > 1500 selectivity ≈ 0.5, got {frac}"
        );
    }

    #[test]
    fn register_names() {
        let mut c = Catalog::new();
        register(&mut c, &generate(0.001, 0.001, 1)).unwrap();
        assert!(c.contains("r"));
        assert!(c.contains("s"));
        assert!(c.contains("t"));
    }
}
