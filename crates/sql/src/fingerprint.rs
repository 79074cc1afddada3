//! Normalized-AST query fingerprinting.
//!
//! A fingerprint identifies a query *shape*: two queries that differ
//! only in literal values, literal list lengths, identifier case or
//! surface formatting hash identically, while any structural change
//! (operators, nesting, quantifiers, DISTINCT, ORDER BY direction…)
//! changes the hash. The metrics hub keys its per-query stats table
//! by this hash, and EXPLAIN ANALYZE / oracle
//! reports print it so repros correlate with metrics entries.
//!
//! Normalization rules (DESIGN.md §9):
//!
//! 1. every literal (including `LIMIT` counts) becomes the placeholder
//!    literal `0` — fingerprints are value-insensitive;
//! 2. `IN (v1, …, vn)` literal lists collapse to one placeholder —
//!    list length is a value, not a shape;
//! 3. identifiers (tables, columns, aliases, qualifiers) fold to
//!    ASCII lowercase, matching the engine's case-insensitive name
//!    resolution;
//! 4. the normalized AST is rendered through the canonical `Display`
//!    pretty-printer (fully parenthesized, whitespace-free of the
//!    original text) and hashed with FNV-1a 64.
//!
//! The hash is a pure function of the normalized text, with no
//! per-process seed, so fingerprints are stable across runs,
//! platforms and worker counts.

use crate::ast::{Expr, Literal, OrderItem, SelectItem, SelectStmt, TableRef};

/// FNV-1a 64-bit: tiny, dependency-free, and stable by definition
/// (unlike `DefaultHasher`, which is seeded per process).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn norm_ident(s: &str) -> String {
    s.to_ascii_lowercase()
}

fn norm_expr(e: &Expr) -> Expr {
    match e {
        Expr::Column { qualifier, name } => Expr::Column {
            qualifier: qualifier.as_deref().map(norm_ident),
            name: norm_ident(name),
        },
        Expr::Literal(_) => Expr::Literal(Literal::Int(0)),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(norm_expr(left)),
            right: Box::new(norm_expr(right)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(norm_expr(expr)),
        },
        Expr::Like {
            negated,
            expr,
            pattern,
        } => Expr::Like {
            negated: *negated,
            expr: Box::new(norm_expr(expr)),
            pattern: Box::new(norm_expr(pattern)),
        },
        Expr::Between {
            negated,
            expr,
            low,
            high,
        } => Expr::Between {
            negated: *negated,
            expr: Box::new(norm_expr(expr)),
            low: Box::new(norm_expr(low)),
            high: Box::new(norm_expr(high)),
        },
        Expr::InList {
            negated,
            expr,
            list,
        } => {
            // A pure-literal list collapses to one placeholder (rule
            // 2); lists containing non-literals keep their arity —
            // those are distinct shapes.
            let norm_list: Vec<Expr> = if list.iter().all(|e| matches!(e, Expr::Literal(_))) {
                vec![Expr::Literal(Literal::Int(0))]
            } else {
                list.iter().map(norm_expr).collect()
            };
            Expr::InList {
                negated: *negated,
                expr: Box::new(norm_expr(expr)),
                list: norm_list,
            }
        }
        Expr::IsNull { negated, expr } => Expr::IsNull {
            negated: *negated,
            expr: Box::new(norm_expr(expr)),
        },
        Expr::InSubquery {
            negated,
            expr,
            subquery,
        } => Expr::InSubquery {
            negated: *negated,
            expr: Box::new(norm_expr(expr)),
            subquery: Box::new(norm_select(subquery)),
        },
        Expr::Exists { negated, subquery } => Expr::Exists {
            negated: *negated,
            subquery: Box::new(norm_select(subquery)),
        },
        Expr::QuantifiedCmp {
            op,
            quantifier,
            expr,
            subquery,
        } => Expr::QuantifiedCmp {
            op: *op,
            quantifier: *quantifier,
            expr: Box::new(norm_expr(expr)),
            subquery: Box::new(norm_select(subquery)),
        },
        Expr::ScalarSubquery(q) => Expr::ScalarSubquery(Box::new(norm_select(q))),
        Expr::Aggregate {
            func,
            distinct,
            arg,
        } => Expr::Aggregate {
            func: *func,
            distinct: *distinct,
            arg: arg.as_ref().map(|a| Box::new(norm_expr(a))),
        },
    }
}

fn norm_select(s: &SelectStmt) -> SelectStmt {
    SelectStmt {
        distinct: s.distinct,
        items: s
            .items
            .iter()
            .map(|it| match it {
                SelectItem::Wildcard => SelectItem::Wildcard,
                SelectItem::QualifiedWildcard(q) => SelectItem::QualifiedWildcard(norm_ident(q)),
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: norm_expr(expr),
                    alias: alias.as_deref().map(norm_ident),
                },
            })
            .collect(),
        from: s
            .from
            .iter()
            .map(|t| match t {
                TableRef::Table { name, alias } => TableRef::Table {
                    name: norm_ident(name),
                    alias: alias.as_deref().map(norm_ident),
                },
                TableRef::Derived { subquery, alias } => TableRef::Derived {
                    subquery: Box::new(norm_select(subquery)),
                    alias: norm_ident(alias),
                },
            })
            .collect(),
        where_clause: s.where_clause.as_ref().map(norm_expr),
        order_by: s
            .order_by
            .iter()
            .map(|o| OrderItem {
                expr: norm_expr(&o.expr),
                desc: o.desc,
            })
            .collect(),
        // LIMIT count is a literal (rule 1); its presence is shape.
        limit: s.limit.map(|_| 0),
    }
}

/// The canonical normalized rendering a fingerprint hashes (exposed
/// for tests and DESIGN.md examples).
pub fn normalized_sql(stmt: &SelectStmt) -> String {
    norm_select(stmt).to_string()
}

/// Fingerprint of a query shape: FNV-1a 64 over [`normalized_sql`].
pub fn fingerprint(stmt: &SelectStmt) -> u64 {
    fnv1a(normalized_sql(stmt).as_bytes())
}

/// Convenience: parse and fingerprint a SELECT (or EXPLAIN) text.
/// Returns `None` for statements without a query shape (DDL/DML) or
/// unparsable text.
pub fn fingerprint_sql(sql: &str) -> Option<u64> {
    match crate::parser::parse_statement(sql).ok()? {
        crate::ast::Statement::Query(q) | crate::ast::Statement::Explain { query: q, .. } => {
            Some(fingerprint(&q))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(sql: &str) -> u64 {
        fingerprint_sql(sql).unwrap_or_else(|| panic!("no fingerprint for: {sql}"))
    }

    #[test]
    fn literal_values_and_case_do_not_matter() {
        let a = fp("SELECT a1 FROM r WHERE a2 = 5");
        assert_eq!(a, fp("select A1 from R where A2 = 99"));
        assert_eq!(a, fp("SELECT a1 FROM r WHERE a2 = 'text'"));
        assert_eq!(a, fp("SELECT\n  a1\nFROM r\nWHERE a2 = 1.25"));
    }

    #[test]
    fn in_list_length_is_not_shape() {
        let a = fp("SELECT * FROM r WHERE a1 IN (1)");
        assert_eq!(a, fp("SELECT * FROM r WHERE a1 IN (1, 2, 3, 4)"));
        assert_ne!(a, fp("SELECT * FROM r WHERE a1 NOT IN (1)"));
        // Non-literal list members keep arity.
        assert_ne!(
            fp("SELECT * FROM r WHERE a1 IN (a2)"),
            fp("SELECT * FROM r WHERE a1 IN (a2, a3)")
        );
    }

    #[test]
    fn structure_is_shape() {
        let base = fp("SELECT a1 FROM r WHERE a2 = 5");
        assert_ne!(base, fp("SELECT a1 FROM r WHERE a2 < 5"));
        assert_ne!(base, fp("SELECT a1 FROM r WHERE a2 = 5 OR a3 = 5"));
        assert_ne!(base, fp("SELECT DISTINCT a1 FROM r WHERE a2 = 5"));
        assert_ne!(base, fp("SELECT a1 FROM r WHERE a2 = 5 ORDER BY a1"));
        assert_ne!(base, fp("SELECT a1 FROM s WHERE a2 = 5"));
        assert_ne!(
            fp("SELECT a1 FROM r ORDER BY a1"),
            fp("SELECT a1 FROM r ORDER BY a1 DESC")
        );
    }

    #[test]
    fn date_literals_normalize_like_any_literal() {
        // ISO-8601 dates travel through the engine as text literals;
        // the normalizer must treat them as values, not shape — and
        // the exotic literal spellings the lexer accepts (leading-dot
        // floats, overflow-degraded integers) must land in the same
        // placeholder bucket.
        let a = fp("SELECT e_id FROM events WHERE e_date BETWEEN '1994-01-01' AND '1994-12-31'");
        assert_eq!(
            a,
            fp("SELECT e_id FROM events WHERE e_date BETWEEN '1998-06-07' AND '1999-01-01'")
        );
        assert_eq!(
            a,
            fp("SELECT e_id FROM events WHERE e_date BETWEEN 0 AND 1")
        );
        let b = fp("SELECT e_id FROM events WHERE e_qty > 1");
        assert_eq!(b, fp("SELECT e_id FROM events WHERE e_qty > .5"));
        assert_eq!(
            b,
            fp("SELECT e_id FROM events WHERE e_qty > 99999999999999999999999")
        );
    }

    #[test]
    fn limit_presence_is_shape_but_count_is_not() {
        let with = fp("SELECT a1 FROM r LIMIT 10");
        assert_eq!(with, fp("SELECT a1 FROM r LIMIT 999"));
        assert_ne!(with, fp("SELECT a1 FROM r"));
    }

    #[test]
    fn subquery_shapes_distinguish_and_normalize() {
        let a = fp("SELECT * FROM r WHERE a1 = (SELECT MAX(b1) FROM s WHERE b2 = r.a2) OR a3 > 7");
        assert_eq!(
            a,
            fp("SELECT * FROM R WHERE A1 = (SELECT MAX(B1) FROM S WHERE B2 = R.A2) OR A3 > 0")
        );
        assert_ne!(
            a,
            fp("SELECT * FROM r WHERE a1 = (SELECT MIN(b1) FROM s WHERE b2 = r.a2) OR a3 > 7")
        );
        assert_ne!(
            fp("SELECT * FROM r WHERE EXISTS (SELECT * FROM s WHERE b1 = r.a1)"),
            fp("SELECT * FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE b1 = r.a1)")
        );
    }

    #[test]
    fn explain_shares_the_query_shape_and_ddl_has_none() {
        assert_eq!(
            fingerprint_sql("EXPLAIN ANALYZE SELECT a1 FROM r WHERE a2 = 1"),
            fingerprint_sql("SELECT a1 FROM r WHERE a2 = 2")
        );
        assert_eq!(fingerprint_sql("CREATE TABLE t (x INT)"), None);
        assert_eq!(fingerprint_sql("not sql at all"), None);
    }

    #[test]
    fn normalized_rendering_is_canonical() {
        let stmt = match crate::parser::parse_statement(
            "select A1 from R where (A2 = 17 or A3 in (1,2,3)) LIMIT 5",
        )
        .unwrap()
        {
            crate::ast::Statement::Query(q) => q,
            _ => unreachable!(),
        };
        assert_eq!(
            normalized_sql(&stmt),
            "SELECT a1 FROM r WHERE ((a2 = 0) OR (a3 IN (0))) LIMIT 0"
        );
    }

    #[test]
    fn fingerprints_are_stable_across_runs() {
        // Known FNV-1a 64 vectors: no per-process seed, so these can
        // never change (metrics baselines depend on stability).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let got = fp("SELECT a1 FROM r WHERE a2 = 5");
        assert_eq!(got, fp("SELECT a1 FROM r WHERE a2 = 5"));
    }
}
