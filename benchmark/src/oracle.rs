//! The correctness oracle: every pool statement's expected row count and
//! order-independent bag hash, pinned in `expected.tsv` and generated
//! from `Strategy::Canonical` — the paper's ground truth, independent of
//! the rewrites under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bypass_types::{Relation, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Append one value in the slt normaliser's form: `NULL`, integers as
/// themselves, floats with three decimals (so float noise below 5e-4
/// cannot separate two strategies), `(empty)` for the empty string.
fn push_value(buf: &mut String, v: &Value) {
    match v {
        Value::Null => buf.push_str("NULL"),
        Value::Int(i) => write!(buf, "{i}").expect("write to String"),
        Value::Float(f) => write!(buf, "{f:.3}").expect("write to String"),
        Value::Bool(b) => buf.push_str(if *b { "true" } else { "false" }),
        Value::Text(s) if s.is_empty() => buf.push_str("(empty)"),
        Value::Text(s) => buf.push_str(s),
    }
}

/// Row count and bag hash of a result: FNV-1a of each normalised row,
/// summed wrapping — independent of row order, sensitive to duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

pub fn digest(rel: &Relation) -> Digest {
    digest_salted(rel, "")
}

fn digest_salted(rel: &Relation, salt: &str) -> Digest {
    let seed = fnv1a(FNV_OFFSET, salt.as_bytes());
    let mut buf = String::new();
    let mut hash = 0u64;
    for row in rel.rows() {
        buf.clear();
        for v in row.values() {
            push_value(&mut buf, v);
            buf.push('\u{1f}');
        }
        hash = hash.wrapping_add(fnv1a(seed, buf.as_bytes()));
    }
    Digest {
        rows: rel.len() as u64,
        hash,
    }
}

/// Digest of a whole data set: every table's bag hash salted with its
/// name, so a changed generator is told apart from a wrong result.
pub fn dataset_digest<'a>(tables: impl IntoIterator<Item = (&'a str, &'a Relation)>) -> Digest {
    let mut total = Digest { rows: 0, hash: 0 };
    for (name, rel) in tables {
        let d = digest_salted(rel, name);
        total.rows += d.rows;
        total.hash = total.hash.wrapping_add(d.hash);
    }
    total
}

/// A failed check, kept apart by kind: a data-set mismatch means datagen
/// changed, not that the engine returned wrong rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    Dataset {
        id: String,
        want: Digest,
        got: Digest,
    },
    MissingDataset(String),
    MissingStatement {
        dataset: String,
        sql: String,
    },
    WrongResult {
        sql: String,
        want: Digest,
        got: Digest,
    },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::Dataset { id, want, got } => write!(
                f,
                "data set {id} changed (datagen, not the engine): expected {} rows hash \
                 {:016x}, generated {} rows hash {:016x}; run `benchmark/run.sh --regen-expected`",
                want.rows, want.hash, got.rows, got.hash
            ),
            Mismatch::MissingDataset(id) => {
                write!(f, "expected.tsv has no data set {id}; run --regen-expected")
            }
            Mismatch::MissingStatement { dataset, sql } => write!(
                f,
                "expected.tsv has no entry for [{dataset}] {sql}; run --regen-expected"
            ),
            Mismatch::WrongResult { sql, want, got } => write!(
                f,
                "wrong result: expected {} rows hash {:016x}, got {} rows hash {:016x} for {sql}",
                want.rows, want.hash, got.rows, got.hash
            ),
        }
    }
}

/// The parsed `expected.tsv`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Expected {
    datasets: BTreeMap<String, Digest>,
    statements: BTreeMap<(String, String), Digest>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut out = Expected::default();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| format!("expected.tsv line {}: {what}", n + 1);
            let cols: Vec<&str> = line.split('\t').collect();
            let digest = |rows: &str, hash: &str| -> Result<Digest, String> {
                Ok(Digest {
                    rows: rows.parse().map_err(|_| bad("bad row count"))?,
                    hash: u64::from_str_radix(hash, 16).map_err(|_| bad("bad hash"))?,
                })
            };
            match cols.as_slice() {
                ["D", id, rows, hash] => {
                    out.datasets.insert(id.to_string(), digest(rows, hash)?);
                }
                ["Q", id, rows, hash, sql] => {
                    out.statements
                        .insert((id.to_string(), sql.to_string()), digest(rows, hash)?);
                }
                _ => return Err(bad("want `D id rows hash` or `Q id rows hash sql`")),
            }
        }
        Ok(out)
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Pinned expectations of the benchmark's correctness oracle. Generated by\n\
             # `benchmark/run.sh --regen-expected` from Strategy::Canonical; do not edit.\n\
             # D <data set> <rows> <bag hash>   |   Q <data set> <rows> <bag hash> <statement>\n",
        );
        for (id, d) in &self.datasets {
            writeln!(out, "D\t{id}\t{}\t{:016x}", d.rows, d.hash).expect("write to String");
        }
        for ((id, sql), d) in &self.statements {
            writeln!(out, "Q\t{id}\t{}\t{:016x}\t{sql}", d.rows, d.hash).expect("write to String");
        }
        out
    }

    pub fn set_dataset(&mut self, id: &str, d: Digest) {
        self.datasets.insert(id.to_string(), d);
    }

    pub fn set_statement(&mut self, dataset: &str, sql: &str, d: Digest) {
        self.statements
            .insert((dataset.to_string(), sql.to_string()), d);
    }

    pub fn check_dataset(&self, id: &str, got: Digest) -> Result<(), Mismatch> {
        match self.datasets.get(id) {
            None => Err(Mismatch::MissingDataset(id.to_string())),
            Some(want) if *want != got => Err(Mismatch::Dataset {
                id: id.to_string(),
                want: *want,
                got,
            }),
            Some(_) => Ok(()),
        }
    }

    pub fn statement(&self, dataset: &str, sql: &str) -> Result<Digest, Mismatch> {
        self.statements
            .get(&(dataset.to_string(), sql.to_string()))
            .copied()
            .ok_or_else(|| Mismatch::MissingStatement {
                dataset: dataset.to_string(),
                sql: sql.to_string(),
            })
    }
}

/// Full check of one result against its pinned digest.
pub fn check_result(sql: &str, want: Digest, rel: &Relation) -> Result<(), Mismatch> {
    let got = digest(rel);
    if got == want {
        Ok(())
    } else {
        Err(Mismatch::WrongResult {
            sql: sql.to_string(),
            want,
            got,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_types::{DataType, Field, Schema, Tuple};

    fn rel(rows: &[&[Value]]) -> Relation {
        let arity = rows.first().map_or(1, |r| r.len());
        let schema = Schema::new(
            (0..arity)
                .map(|i| Field::new(format!("c{i}"), DataType::Int))
                .collect(),
        );
        Relation::new(
            schema,
            rows.iter().map(|r| Tuple::new(r.to_vec())).collect(),
        )
    }

    #[test]
    fn bag_hash_ignores_order_and_sees_duplicates() {
        let a = [Value::Int(1), Value::text("x")];
        let b = [Value::Int(2), Value::Null];
        let ab = digest(&rel(&[&a, &b]));
        assert_eq!(ab, digest(&rel(&[&b, &a])));
        assert_ne!(ab, digest(&rel(&[&a, &b, &b])));
        assert_ne!(digest(&rel(&[&a, &a])).hash, digest(&rel(&[&a])).hash);
        // Column boundaries are part of the row: (1, 23) is not (12, 3).
        assert_ne!(
            digest(&rel(&[&[Value::Int(1), Value::Int(23)]])),
            digest(&rel(&[&[Value::Int(12), Value::Int(3)]]))
        );
    }

    #[test]
    fn values_normalise_like_the_slt_runner() {
        let mut buf = String::new();
        for v in [
            Value::Null,
            Value::Float(1.0004),
            Value::text(""),
            Value::Int(-3),
        ] {
            push_value(&mut buf, &v);
            buf.push('|');
        }
        assert_eq!(buf, "NULL|1.000|(empty)|-3|");
        assert_eq!(
            digest(&rel(&[&[Value::Float(0.1 + 0.2)]])),
            digest(&rel(&[&[Value::Float(0.3)]]))
        );
    }

    #[test]
    fn expected_round_trips_and_reports_each_mismatch_by_kind() {
        let mut e = Expected::default();
        let d = digest(&rel(&[&[Value::Int(1)]]));
        e.set_dataset("rst-1", d);
        e.set_statement("rst-1", "SELECT 1", d);
        let back = Expected::parse(&e.render()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.statement("rst-1", "SELECT 1"), Ok(d));
        assert!(matches!(
            back.statement("rst-1", "SELECT 2"),
            Err(Mismatch::MissingStatement { .. })
        ));
        let other = Digest { rows: 9, ..d };
        assert!(matches!(
            back.check_dataset("rst-1", other),
            Err(Mismatch::Dataset { .. })
        ));
        assert!(matches!(
            back.check_dataset("rst-2", d),
            Err(Mismatch::MissingDataset(_))
        ));
        assert!(Expected::parse("Q\tonly\tthree").is_err());
    }

    #[test]
    fn corrupted_expectation_is_a_wrong_result() {
        let r = rel(&[&[Value::Int(1)], &[Value::Int(2)]]);
        let good = digest(&r);
        assert_eq!(check_result("q", good, &r), Ok(()));
        let corrupted = Digest {
            hash: good.hash ^ 1,
            ..good
        };
        assert!(matches!(
            check_result("q", corrupted, &r),
            Err(Mismatch::WrongResult { .. })
        ));
    }
}
