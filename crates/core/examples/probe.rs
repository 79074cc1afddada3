//! Ad-hoc debugging probe: run one SQL string under one strategy over a
//! tiny RST instance. Optional trailing args override table contents:
//! `r=NULL,1,0,5;4,0,1,5` (semicolon-separated rows, NULL allowed).
//!
//! Used to minimize the oracle findings committed under `tests/slt/corpus/`:
//!
//! ```text
//! cargo run -q --release -p bypass-core --example probe -- \
//!     "SELECT * FROM r WHERE a2 = (SELECT AVG(b2) FROM s WHERE b3 < 2) OR a2 <> 5" \
//!     s2 'r=NULL,1,0,5' 's=1,1,1,5'
//! ```
fn main() {
    use bypass_core::{DataType, Database, Strategy, TableBuilder, Value};
    let args: Vec<String> = std::env::args().collect();
    let Some(sql) = args.get(1) else {
        eprintln!("usage: probe <sql> [canonical|unnested|sqf|s1|s2|s3] [table=rows;rows ...]");
        std::process::exit(2);
    };
    let strat = match args.get(2).map(|s| s.as_str()) {
        Some("s2") => Strategy::S2UnionRewrite,
        Some("s1") => Strategy::S1Naive,
        Some("s3") => Strategy::S3Materialized,
        Some("sqf") => Strategy::UnnestedSubqueryFirst,
        Some("canonical") => Strategy::Canonical,
        _ => Strategy::Unnested,
    };
    let parse_rows = |spec: &str| -> Vec<Vec<Value>> {
        spec.split(';')
            .filter(|r| !r.trim().is_empty())
            .map(|r| {
                r.split(',')
                    .map(|v| match v.trim() {
                        "NULL" | "null" => Value::Null,
                        v => Value::Int(v.parse().expect("int cell")),
                    })
                    .collect()
            })
            .collect()
    };
    let mut overrides: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
    for a in args.iter().skip(3) {
        if let Some((name, spec)) = a.split_once('=') {
            overrides.push((name.to_string(), parse_rows(spec)));
        }
    }
    let mut db = Database::new();
    for (name, p) in [("r", 'a'), ("s", 'b'), ("t", 'c')] {
        let mut b = TableBuilder::new();
        for i in 1..=4 {
            b = b.column(format!("{p}{i}"), DataType::Int);
        }
        let rows = overrides
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.clone())
            .unwrap_or_else(|| {
                vec![
                    vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
                    vec![Value::Int(4), Value::Int(0), Value::Int(1), Value::Int(5)],
                ]
            });
        b = b.rows(rows).unwrap();
        db.register_table(name, b.build()).unwrap();
    }
    match db.explain(sql, strat) {
        Ok(e) => println!("{e}"),
        Err(e) => println!("EXPLAIN ERR: {e}"),
    }
    match db.sql_with(sql, strat, None) {
        Ok(rel) => {
            println!("rows={}", rel.len());
            for t in rel.rows() {
                println!("  {t:?}");
            }
        }
        Err(e) => println!("EXEC ERR: {e}"),
    }
}
