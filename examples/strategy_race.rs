//! Strategy race on the RST schema: how the five evaluation strategies
//! scale on disjunctive linking (Q1) vs disjunctive correlation (Q2) as
//! the data grows — a miniature of the paper's Fig. 7.
//!
//! ```text
//! cargo run --release --example strategy_race
//! ```

use std::time::{Duration, Instant};

use bypass::datagen::rst::{self, Q1, Q2};
use bypass::{Database, Strategy};

fn main() -> bypass::Result<()> {
    for (name, sql) in [
        ("Q1 (disjunctive linking)", Q1),
        ("Q2 (disjunctive correlation)", Q2),
    ] {
        println!("== {name} ==");
        print!("{:>18}", "rows per table");
        for sf in [0.02, 0.05, 0.1] {
            print!("{:>12}", (10_000.0 * sf) as usize);
        }
        println!();
        for strategy in Strategy::all() {
            print!("{:>18}", strategy.to_string());
            for sf in [0.02, 0.05, 0.1] {
                let mut db = Database::new();
                rst::register(db.catalog_mut(), &rst::generate(sf, sf, 42))?;
                let start = Instant::now();
                match db.sql_with(sql, strategy, Some(Duration::from_secs(30))) {
                    Ok(_) => print!("{:>11.4}s", start.elapsed().as_secs_f64()),
                    Err(_) => print!("{:>12}", "n/a"),
                }
            }
            println!();
        }
        println!();
    }
    println!(
        "Note how every nested-loop strategy (S1/S3/canonical — and S2 on Q2,\n\
         where the OR→UNION rewrite does not apply) grows quadratically, while\n\
         the bypass-unnested plans stay near-linear."
    );
    Ok(())
}
