//! Plan gallery: render the canonical and unnested plans for the
//! paper's example queries Q1–Q4, reproducing the plan shapes of
//! Figures 2, 3, 5 and 6 (Fig. 6 through Q4 with an EXISTS inner block;
//! Q4 itself unnests its inner block first and takes Eqv. 4).
//!
//! ```text
//! cargo run --example plan_gallery
//! ```

use bypass::datagen::rst::{self, Q1, Q2, Q3, Q4, Q4_FIG6};
use bypass::{Database, Strategy};

fn main() -> bypass::Result<()> {
    let mut db = Database::new();
    rst::register(db.catalog_mut(), &rst::generate(0.001, 0.001, 42))?;

    let figures = [
        (
            "Fig. 2 — Q1: disjunctive linking (Eqv. 2: bypass selection, Γ, ⟕, ∪̇)",
            Q1,
        ),
        (
            "Fig. 3 — Q2: disjunctive correlation (Eqv. 4: σ± on p, partial Γ, χ combine)",
            Q2,
        ),
        ("Fig. 5 — Q3: tree query (Eqv. 3 then Eqv. 1)", Q3),
        (
            "Fig. 6 — Q4 with an EXISTS inner block: linear query (Eqv. 5: ν, ⋈±, Γᵇ; then Eqv. 1 in σ_p)",
            Q4_FIG6,
        ),
        (
            "Q4: linear query, inner block first (Eqv. 1 over S), then Eqv. 4 (DISTINCT split)",
            Q4,
        ),
    ];

    for (title, sql) in figures {
        println!("================================================================");
        println!("{title}");
        println!("================================================================");
        println!("-- SQL\n{sql}\n");
        let canonical = db.logical_plan(sql)?;
        println!("-- canonical translation\n{}", canonical.explain());
        let unnested = Strategy::Unnested.prepare(&canonical)?;
        println!("-- unnested bypass plan\n{}", unnested.explain());

        // Sanity: identical results.
        let a = db.sql_with(sql, Strategy::Canonical, None)?;
        let b = db.sql_with(sql, Strategy::Unnested, None)?;
        assert!(a.bag_eq(&b));
        println!("(both strategies return {} rows)\n", a.len());
    }
    Ok(())
}
