//! The morsel scheduler forks on estimated work, not on rows (DESIGN.md
//! §7). Its own test binary: the span collector is process-wide.

use bypass::datagen::rst::{self, Q1};
use bypass::{Database, RunLimits, Strategy};

/// The fork storm: canonical Q1 over 5 000-row tables re-evaluates a σ
/// over 5 000 rows per outer row. A gate that counts rows forks that σ
/// once per evaluation (≈ 20 000 morsels, 2 500 thread spawns per
/// statement, twice the serial run time) and never the outer loop. The
/// work gate forks the outer loop — 5 000 rows of 5 004 units each — and
/// nothing under it: one evaluation of the nested σ is 5 000 × 4 units,
/// below the gate, and runs on a worker that forks nothing. The outer σ
/// runs its terms in planned order over the whole input, so it fans out
/// once per call: every morsel runs on the calling thread or the one
/// worker thread two workers spawn.
#[test]
fn canonical_q1_forks_its_outer_loop_once_and_nothing_nested() {
    let mut db = Database::new();
    rst::register(db.catalog_mut(), &rst::generate(0.5, 0.5, 42)).unwrap();
    let outer_rows = db.catalog().get("r").unwrap().row_count();
    assert_eq!(outer_rows, 5000);
    let limits = RunLimits {
        threads: Some(2),
        ..RunLimits::default()
    };
    bypass::trace::clear();
    bypass::trace::set_enabled(true);
    let result = db.run_governed(Q1, Strategy::Canonical, &limits);
    bypass::trace::set_enabled(false);
    assert_eq!(bypass::trace::dropped_events(), 0);
    let events = bypass::trace::take_events();
    result.unwrap();
    let morsels: Vec<_> = events.iter().filter(|e| e.name == "exec.morsel").collect();
    assert!(
        morsels.len() >= 2 && morsels.len() <= outer_rows,
        "the outer loop forks, a morsel holds at least one outer row: {} morsels",
        morsels.len()
    );
    for m in &morsels {
        assert_eq!(
            m.args,
            vec![("depth".to_string(), bypass::trace::ArgValue::U64(0))],
            "a nested evaluation below the gate must not fork"
        );
    }
    let mut tracks: Vec<u64> = morsels.iter().map(|m| m.tid).collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert!(
        tracks.len() <= 2,
        "one fan-out of the outer σ on two workers: {} morsels on {} thread tracks",
        morsels.len(),
        tracks.len()
    );
}
