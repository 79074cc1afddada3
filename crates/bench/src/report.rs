//! Aligned-text table rendering in the style of Fig. 7, plus an
//! EXPLAIN ANALYZE-style per-operator profile table.

use std::collections::HashMap;
use std::sync::Arc;

use bypass_exec::{LineSource, NodeMetrics, PhysNode};

/// A simple column-aligned table: one header row, labelled data rows.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: Vec<String>) -> Table {
        Table {
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push((label.into(), cells));
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = Vec::new();
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once("System".len()))
            .max()
            .unwrap_or(6);
        for (i, h) in self.header.iter().enumerate() {
            let mut w = h.len();
            for (_, cells) in &self.rows {
                if let Some(c) = cells.get(i) {
                    w = w.max(c.len());
                }
            }
            if widths.len() <= i {
                widths.push(w);
            } else {
                widths[i] = widths[i].max(w);
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&format!("{:<label_w$}", "System"));
        for (h, w) in self.header.iter().zip(&widths) {
            out.push_str(&format!("  {h:>w$}"));
        }
        out.push('\n');
        let total = label_w + widths.iter().map(|w| w + 2).sum::<usize>();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for (label, cells) in &self.rows {
            out.push_str(&format!("{label:<label_w$}"));
            for (c, w) in cells.iter().zip(&widths) {
                out.push_str(&format!("  {c:>w$}"));
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut out = format!("# {}\n", self.title);
        out.push_str("system,");
        out.push_str(&self.header.join(","));
        out.push('\n');
        for (label, cells) in &self.rows {
            out.push_str(label);
            out.push(',');
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE profile table
// ---------------------------------------------------------------------

/// Render an EXPLAIN ANALYZE-style profile: one row per operator with
/// call count, output rows, inclusive time, exclusive (self) time and
/// the operator's share of total runtime. The tree shape is kept via
/// indentation; percentages are computed against the root's inclusive
/// time, so the `self` column surfaces where a plan actually spends its
/// cycles (the thing the inline tree annotation of
/// `Database::explain_analyze` makes hard to eyeball). DAG-shared bypass
/// nodes appear once with their metrics and as counter-less
/// `(shared #k)` rows afterwards, so the exclusive-time percentages
/// still sum to ~100; a fused stage (`fused→#k`) reports the rows it
/// received and passed on — its time is part of join #k's.
pub fn profile_table(root: &Arc<PhysNode>, metrics: &HashMap<usize, NodeMetrics>) -> String {
    let metrics_of = |n: &PhysNode| metrics.get(&(n as *const PhysNode as usize));
    let total_nanos = metrics_of(root).map_or(0, |m| m.nanos);
    let mut table = Table::new(
        "per-operator profile (times in ms; % of root inclusive time)",
        vec![
            "calls".into(),
            "rows".into(),
            "total".into(),
            "self".into(),
            "self%".into(),
            "pos".into(),
            "neg".into(),
            "split".into(),
        ],
    );
    for line in root.lines(false) {
        let mut label = format!("{}{}", "  ".repeat(line.depth), line.label);
        // `[calls, rows]` known, the timing and stream columns not.
        let counts_only = |calls: String, rows: u64| {
            let mut cells = vec![calls, rows.to_string()];
            cells.extend(vec![String::from("-"); 6]);
            cells
        };
        let node_metrics = match line.source {
            LineSource::Node(n) => metrics_of(n),
            _ => None,
        };
        let cells = match node_metrics {
            Some(m) => {
                // A zero root inclusive time (sub-ns plan on an empty
                // instance, or an unmeasured root) makes every share
                // undefined — render `-` rather than 0.0% or NaN%.
                let pct = if total_nanos > 0 {
                    format!("{:.1}", m.self_nanos as f64 / total_nanos as f64 * 100.0)
                } else {
                    "-".into()
                };
                let (pos, neg, split) = if m.is_bypass() {
                    (
                        m.pos_rows.to_string(),
                        m.neg_rows.to_string(),
                        m.split_ratio()
                            .map(|s| format!("{:.1}%", s * 100.0))
                            .unwrap_or_else(|| "-".into()),
                    )
                } else {
                    ("-".into(), "-".into(), "-".into())
                };
                vec![
                    m.calls.to_string(),
                    m.rows.to_string(),
                    format!("{:.3}", m.total_ms()),
                    format!("{:.3}", m.self_ms()),
                    pct,
                    pos,
                    neg,
                    split,
                ]
            }
            None => match line.source {
                LineSource::Shared | LineSource::Header => vec!["-".into(); 8],
                LineSource::Stage { host, index } => {
                    match metrics_of(host).and_then(|m| m.stages.get(index)) {
                        Some(st) => {
                            label.push_str(&format!(" in={}", st.rows_in));
                            counts_only("-".into(), st.rows_out)
                        }
                        None => counts_only("0".into(), 0),
                    }
                }
                LineSource::Node(_) => counts_only("0".into(), 0),
            },
        };
        table.row(label, cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_core::Strategy;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", vec!["a".into(), "bbbb".into()]);
        t.row("sys1", vec!["1.0".into(), "22".into()]);
        t.row("longer-system", vec!["n/a".into(), "3.555".into()]);
        let s = t.render();
        assert!(s.starts_with("demo\n"), "{s}");
        assert!(s.contains("longer-system"), "{s}");
        // Header and data cells right-aligned to the same width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len(), "{s}");
    }

    #[test]
    fn csv_escape_free_payload() {
        let mut t = Table::new("demo", vec!["x".into()]);
        t.row("s", vec!["1".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "# demo\nsystem,x\ns,1\n");
    }

    #[test]
    fn profile_table_reports_self_time_columns() {
        let db = crate::rst_database(0.01, 0.01, 42);
        let p = db.profile(crate::Q1, Strategy::Canonical).unwrap();
        assert!(p.rows > 0, "Q1 returns rows on the small instance");
        let text = profile_table(&p.physical, &p.metrics);
        let header = text.lines().nth(1).unwrap_or("");
        for col in [
            "calls", "rows", "total", "self", "self%", "pos", "neg", "split",
        ] {
            assert!(header.contains(col), "missing column {col}: {text}");
        }
        assert!(text.contains("Scan"), "{text}");
        // Canonical Q1 evaluates the subquery per outer tuple: some
        // operator must report calls > 1.
        let many_calls = text
            .lines()
            .any(|l| l.trim_start().starts_with("subquery:"));
        assert!(many_calls, "subquery subplan rendered: {text}");
    }

    #[test]
    fn profile_table_marks_shared_bypass_nodes() {
        let db = crate::rst_database(0.01, 0.01, 42);
        let p = db.profile(crate::Q1, Strategy::Unnested).unwrap();
        let text = profile_table(&p.physical, &p.metrics);
        assert!(text.contains("(#1)"), "bypass node numbered: {text}");
        assert!(
            text.contains("(shared #"),
            "second reference marked: {text}"
        );
        // Shared references carry no counters (no double counting).
        for line in text.lines().filter(|l| l.contains("(shared #")) {
            assert!(line.trim_end().ends_with('-'), "{line}");
        }
        // The bypass selection reports its stream cardinalities.
        let bypass_line = text
            .lines()
            .find(|l| l.contains("(#1)"))
            .expect("numbered bypass row");
        let cells: Vec<&str> = bypass_line.split_whitespace().collect();
        assert!(
            cells.iter().any(|c| c.ends_with('%')),
            "split ratio rendered: {bypass_line}"
        );
    }

    #[test]
    fn profile_table_zero_root_time_renders_dash_not_percent() {
        let db = crate::rst_database(0.01, 0.01, 42);
        let p = db.profile(crate::Q1, Strategy::Unnested).unwrap();
        // Zero out every timing: the share of root inclusive time is
        // undefined, so the self% column must degrade to `-`.
        let metrics: HashMap<usize, NodeMetrics> = p
            .metrics
            .iter()
            .map(|(k, m)| {
                let mut m = m.clone();
                m.nanos = 0;
                m.self_nanos = 0;
                (*k, m)
            })
            .collect();
        let text = profile_table(&p.physical, &metrics);
        for line in text.lines().skip(3) {
            assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        }
        let first = text.lines().nth(3).expect("root row");
        let cells: Vec<&str> = first.split_whitespace().collect();
        // calls rows total self self% ... — self% is the 5th cell from
        // the end-of-label; just assert a literal `-` is present where a
        // percentage would otherwise be.
        assert!(cells.contains(&"-"), "{first}");
    }

    #[test]
    fn database_profile_matches_plain_execution() {
        let db = crate::rst_database(0.01, 0.01, 42);
        let expect = db
            .sql_with(crate::Q1, Strategy::Unnested, None)
            .unwrap()
            .len();
        let p = db.profile(crate::Q1, Strategy::Unnested).unwrap();
        assert_eq!(p.rows, expect);
        // Phase timings are populated (executed queries take > 0 time).
        assert!(p.phases.execute > 0, "{:?}", p.phases);
        assert!(p.phases.total() >= p.phases.execute);
    }
}
