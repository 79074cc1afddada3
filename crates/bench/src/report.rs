//! Aligned-text table rendering in the style of Fig. 7.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
