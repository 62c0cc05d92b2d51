//! Plain-text table rendering for the figure/table regeneration binaries.

use std::fmt::Write as _;

/// A simple left-aligned text table with a title, a header row, and data rows.
///
/// The figure and study binaries print these tables to stdout; the
/// golden-pinned ones are snapshotted under `tests/golden/`.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn row<S: ToString>(&mut self, cells: &[S]) -> &mut Self {
        let mut row: Vec<String> = cells.iter().map(ToString::to_string).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows currently in the table.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(line, "| {:width$} ", cell, width = widths[i]);
            }
            line.push('|');
            line
        };
        let header_line = render_row(&self.header, &widths);
        let _ = writeln!(out, "{header_line}");
        let _ = writeln!(out, "{}", "-".repeat(header_line.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }

    /// Renders and prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a ratio as a `x.x×` improvement factor.
pub fn format_improvement(ratio: f64) -> String {
    format!("{ratio:.1}x")
}

/// Formats a fraction (0..1) as a percentage with one decimal.
pub fn format_percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Geometric mean of a slice of positive values (returns 0 for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_title_header_and_rows() {
        let mut table = Table::new("Demo", &["model", "value"]);
        table.row(&["VGG-D", "15.6"]);
        table.row(&["CNN-1", "1.3"]);
        let text = table.render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("model"));
        assert!(text.contains("VGG-D"));
        assert!(text.contains("1.3"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut table = Table::new("t", &["a", "b", "c"]);
        table.row(&["only-one"]);
        assert!(table.render().contains("only-one"));
    }

    #[test]
    fn helpers_format_as_expected() {
        assert_eq!(format_improvement(10.04), "10.0x");
        assert_eq!(format_percent(0.889), "88.9%");
        let gm = geometric_mean(&[1.0, 100.0]);
        assert!((gm - 10.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
