//! Plain-text tables and CSV output for the experiment binaries.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of headers.
    pub(crate) fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut header_line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(header_line, "{:<width$}  ", h, width = widths[i]);
        }
        let _ = writeln!(out, "{}", header_line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header_line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV rendering to `path`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from writing the file.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_csv())
    }
}

/// Formats a ratio as a percentage improvement string (e.g. `+35.5 %`).
pub(crate) fn pct_improvement(ratio: f64) -> String {
    format!("{:+.1} %", (ratio - 1.0) * 100.0)
}

/// Formats a fraction as a percentage (e.g. `6.1 %`).
pub(crate) fn pct(fraction: f64) -> String {
    format!("{:+.1} %", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns_and_includes_title() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.add_row(vec!["short".into(), "1".into()]);
        t.add_row(vec!["a-much-longer-name".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("a-much-longer-name"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("a,b"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn percentage_helpers() {
        assert_eq!(pct_improvement(1.355), "+35.5 %");
        assert_eq!(pct(0.061), "+6.1 %");
        assert_eq!(pct(-0.027), "-2.7 %");
    }
}
