//! Text-table and JSON reporting for the bench binaries.

use std::fmt::Write as _;
use std::path::Path;

use pageforge_types::json::{obj, FromJson, ToJson, Value};

/// A printable results table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Title (e.g. "Figure 9: Mean sojourn latency normalized to Baseline").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            s.trim_end().to_owned()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as JSON to `dir/<name>.json`, creating `dir` if
    /// needed.
    pub fn write_json(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(path, self.to_json().to_string_pretty())
    }
}

impl ToJson for Table {
    fn to_json(&self) -> Value {
        obj([
            ("title", self.title.to_json()),
            ("headers", self.headers.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl FromJson for Table {
    fn from_json(value: &Value) -> Option<Self> {
        Some(Table {
            title: String::from_json(value.get("title")?)?,
            headers: Vec::from_json(value.get("headers")?)?,
            rows: Vec::from_json(value.get("rows")?)?,
        })
    }
}

/// Formats a ratio like "1.68x".
pub fn ratio(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a percentage like "48.2%".
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["app", "value"]);
        t.row(vec!["img_dnn".into(), "1".into()]);
        t.row(vec!["x".into(), "100".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        assert!(s.contains("img_dnn"));
        assert!(s.contains("100"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.684), "1.68x");
        assert_eq!(pct(0.482), "48.2%");
    }

    #[test]
    fn json_written() {
        let dir = std::env::temp_dir().join("pageforge_report_test");
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into()]);
        t.write_json(&dir, "test_table").unwrap();
        let content = std::fs::read_to_string(dir.join("test_table.json")).unwrap();
        assert!(content.contains("\"title\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
