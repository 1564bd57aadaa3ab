//! Minimal Markdown/CSV table emitters (no JSON or CSV crate is in the
//! allowed dependency set, so output is hand-rolled).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One table cell.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Plain text.
    Text(String),
    /// Integer, rendered with thousands grouping.
    Int(u64),
    /// Float, rendered with the given number of decimals.
    Float(f64, usize),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => group_thousands(*v),
            Cell::Float(v, d) => format!("{v:.*}", d),
        }
    }

    fn render_csv(&self) -> String {
        match self {
            Cell::Text(s) => s.replace(',', ";"),
            Cell::Int(v) => v.to_string(),
            Cell::Float(v, d) => format!("{v:.*}", d),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as u64)
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v, 3)
    }
}

fn group_thousands(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// A simple experiment results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavored Markdown.
    pub fn to_markdown(&self) -> String {
        let mut cols: Vec<Vec<String>> = vec![self.headers.clone()];
        for row in &self.rows {
            cols.push(row.iter().map(Cell::render).collect());
        }
        let widths: Vec<usize> = (0..self.headers.len())
            .map(|c| cols.iter().map(|r| r[c].len()).max().unwrap_or(1))
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let body: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", body.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&cols[0], &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep, &widths));
        for row in &cols[1..] {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders CSV (no quoting needed: commas are replaced in cells).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::render_csv).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// Prints the Markdown form to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }

    /// Writes the CSV form next to the experiment outputs.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_aligned() {
        let mut t = Table::new("demo", &["name", "bits"]);
        t.row(vec!["algo1".into(), 12345u64.into()]);
        t.row(vec!["mg".into(), 7u64.into()]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| algo1 | 12_345 |"));
        assert!(md.contains("| mg    | 7      |"));
    }

    #[test]
    fn csv_renders_raw_values() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec![Cell::Float(1.23456, 2), Cell::Text("x,y".into())]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1.23,x;y\n");
    }

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(1), "1");
        assert_eq!(group_thousands(1234), "1_234");
        assert_eq!(group_thousands(1234567), "1_234_567");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
