//! Experiment output: aligned stdout tables (the paper-shaped rows) plus
//! CSV dumps under `target/experiments/` for plotting.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Where experiment CSVs are written.
pub fn experiment_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("target");
    p.push("experiments");
    p
}

/// An aligned text table that also serializes to CSV.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a row for a cell whose run failed: `label`, then `—` in
    /// every other column.
    pub fn failed_row(&mut self, label: String) {
        let mut cells = vec![label];
        cells.resize(self.header.len(), "—".into());
        self.row(cells);
    }

    /// Render to an aligned string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{c:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout and write `<name>.csv` under the experiment dir.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        write_artifact(&format!("{name}.csv"), &csv);
    }
}

/// Write a named artifact under `target/experiments/`; failures are
/// reported but never fatal (stdout already has the data).
pub fn write_artifact(file: &str, contents: &str) {
    let dir = experiment_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(file);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("[artifact] {}", path.display());
    }
}

/// Serialize an `(x, y)` series per label into one CSV
/// (`label,x,y` rows) — the format the figure binaries use for curves.
pub fn series_csv(series: &[(String, Vec<(f64, f64)>)]) -> String {
    let mut out = String::from("label,x,y\n");
    for (label, pts) in series {
        for (x, y) in pts {
            let _ = writeln!(out, "{label},{x},{y}");
        }
    }
    out
}

/// Format a float with 3 significant decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["CUBIC".into(), "0.91".into()]);
        t.row(vec!["B-Libra".into(), "0.95".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("CUBIC"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn series_csv_format() {
        let s = series_csv(&[("x".to_string(), vec![(1.0, 2.0), (3.0, 4.0)])]);
        assert_eq!(s, "label,x,y\nx,1,2\nx,3,4\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(pct(0.123), "12.3%");
    }
}
