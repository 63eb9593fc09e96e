//! Textual + CSV + JSON reports produced by every experiment.

use std::fmt::Write as _;
use std::path::Path;

/// The output of one experiment: a title, a free-form text block (what the
/// user sees on stdout), a set of CSV rows (what plotting scripts read) and
/// named scalar metrics (what the `eval_<id>.json` machine report tracks —
/// cache behaviour, hit rates and saved time, not just wall-clock).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment identifier (e.g. `figure3`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The rendered text table(s).
    pub text: String,
    /// CSV header.
    pub csv_header: String,
    /// CSV data rows.
    pub csv_rows: Vec<String>,
    /// Named scalar metrics serialised into the JSON report, in insertion
    /// order (e.g. memo-store hits/misses/evictions/resident bytes).
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        csv_header: impl Into<String>,
    ) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            text: String::new(),
            csv_header: csv_header.into(),
            csv_rows: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a named scalar metric for the JSON report.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Appends one line to the text block.
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Appends a formatted line to the text block.
    pub fn linef(&mut self, args: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.text, "{args}");
    }

    /// Appends one CSV row.
    pub fn row(&mut self, row: impl Into<String>) {
        self.csv_rows.push(row.into());
    }

    /// Renders the full report (title + text) for printing.
    pub fn render(&self) -> String {
        let bar = "=".repeat(self.title.len().max(8));
        format!("{bar}\n{}\n{bar}\n{}", self.title, self.text)
    }

    /// The CSV contents (header + rows).
    pub fn csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.csv_header);
        out.push('\n');
        for row in &self.csv_rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }

    /// Writes the CSV to `<dir>/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        std::fs::write(&path, self.csv())?;
        Ok(path)
    }

    /// The JSON report: id, title, metrics and the CSV rows, encoded with a
    /// dependency-free serialiser.
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"id\": {},", json_string(&self.id));
        let _ = writeln!(out, "  \"title\": {},", json_string(&self.title));
        out.push_str("  \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", json_string(name), json_number(*value));
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        let _ = writeln!(out, "  \"csv_header\": {},", json_string(&self.csv_header));
        out.push_str("  \"rows\": [");
        for (i, row) in self.csv_rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}", json_string(row));
        }
        if !self.csv_rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes the JSON report to `<dir>/eval_<id>.json`.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("eval_{}.json", self.id));
        std::fs::write(&path, self.json())?;
        Ok(path)
    }
}

/// JSON string literal (escapes quotes, backslashes and control bytes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal (`null` for non-finite values, which JSON lacks).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_text_and_csv() {
        let mut report = Report::new("figX", "A figure", "a,b");
        report.line("hello");
        report.linef(format_args!("x = {}", 42));
        report.row("1,2");
        report.row("3,4");
        assert!(report.render().contains("A figure"));
        assert!(report.render().contains("x = 42"));
        assert_eq!(report.csv(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn json_report_carries_metrics_and_rows() {
        let mut report = Report::new("press", "Cache \"pressure\"", "a,b");
        report.metric("store_hits", 42.0);
        report.metric("saved_ns", 1.5e9);
        report.metric("broken", f64::NAN);
        report.row("1,2");
        let json = report.json();
        assert!(json.contains("\"id\": \"press\""));
        assert!(json.contains("\"Cache \\\"pressure\\\"\""));
        assert!(json.contains("\"store_hits\": 42"));
        assert!(json.contains("\"saved_ns\": 1500000000"));
        assert!(json.contains("\"broken\": null"));
        assert!(json.contains("\"1,2\""));

        let dir = std::env::temp_dir().join("atm-eval-test-json");
        let _ = std::fs::remove_dir_all(&dir);
        let path = report.write_json(&dir).unwrap();
        assert!(path.ends_with("eval_press.json"));
        assert_eq!(std::fs::read_to_string(path).unwrap(), json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_is_written_to_disk() {
        let dir = std::env::temp_dir().join("atm-eval-test-report");
        let _ = std::fs::remove_dir_all(&dir);
        let mut report = Report::new("t1", "T", "h");
        report.row("v");
        let path = report.write_csv(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "h\nv\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
