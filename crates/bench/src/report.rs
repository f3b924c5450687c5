//! Table printing and summary statistics for experiment output.

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A simple aligned-column text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extras are dropped.
    pub fn row(&mut self, cells: &[String]) {
        let mut row = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with padded columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a speedup as the paper prints them, e.g. `4.03x`.
pub fn speedup(baseline_ms: f64, ours_ms: f64) -> f64 {
    if ours_ms <= 0.0 {
        0.0
    } else {
        baseline_ms / ours_ms
    }
}

/// Writes a serializable experiment result as JSON under
/// `target/experiments/<name>.json`, creating the directory as needed.
pub fn write_json<T: serde::Serialize>(
    name: &str,
    value: &T,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("long-name"));
    }

    /// A unit-only enum: the derive's second supported shape.
    #[derive(serde::Serialize)]
    enum Strategy {
        Advisor,
        Dgl,
    }

    /// A struct with named fields: the derive's first supported shape,
    /// with field attributes, visibility and nested generic types.
    #[derive(serde::Serialize)]
    struct Row {
        /// Skipped by the derive like any attribute.
        pub name: String,
        pub(crate) strategy: Strategy,
        speedup: f64,
        spans: Vec<(u64, u64)>,
        peers: Vec<Strategy>,
        missing: Option<u32>,
    }

    #[test]
    fn serialize_derive_writes_structs_and_unit_enums() {
        let row = Row {
            name: "Cora \"x\"".into(),
            strategy: Strategy::Advisor,
            speedup: 1.5,
            spans: vec![(0, 3), (4, 9)],
            peers: vec![Strategy::Dgl, Strategy::Advisor],
            missing: None,
        };
        // Byte for byte: `run_all`'s JSON reports are compared across
        // commits.
        let expected = r#"{
  "name": "Cora \"x\"",
  "strategy": "Advisor",
  "speedup": 1.5,
  "spans": [
    [
      0,
      3
    ],
    [
      4,
      9
    ]
  ],
  "peers": [
    "Dgl",
    "Advisor"
  ],
  "missing": null
}"#;
        let json = serde_json::to_string_pretty(&row).expect("serializes");
        assert_eq!(json, expected);
    }

    #[test]
    fn speedup_guards_zero() {
        assert_eq!(speedup(10.0, 0.0), 0.0);
        assert!((speedup(10.0, 2.5) - 4.0).abs() < 1e-12);
    }
}
