//! Experiment reporting: printable tables and a JSON results artifact.

use serde::{Deserialize, Serialize};

/// One printable result table (≈ one figure/claim of the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Page or table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (cells as strings).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the column count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> =
                row.iter().enumerate().map(|(i, c)| format!("{:w$}", c, w = widths[i])).collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        out
    }
}

/// The result of one experiment: tables plus free-form notes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Experiment id, e.g. "E1".
    pub id: String,
    /// What paper artifact it regenerates.
    pub paper_artifact: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-form observations.
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Creates an empty result.
    pub fn new(id: &str, paper_artifact: &str) -> Self {
        Self {
            id: id.into(),
            paper_artifact: paper_artifact.into(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Renders everything for the terminal.
    pub fn render(&self) -> String {
        let mut out = format!("\n###### {} — {} ######\n", self.id, self.paper_artifact);
        for t in &self.tables {
            out.push_str(&t.render());
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_string_array(items: &[String], indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let inner: Vec<String> =
        items.iter().map(|s| format!("{indent}  \"{}\"", json_escape(s))).collect();
    format!("[\n{}\n{indent}]", inner.join(",\n"))
}

impl Table {
    /// Serializes the table as pretty-printed JSON at the given base
    /// indent. Hand-rolled so artifact emission has no runtime
    /// serialization dependency.
    pub fn to_json(&self, indent: &str) -> String {
        let rows = if self.rows.is_empty() {
            "[]".to_string()
        } else {
            let inner: Vec<String> = self
                .rows
                .iter()
                .map(|r| json_string_array(r, &format!("{indent}    ")))
                .map(|a| format!("{indent}    {a}"))
                .collect();
            format!("[\n{}\n{indent}  ]", inner.join(",\n"))
        };
        format!(
            "{{\n{indent}  \"title\": \"{}\",\n{indent}  \"columns\": {},\n{indent}  \"rows\": {}\n{indent}}}",
            json_escape(&self.title),
            json_string_array(&self.columns, &format!("{indent}  ")),
            rows,
        )
    }
}

impl ExperimentResult {
    /// Serializes the result as pretty-printed JSON at the given base
    /// indent (see [`Table::to_json`]).
    pub fn to_json(&self, indent: &str) -> String {
        let tables = if self.tables.is_empty() {
            "[]".to_string()
        } else {
            let inner: Vec<String> = self
                .tables
                .iter()
                .map(|t| format!("{indent}    {}", t.to_json(&format!("{indent}    "))))
                .collect();
            format!("[\n{}\n{indent}  ]", inner.join(",\n"))
        };
        format!(
            "{{\n{indent}  \"id\": \"{}\",\n{indent}  \"paper_artifact\": \"{}\",\n{indent}  \"tables\": {},\n{indent}  \"notes\": {}\n{indent}}}",
            json_escape(&self.id),
            json_escape(&self.paper_artifact),
            tables,
            json_string_array(&self.notes, &format!("{indent}  ")),
        )
    }
}

/// Runs `f` inside an obs span recorded on `scope`'s `name` histogram,
/// returning the result and the elapsed wall time. The one timing idiom of
/// the experiment harness — replaces ad-hoc `Instant::now()`/`elapsed()`
/// pairs and leaves the latency in the registry for snapshot artifacts.
/// Assumes the scope's registry uses the default [`saga_core::obs::WallClock`]
/// (microsecond ticks).
pub fn timed<R>(
    scope: &saga_core::obs::Scope,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, std::time::Duration) {
    let span = scope.span(name);
    let out = f();
    let ticks = span.elapsed_ticks();
    drop(span);
    (out, std::time::Duration::from_micros(ticks))
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a duration in milliseconds.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1e3)
}

/// Formats a duration in microseconds.
pub fn us(d: std::time::Duration) -> String {
    format!("{:.1}us", d.as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["model", "mrr"]);
        t.row(&["TransE".into(), "0.512".into()]);
        t.row(&["ComplEx".into(), "0.498".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("TransE"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.5), "0.500");
        assert!(ms(std::time::Duration::from_millis(5)).starts_with("5.00"));
    }

    #[test]
    fn json_emission_is_valid_and_escaped() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut r = ExperimentResult::new("E0", "demo \"quoted\"");
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        r.tables.push(t);
        r.notes.push("note".into());
        let json = r.to_json("");
        // Structure checks without a JSON parser: balanced braces/brackets,
        // escaped quote, all keys present.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\\\"quoted\\\""));
        for key in ["\"id\"", "\"paper_artifact\"", "\"tables\"", "\"notes\"", "\"rows\""] {
            assert!(json.contains(key), "missing {key}");
        }
        let empty = ExperimentResult::new("E0", "x").to_json("");
        assert!(empty.contains("\"tables\": []"));
    }
}
