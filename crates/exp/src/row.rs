//! Structured result rows and the CSV/JSON sinks they flow through.
//!
//! Every figure declares a fixed CSV header; cells emit [`Row`]s whose
//! values render into exactly the column format the hand-rolled binaries
//! used to `println!`, so downstream tooling sees byte-compatible CSV.  The
//! JSON sink re-reads the rendered columns and emits one object per row
//! (JSON Lines), inferring numbers and booleans from the rendered text so
//! both sinks stay in lock-step by construction.

use netsmith_topo::json::Json;
use std::fmt::Write as _;

/// One rendered cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    /// Float rendered as `{:.precision$}` (matching the legacy harness's
    /// per-column formats).
    Float {
        value: f64,
        precision: usize,
    },
    /// Optional float: `None` renders as the empty column the resilience
    /// harness prints for unmeasured aggregates.
    OptFloat {
        value: Option<f64>,
        precision: usize,
    },
    Bool(bool),
    /// A preformatted CSV fragment spanning one or more columns (used to
    /// splice in existing `csv_row()` style formatters unchanged).
    Raw(String),
}

impl Value {
    fn render(&self, out: &mut String) {
        match self {
            Value::Str(s) => out.push_str(s),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float { value, precision } => {
                let _ = write!(out, "{value:.precision$}");
            }
            Value::OptFloat { value, precision } => {
                if let Some(value) = value {
                    let _ = write!(out, "{value:.precision$}");
                }
            }
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Raw(s) => out.push_str(s),
        }
    }
}

/// One result row: an ordered list of values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    pub fn new() -> Self {
        Row::default()
    }

    /// Append a string column.
    pub fn str(mut self, value: impl Into<String>) -> Self {
        self.values.push(Value::Str(value.into()));
        self
    }

    /// Append an integer column.
    pub fn int(mut self, value: i64) -> Self {
        self.values.push(Value::Int(value));
        self
    }

    /// Append a float column rendered with `precision` decimals.
    pub fn float(mut self, value: f64, precision: usize) -> Self {
        self.values.push(Value::Float { value, precision });
        self
    }

    /// Append an optional float column (`None` renders empty).
    pub fn opt_float(mut self, value: Option<f64>, precision: usize) -> Self {
        self.values.push(Value::OptFloat { value, precision });
        self
    }

    /// Append a boolean column.
    pub fn bool(mut self, value: bool) -> Self {
        self.values.push(Value::Bool(value));
        self
    }

    /// Append a preformatted CSV fragment (may span several columns).
    pub fn raw(mut self, fragment: impl Into<String>) -> Self {
        self.values.push(Value::Raw(fragment.into()));
        self
    }

    /// Push a value in place (for post-processing passes).
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Render the CSV line.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (i, value) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            value.render(&mut out);
        }
        out
    }

    /// The rendered columns (splitting preformatted fragments on commas, so
    /// the result aligns with the figure's header).
    pub fn columns(&self) -> Vec<String> {
        self.to_csv().split(',').map(String::from).collect()
    }
}

/// How a figure's rows reach stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Header line + one CSV line per row (the default).
    Csv,
    /// Raw pass-through of single-value rows, no header (the DOT figure).
    Raw,
}

/// Render rows to stdout in the requested format.
pub fn emit(header: &str, rows: &[Row], mode: OutputMode, json: bool) {
    print!("{}", render(header, rows, mode, json));
}

/// The exact text [`emit`] prints: one newline-terminated line per row,
/// preceded by the header line in CSV mode.
pub fn render(header: &str, rows: &[Row], mode: OutputMode, json: bool) -> String {
    let mut out = String::new();
    match (mode, json) {
        (OutputMode::Raw, _) => {
            for row in rows {
                let _ = writeln!(out, "{}", row.to_csv());
            }
        }
        (OutputMode::Csv, false) => {
            let _ = writeln!(out, "{header}");
            for row in rows {
                let _ = writeln!(out, "{}", row.to_csv());
            }
        }
        (OutputMode::Csv, true) => {
            let names: Vec<&str> = header.split(',').collect();
            for row in rows {
                let _ = writeln!(out, "{}", row_to_json(&names, row));
            }
        }
    }
    out
}

/// One row as a JSON object keyed by the header's column names; numbers and
/// booleans are inferred from the rendered column text.
fn row_to_json(names: &[&str], row: &Row) -> Json {
    let members = names
        .iter()
        .zip(row.columns())
        .map(|(&name, column)| (name.to_string(), infer_json(&column)))
        .collect();
    Json::Obj(members)
}

fn infer_json(column: &str) -> Json {
    match column {
        "" => Json::Null,
        "true" => Json::Bool(true),
        "false" => Json::Bool(false),
        other => match other.parse::<f64>() {
            Ok(n) if n.is_finite() => Json::Num(n),
            _ => Json::Str(other.to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_render_legacy_formats() {
        let row = Row::new()
            .str("Mesh")
            .float(2.533, 3)
            .opt_float(None, 4)
            .opt_float(Some(0.25), 4)
            .bool(true)
            .int(-3)
            .raw("a,b");
        assert_eq!(row.to_csv(), "Mesh,2.533,,0.2500,true,-3,a,b");
        assert_eq!(row.columns().len(), 8);
    }

    #[test]
    fn json_rows_infer_types() {
        let row = Row::new().str("Mesh").float(1.5, 2).bool(false).raw("x,7");
        let names = ["topology", "hops", "ok", "tag", "n"];
        let json = row_to_json(&names, &row);
        assert_eq!(json.get("topology"), Some(&Json::Str("Mesh".into())));
        assert_eq!(json.get("hops"), Some(&Json::Num(1.5)));
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(json.get("n"), Some(&Json::Num(7.0)));
    }
}
