//! Shared machine-readable `BENCH_*.json` writer.
//!
//! The custom-harness benches (`campaign`, `session`, `obs`, `alloc`)
//! each record their headline numbers at the workspace root so CI can
//! gate on them (`grep '"digest_match": true' BENCH_session.json`, the
//! allocs/step gate in `BENCH_alloc.json`). They used to hand-roll the
//! JSON with `write!`; this module is the one shared writer.
//!
//! The output stays deliberately simple — two-space indent, one
//! top-level field per line, nested groups inline — so the files remain
//! grep-able line by line and diff cleanly between runs. Insertion
//! order is preserved: fields appear exactly in the order the bench
//! added them.

use std::fmt::Write as _;

/// One JSON value a bench can record.
#[derive(Debug, Clone)]
enum Value {
    UInt(u64),
    /// Float with an explicit number of decimal places (benches choose
    /// the precision that is honest for the quantity: seconds get 6,
    /// speedups 3, rates 0).
    Float(f64, usize),
    Bool(bool),
    Str(String),
    Group(Vec<(String, Value)>),
}

fn render(value: &Value, out: &mut String) {
    match value {
        Value::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Float(v, decimals) => {
            let _ = write!(out, "{v:.decimals$}");
        }
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(v) => {
            let _ = write!(out, "\"{}\"", v.escape_default());
        }
        Value::Group(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{key}\": ");
                render(value, out);
            }
            out.push('}');
        }
    }
}

/// A flat group of key/value pairs rendered inline, e.g.
/// `{"serial": 0.133, "rate_limited": 0.134}`.
#[derive(Debug, Clone, Default)]
pub struct Group {
    fields: Vec<(String, Value)>,
}

impl Group {
    /// An empty group.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an unsigned-integer field.
    #[must_use]
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), Value::UInt(value)));
        self
    }

    /// Adds a float field rendered with `decimals` decimal places.
    #[must_use]
    pub fn float(mut self, key: &str, value: f64, decimals: usize) -> Self {
        self.fields
            .push((key.to_string(), Value::Float(value, decimals)));
        self
    }
}

/// An ordered `BENCH_*.json` report under construction.
#[derive(Debug, Clone)]
pub struct Report {
    fields: Vec<(String, Value)>,
}

impl Report {
    /// Starts a report; `bench` becomes the leading `"bench"` field.
    #[must_use]
    pub fn new(bench: &str) -> Self {
        Self {
            fields: vec![("bench".to_string(), Value::Str(bench.to_string()))],
        }
    }

    /// Adds an unsigned-integer field.
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_string(), Value::UInt(value)));
        self
    }

    /// Adds a float field rendered with `decimals` decimal places.
    pub fn float(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.fields
            .push((key.to_string(), Value::Float(value, decimals)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.push((key.to_string(), Value::Bool(value)));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields
            .push((key.to_string(), Value::Str(value.to_string())));
        self
    }

    /// Adds a nested inline group.
    pub fn group(&mut self, key: &str, group: Group) -> &mut Self {
        self.fields
            .push((key.to_string(), Value::Group(group.fields)));
        self
    }

    /// Renders the report as a JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let _ = write!(out, "  \"{key}\": ");
            render(value, &mut out);
            if i + 1 < self.fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }

    /// Writes `BENCH_<stem>.json` at the workspace root, logging the
    /// outcome to stderr exactly like the hand-rolled writers did.
    pub fn write(&self, stem: &str) {
        let path = format!(
            "{}/../../BENCH_{stem}.json",
            env!("CARGO_MANIFEST_DIR"),
            stem = stem
        );
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(err) => eprintln!("could not write {path}: {err}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_json_with_groups() {
        let mut report = Report::new("demo");
        report
            .uint("runs", 8)
            .group(
                "median_secs",
                Group::new().float("jobs_1", 1.5, 6).float("jobs_4", 0.5, 6),
            )
            .float("speedup", 3.0, 3)
            .bool("digest_match", true);
        let json = report.to_json();
        assert_eq!(
            json,
            "{\n  \"bench\": \"demo\",\n  \"runs\": 8,\n  \"median_secs\": {\"jobs_1\": 1.500000, \"jobs_4\": 0.500000},\n  \"speedup\": 3.000,\n  \"digest_match\": true\n}\n"
        );
        // The CI gate greps this exact substring.
        assert!(json.contains("\"digest_match\": true"));
    }
}
