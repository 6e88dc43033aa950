//! What every bench returns: one plain-data [`Report`].
//!
//! A bench is `fn() -> Report`. The report names its scalar summary, its
//! row tables, free-form notes (host-side figures that do not belong in the
//! JSON), the [`Gate`]s CI enforces and any other file the run produced;
//! this module owns the only text renderer, the only JSON writer and the
//! only gate check, and `bin/figures.rs` is one loop over them. Adding a
//! point is one more row, adding a claim one more `gate` line.
//!
//! The JSON layout is fixed — summary members first, then each table as an
//! array of one-line row objects — because every checked-in `BENCH_*.json`
//! holds virtual time only and must regenerate byte-identical (it is its
//! own baseline). The shape is as small as those files allow: a report has
//! a *list* of tables because `BENCH_collectives.json` and
//! `BENCH_paper.json` have several, a value can be a nested object because
//! `BENCH_selection.json` has one (`instance`), and a row names its columns
//! itself so no column list can fall out of step with it.

use std::fmt::Write as _;

/// One summary value or table cell. Floats carry how many decimals they
/// print with, in both the text table and the JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A label.
    Str(String),
    /// A count.
    Int(i64),
    /// A float printed fixed-point with this many decimals (`1.2300`).
    Fixed(f64, usize),
    /// A float printed in scientific notation with this many decimals
    /// (`1.230000000e-3`) — virtual times, so no digit is lost to scale.
    Sci(f64, usize),
    /// A flag.
    Bool(bool),
    /// A nested object (summary only).
    Obj(Fields),
}

/// Named values, in order: the summary, one table row, a nested object.
pub type Fields = Vec<(&'static str, Value)>;

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as i64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl Value {
    fn text(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(n) => n.to_string(),
            Value::Fixed(x, d) => format!("{x:.d$}"),
            Value::Sci(x, d) => format!("{x:.d$e}"),
            Value::Bool(b) => b.to_string(),
            Value::Obj(fields) => {
                let parts: Vec<String> = (fields.iter())
                    .map(|(k, v)| format!("{k}={}", v.text()))
                    .collect();
                parts.join(" ")
            }
        }
    }

    fn json(&self) -> String {
        match self {
            Value::Str(s) => format!("{s:?}"),
            Value::Obj(fields) => object(fields),
            number_or_flag => number_or_flag.text(),
        }
    }
}

/// `{"k": v, "k": v}` on one line.
fn object(fields: &Fields) -> String {
    let members: Vec<String> = (fields.iter())
        .map(|(k, v)| format!("\"{k}\": {}", v.json()))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// One claim a bench checks about its own numbers; `figures` exits non-zero
/// if any gate of any report it ran is not `ok`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The claim, with the measured figure in it.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

/// A bench's whole result.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The `figures` name; the JSON is written to `BENCH_<name>.json`.
    pub name: &'static str,
    /// Heading of the text rendering.
    pub title: String,
    /// Scalar members, written before the tables.
    pub summary: Fields,
    /// Row tables in JSON order: the member each is written under, and its
    /// rows. Every row of a table names the same columns.
    pub tables: Vec<(&'static str, Vec<Fields>)>,
    /// Text-only lines (host-side counters that would make a deterministic
    /// JSON file drift).
    pub notes: Vec<String>,
    /// The claims CI enforces.
    pub gates: Vec<Gate>,
    /// Other artefacts of the run, written beside the JSON: file name and
    /// contents.
    pub files: Vec<(&'static str, String)>,
}

impl Report {
    /// An empty report.
    pub fn new(name: &'static str, title: impl Into<String>) -> Self {
        Report {
            name,
            title: title.into(),
            summary: Vec::new(),
            tables: Vec::new(),
            notes: Vec::new(),
            gates: Vec::new(),
            files: Vec::new(),
        }
    }

    /// Declares a gate.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.gates.push(Gate { what, ok });
    }

    /// The aligned text rendering: tables, summary, notes, gates.
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n", self.title);
        for (key, rows) in &self.tables {
            let Some(first) = rows.first() else { continue };
            let _ = writeln!(out, "{key}:");
            let mut lines: Vec<Vec<String>> =
                vec![first.iter().map(|(name, _)| name.to_string()).collect()];
            for row in rows {
                lines.push(row.iter().map(|(_, value)| value.text()).collect());
            }
            let widths: Vec<usize> = (0..first.len())
                .map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0))
                .collect();
            for line in &lines {
                let cells: Vec<String> = (line.iter().zip(&widths))
                    .map(|(cell, w)| format!("{cell:>w$}"))
                    .collect();
                let _ = writeln!(out, "{}", cells.join("  "));
            }
            let _ = writeln!(out);
        }
        for (key, value) in &self.summary {
            let _ = writeln!(out, "{key}: {}", value.text());
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for g in &self.gates {
            let verdict = if g.ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "gate {verdict}: {}", g.what);
        }
        out
    }

    /// The `BENCH_<name>.json` document.
    pub fn to_json(&self) -> String {
        let mut members: Vec<String> = (self.summary.iter())
            .map(|(key, value)| format!("  \"{key}\": {}", value.json()))
            .collect();
        for (key, rows) in &self.tables {
            let rows: Vec<String> = rows.iter().map(|r| format!("    {}", object(r))).collect();
            members.push(format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n")));
        }
        format!("{{\n{}\n}}\n", members.join(",\n"))
    }

    /// `Err` naming every failed gate, if any.
    pub fn enforce(&self) -> Result<(), String> {
        let failed: Vec<&str> = (self.gates.iter())
            .filter(|g| !g.ok)
            .map(|g| g.what.as_str())
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: gate failed: {}", self.name, failed.join("; ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Report {
        let mut r = Report::new("demo", "A demo");
        let shape = vec![("ranks", 9.into()), ("label", "lan".into())];
        r.summary = vec![
            ("shape", Value::Obj(shape)),
            ("worst_pct", Value::Fixed(0.25, 4)),
        ];
        let row = |algo: &str, time_s, picked: bool| {
            vec![
                ("algo", algo.into()),
                ("time_s", Value::Sci(time_s, 9)),
                ("picked", picked.into()),
            ]
        };
        let rows = vec![row("ring", 1.5e-3, true), row("linear", 12.0, false)];
        r.tables.push(("points", rows));
        r.notes.push("host-side note".to_string());
        r.gate(true, "worst 0.25% under 5%");
        r
    }

    #[test]
    fn the_json_layout_is_pinned() {
        let want =
            "{\n  \"shape\": {\"ranks\": 9, \"label\": \"lan\"},\n  \"worst_pct\": 0.2500,\n  \
                    \"points\": [\n    \
                    {\"algo\": \"ring\", \"time_s\": 1.500000000e-3, \"picked\": true},\n    \
                    {\"algo\": \"linear\", \"time_s\": 1.200000000e1, \"picked\": false}\n  ]\n}\n";
        assert_eq!(demo().to_json(), want);
    }

    #[test]
    fn the_text_rendering_aligns_columns_and_lists_everything() {
        let text = demo().render();
        assert!(text.starts_with("# A demo\npoints:\n"));
        assert!(text.contains("  algo          time_s  picked\n"), "{text}");
        assert!(text.contains("linear   1.200000000e1   false\n"), "{text}");
        assert!(text.contains("shape: ranks=9 label=lan\nworst_pct: 0.2500\nhost-side note\n"));
        assert!(text.ends_with("gate ok: worst 0.25% under 5%\n"));
    }

    #[test]
    fn a_failed_gate_is_an_error_naming_it() {
        let mut r = demo();
        assert_eq!(r.enforce(), Ok(()));
        r.gate(false, "selector beats linear");
        r.gate(false, "nothing leaked");
        let failure = r.enforce().unwrap_err();
        assert!(failure.contains("demo") && failure.contains("selector beats linear"));
        assert!(failure.contains("nothing leaked") && !failure.contains("under 5%"));
        assert!(r.render().contains("gate FAILED: selector beats linear\n"));
    }

    /// Every `"key":` of a document with its nesting depth, in order of
    /// first appearance: the schema, whatever the number of rows.
    fn schema(doc: &str) -> Vec<(usize, &str)> {
        let (mut keys, mut depth, mut rest) = (Vec::new(), 0, doc);
        while let Some(c) = rest.chars().next() {
            rest = &rest[c.len_utf8()..];
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                '"' => {
                    // No bench label carries an escape.
                    let (string, after) = rest.split_once('"').expect("closing quote");
                    if after.starts_with(':') && !keys.contains(&(depth, string)) {
                        keys.push((depth, string));
                    }
                    rest = after;
                }
                _ => {}
            }
        }
        keys
    }

    #[test]
    fn every_bench_writes_valid_json_with_the_checked_in_keys_in_order() {
        for (name, run) in crate::BENCHES {
            let json = run().to_json();
            hetsim::json::parse(&json).unwrap_or_else(|e| panic!("{name}: {e:?}\n{json}"));
            let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            let checked_in = std::fs::read_to_string(&path).expect(&path);
            assert_eq!(schema(&json), schema(&checked_in), "{name} vs {path}");
        }
    }
}
