//! The hand-rolled JSON writer behind every result file and the result
//! line the benchmark driver reads. Reading goes through
//! [`hetsim::json::parse`]; the workspace has no serialiser.

use std::fmt::Write as _;

/// A JSON document under construction. Object keys keep insertion order so
/// the files diff cleanly between runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, written without a decimal point.
    Int(i64),
    /// A measured number, written with every digit `f64` round-trips
    /// through; non-finite values have no JSON spelling and become `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::with on a non-object: {other:?}"),
        }
        self
    }

    /// The document on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// The document indented two spaces per level, newline-terminated.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                // `{:?}` keeps the ".0" on whole values, so a measured
                // number never reads back as an integer.
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Int(i64::try_from(x).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Int(i64::try_from(x).unwrap_or(i64::MAX))
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::json::{parse, JsonValue};

    fn sample() -> Json {
        Json::obj()
            .with("name", "tab\there \"quoted\" \\ \u{1}")
            .with("count", 42u64)
            .with("ratio", 0.1 + 0.2)
            .with("whole", 3.0)
            .with("bad", f64::NAN)
            .with("flag", true)
            .with("list", vec![Json::Int(-1), Json::Null, Json::obj()])
            .with("empty", Json::Arr(Vec::new()))
    }

    #[test]
    fn both_renderings_parse_back_to_the_same_tree() {
        let doc = sample();
        let compact = parse(&doc.render()).expect("compact form parses");
        let pretty = parse(&doc.pretty()).expect("pretty form parses");
        assert_eq!(compact, pretty);
        assert_eq!(
            compact.get("name").and_then(JsonValue::as_str),
            Some("tab\there \"quoted\" \\ \u{1}")
        );
        assert_eq!(compact.get("count").and_then(JsonValue::as_f64), Some(42.0));
        assert_eq!(compact.get("bad"), Some(&JsonValue::Null));
        assert_eq!(
            compact
                .get("list")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_whole() {
        let s = sample().render();
        assert!(s.contains("\"ratio\":0.30000000000000004"), "{s}");
        assert!(s.contains("\"whole\":3.0"), "{s}");
        assert!(s.contains("\"count\":42,"), "{s}");
        assert!(!s.contains('\n'), "compact form is one line");
    }

    #[test]
    fn key_order_is_insertion_order() {
        let s = Json::obj().with("z", 1u64).with("a", 2u64).render();
        assert_eq!(s, "{\"z\":1,\"a\":2}");
    }
}
