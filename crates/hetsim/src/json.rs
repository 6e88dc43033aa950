//! A minimal JSON reader for validating hand-rolled exports.
//!
//! The workspace writes JSON by hand (the Chrome `trace_event` exporter in
//! [`crate::trace`], the benchmark reports) and has no external JSON
//! dependency, so nothing ever *read back* those documents to prove they
//! parse. This module is that reader: a small, strict, recursive-descent
//! parser producing a [`JsonValue`] tree, used by the trace-exporter tests,
//! the bench reports' tests and the host-time ledger. It is a validator,
//! not a deserialiser, but it reads each byte of its input once, so a
//! document's parse time grows linearly with its size.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like browsers do).
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are kept sorted; duplicate keys are a parse error.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Why a document failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document. Trailing content (other than
/// whitespace) is an error, as are duplicate object keys, unescaped control
/// characters, and non-finite numbers (which JSON cannot represent).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:#04x}", c))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(JsonError {
                    at: key_at,
                    msg: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // exporters; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate in \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // A run of plain characters up to the next quote,
                    // backslash or control byte. Those stop bytes are ASCII,
                    // so both ends of the run are char boundaries, and each
                    // byte is looked at once.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.err(format!("number {text:?} overflows f64")));
        }
        Ok(JsonValue::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(
            parse(r#""a\nbA""#).unwrap(),
            JsonValue::String("a\nbA".into())
        );
        let doc = parse(r#"{"a": [1, 2, {"b": false}], "c": "d"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(JsonValue::as_str), Some("d"));
        assert_eq!(doc.get("a").and_then(JsonValue::as_array).unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":1,}", "{\"a\":1 \"b\":2}", "01x", "\"\x01\"",
            "{\"a\":1}{", "nul", "\"unterminated", "{\"dup\":1,\"dup\":2}", "1e999",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn decodes_multi_byte_scalars_in_strings_and_keys() {
        // 2-, 3- and 4-byte UTF-8, next to an escape and as an object key.
        let doc = parse("{\"é→𝄞\": [\"µs\\t→ 𝄞!\", \"\\u00e9\"], \"k\": \"é\"}").unwrap();
        let items = doc.get("é→𝄞").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[0].as_str(), Some("µs\t→ 𝄞!"));
        assert_eq!(items[1], *doc.get("k").unwrap());
        // Offsets stay byte offsets: the stray quote sits after 2 + 3 + 4 bytes.
        let e = parse("\"é→𝄞\" \"").unwrap_err();
        assert_eq!(
            (e.at, e.msg.as_str()),
            (12, "trailing content after document")
        );
        // A scalar outside a string is rejected where it starts.
        assert_eq!(parse("[1, é]").unwrap_err().at, 4);
    }

    #[test]
    fn parse_time_is_linear_in_string_length() {
        // One 1.25 MiB string of 1- to 4-byte scalars. A reader that
        // re-scans the rest of the input per character needs half a minute
        // for this; a linear one needs milliseconds, even unoptimised.
        let body = "é→𝄞 ".repeat(1 << 17);
        let t0 = std::time::Instant::now();
        let doc = parse(&format!("[\"{body}\"]")).unwrap();
        assert_eq!(doc.as_array().unwrap()[0].as_str(), Some(body.as_str()));
        assert!(t0.elapsed().as_secs_f64() < 5.0, "took {:?}", t0.elapsed());
    }

    #[test]
    fn roundtrips_exporter_style_documents() {
        let doc = parse(
            r#"{"traceEvents":[{"name":"compute","cat":"x","ph":"X","pid":0,"tid":3,"ts":1.25,"dur":0.5,"args":{"bytes":1024}}],"displayTimeUnit":"ms"}"#,
        )
        .unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events[0].get("tid").unwrap().as_f64(), Some(3.0));
    }
}
