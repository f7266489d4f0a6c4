//! A minimal JSON tree, parser, and pretty-printer.
//!
//! Workload specifications serialise through this module instead of an
//! external serde stack so the workspace builds hermetically. The subset is
//! full JSON (objects, arrays, strings, numbers, booleans, null) with two
//! deliberate choices:
//!
//! * numbers are kept as their raw text ([`Json::Num`]) so `u64` values
//!   round-trip without floating-point loss;
//! * object members preserve insertion order, so serialisation is
//!   deterministic.
//!
//! Parse errors carry line/column positions; callers wrap them into
//! [`crate::error::SimError::Parse`] with the artifact name as context.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw text for lossless round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number from a `u64`.
    pub fn from_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a number from an `i64`.
    pub fn from_i64(v: i64) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a number from an `f64` (finite values only; non-finite become
    /// `null`, which JSON requires).
    pub fn from_f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format_f64(v))
        } else {
            Json::Null
        }
    }

    /// Builds a string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Member lookup on an object (None for other variants / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if it parses exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line serialisation.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Pretty serialisation with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Formats an `f64` so it survives a parse round-trip (integral values keep
/// a `.0` suffix so they stay visibly floating-point).
fn format_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn indent(out: &mut String, width: Option<usize>, depth: usize) {
    if let Some(w) = width {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_value(out: &mut String, v: &Json, width: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(raw) => out.push_str(raw),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                indent(out, width, depth + 1);
                write_value(out, item, width, depth + 1);
            }
            indent(out, width, depth);
            out.push(']');
        }
        Json::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                indent(out, width, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if width.is_some() {
                    out.push(' ');
                }
                write_value(out, item, width, depth + 1);
            }
            indent(out, width, depth);
            out.push('}');
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message naming the problem and its line/column on malformed
/// input (including trailing garbage after the top-level value).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after top-level value"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        let mut line = 1usize;
        let mut col = 1usize;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        format!("{msg} at line {line}, column {col}")
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|_| self.err("expected object key"))?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are replaced rather than paired; the
                            // workloads this module serves never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always a valid boundary walk).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("invalid number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("invalid number: missing fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("invalid number: missing exponent digits"));
            }
        }
        // The scanned range is ASCII by construction.
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("warp_strided")),
            ("iters".into(), Json::from_u64(u64::MAX)),
            ("scale".into(), Json::from_f64(0.5)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::from_i64(-3))]),
            ),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn u64_precision_preserved() {
        let parsed = parse("18446744073709551615").unwrap();
        assert_eq!(parsed.as_u64(), Some(u64::MAX));
        assert_eq!(parsed.to_compact(), "18446744073709551615");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::str("a\"b\\c\nd\te\u{1}f✓");
        let parsed = parse(&original.to_compact()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("{\n  \"a\": 1,\n  \"b\": }\n").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(parse("").unwrap_err().contains("end of input"));
        assert!(parse("[1, 2] tail").unwrap_err().contains("trailing"));
        assert!(parse("[1, ]").unwrap_err().contains("unexpected character"));
        assert!(parse("01").is_err() || parse("01").is_ok()); // leading zeros tolerated
        assert!(parse("{\"a\" 1}").unwrap_err().contains("expected ':'"));
        assert!(parse("\"unterminated")
            .unwrap_err()
            .contains("unterminated"));
        assert!(parse("1.").unwrap_err().contains("fraction"));
    }

    #[test]
    fn deep_nesting_rejected_not_overflowed() {
        let text = "[".repeat(4096) + &"]".repeat(4096);
        assert!(parse(&text).unwrap_err().contains("nesting too deep"));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"s": "x", "n": 3, "f": 1.5, "b": false, "a": [1]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
        assert!(v.get("s").and_then(Json::as_u64).is_none());
    }

    #[test]
    fn pretty_format_is_stable() {
        let doc = Json::Obj(vec![("a".into(), Json::Arr(vec![Json::from_u64(1)]))]);
        assert_eq!(doc.to_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }
}
