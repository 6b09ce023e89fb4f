//! A tiny JSON value model with a recursive-descent parser and a writer.
//!
//! The workspace persists a handful of small documents — stripe descriptors,
//! device specs, machine tables — and must build offline with std only, so
//! this crate supplies exactly the JSON surface those documents need: the
//! seven value kinds, faithful integer round-trips (`Int` is kept apart from
//! `Float` so 64-bit byte offsets survive), string escapes, and pretty or
//! compact emission. It is not a general serde replacement: no streaming, no
//! borrowed parsing, duplicate object keys resolve to the first occurrence.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts (deeper is an error
/// naming the byte offset). Documents written here nest about five levels;
/// the bound keeps a hostile one from recursing the parser off its stack.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number that lexed as an integer and fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Parse or schema error, with a byte offset for parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Build an error from any message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Compact single-line emission.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty emission with two-space indentation.
    pub fn dump_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, fields.len(), '{', '}', |out, i| {
                write_escaped(out, &fields[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                fields[i].1.write(out, indent, depth + 1);
            }),
        }
    }

    /// Field lookup on an object (first match); `None` on other kinds.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload as `f64` (`Int` converts).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric payload as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required string field of an object.
    pub fn field_str(&self, key: &str) -> Result<&str, JsonError> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::new(format!("missing string field `{key}`")))
    }

    /// Required numeric field of an object, as `f64`.
    pub fn field_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| JsonError::new(format!("missing number field `{key}`")))
    }

    /// Required non-negative integer field of an object.
    pub fn field_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| JsonError::new(format!("missing integer field `{key}`")))
    }

    /// Required array field of an object.
    pub fn field_arr(&self, key: &str) -> Result<&[Json], JsonError> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::new(format!("missing array field `{key}`")))
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        i64::try_from(n)
            .map(Json::Int)
            .unwrap_or(Json::Float(n as f64))
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n as i64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's shortest-roundtrip Display; integral floats gain a ".0" so
        // they re-parse as Float and compare equal through as_f64 either way.
        let s = x.to_string();
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; descriptors never contain them.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// One value inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unfinished escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: descriptors are ASCII in
                            // practice, but decode pairs correctly anyway.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("short \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("1.5", Json::Float(1.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value);
            assert_eq!(Json::parse(&value.dump()).unwrap(), value);
        }
    }

    #[test]
    fn large_u64_offsets_survive() {
        let n = u64::MAX / 2; // fits i64
        let v = Json::from(n);
        assert_eq!(Json::parse(&v.dump()).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.25f64, 1.4, 4.5e9, -0.0031, 5.0] {
            let v = Json::Float(x);
            assert_eq!(Json::parse(&v.dump()).unwrap().as_f64(), Some(x));
        }
    }

    #[test]
    fn string_escapes() {
        let s = "quote\" slash\\ newline\n tab\t unicode é";
        let v = Json::Str(s.into());
        assert_eq!(Json::parse(&v.dump()).unwrap().as_str(), Some(s));
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".into())
        );
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".into())
        );
    }

    #[test]
    fn nested_documents_roundtrip() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::from("run-3")),
            ("chunk".into(), Json::from(65536u64)),
            (
                "members".into(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("disk".into(), Json::from(0u64)),
                        ("base".into(), Json::from(1048576u64)),
                    ]),
                    Json::Obj(vec![
                        ("disk".into(), Json::from(1u64)),
                        ("base".into(), Json::from(0u64)),
                    ]),
                ]),
            ),
            (
                "rates".into(),
                Json::Arr(vec![Json::Float(4.5), Json::Float(3.5)]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&doc.dump()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.dump_pretty()).unwrap(), doc);
    }

    #[test]
    fn field_accessors() {
        let doc = Json::parse(r#"{"a": "x", "n": 3, "f": 2.5, "l": [1, 2]}"#).unwrap();
        assert_eq!(doc.field_str("a").unwrap(), "x");
        assert_eq!(doc.field_u64("n").unwrap(), 3);
        assert_eq!(doc.field_f64("n").unwrap(), 3.0);
        assert_eq!(doc.field_f64("f").unwrap(), 2.5);
        assert_eq!(doc.field_arr("l").unwrap().len(), 2);
        assert!(doc.field_str("missing").is_err());
        assert!(doc.field_u64("a").is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "[1, ]",
            "nulll",
            "--1",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // 1 MiB of `[` (or 256 Ki `{"a":`) on a small stack: an unbounded
        // recursive descent aborts the process here.
        let errs = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| ["[".repeat(1 << 20), r#"{"a":"#.repeat(1 << 18)].map(|d| Json::parse(&d)))
            .unwrap()
            .join()
            .unwrap();
        for (err, at) in errs.into_iter().zip([MAX_DEPTH, 5 * MAX_DEPTH]) {
            let msg = err.unwrap_err().to_string();
            assert!(
                msg.contains(&format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {at}"
                )),
                "{msg}"
            );
        }
        let nest = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let doc = Json::parse(" \n{ \"a\" :\t[ 1 ,\r\n 2 ] } \n").unwrap();
        assert_eq!(doc.field_arr("a").unwrap(), &[Json::Int(1), Json::Int(2)]);
    }
}
