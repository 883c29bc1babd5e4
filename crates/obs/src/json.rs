//! A minimal JSON document model with a writer and a parser.
//!
//! Just enough machinery to serialize run reports into machine-readable
//! artifacts and to parse them back in tests — the build environment is
//! offline, so `serde` is not an option. Object
//! keys keep insertion order (reports read better that way) and numbers
//! are stored as `f64`, which is exact for every counter below 2⁵³.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved when rendering.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a [`Value::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Value::Arr`].
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the [`render`](Value::render) of this value to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders human-readable JSON indented by two spaces per level.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push('}');
            }
            other => other.render_into(out),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Num(v as f64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<&BTreeMap<String, u64>> for Value {
    fn from(map: &BTreeMap<String, u64>) -> Value {
        Value::Obj(map.iter().map(|(k, &v)| (k.clone(), v.into())).collect())
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n == n.trunc() && n.abs() < 9e15 {
        write_int(out, n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// `write!(out, "{v}")` through a stack buffer: no formatter call.
fn write_int(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        digits[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap one line of `[`s from an untrusted
/// client overflows the thread's stack and aborts the process. The
/// documents this workspace writes nest at most 6 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// Accepts exactly one top-level value with optional surrounding
/// whitespace. `\uXXXX` escapes outside the BMP surrogate range are
/// decoded; surrogate pairs are rejected (reports never emit them).
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first offending character,
/// including the first array or object nested past [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err("unexpected token"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        let mut int = 0u64;
        while let Some(c @ b'0'..=b'9') = self.peek() {
            int = int.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            self.pos += 1;
        }
        // A plain integer of at most 15 digits is below 2⁵³, so it is an
        // exact f64 and equals what `str::parse` returns (-0 included).
        if (1..=15).contains(&(self.pos - digits_start))
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E'))
        {
            let n = int as f64;
            return Ok(Value::Num(if negative { -n } else { n }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = Value::obj(vec![
            ("id", "fig3_2".into()),
            ("wall_ms", 1.5.into()),
            ("n", 42u64.into()),
            ("tags", Value::Arr(vec!["a".into(), "b\"q\\".into()])),
            ("none", Value::Null),
            ("ok", Value::Bool(true)),
        ]);
        for text in [v.render(), v.render_pretty()] {
            assert_eq!(parse(&text).expect("parse"), v, "{text}");
        }
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Value::from(1_234_567_890u64).render(), "1234567890");
        assert_eq!(Value::Num(0.5).render(), "0.5");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
    }

    /// The integer fast paths agree bit for bit with the formatter and
    /// `str::parse` they skip: renders equal `format!("{}", n as i64)`,
    /// parses equal `text.parse::<f64>()`, at the 15/16-digit edge, around
    /// 2⁵³, for -0, leading zeros, fractions and exponents.
    #[test]
    fn integer_fast_paths_match_the_std_paths() {
        let edge = 1u64 << 53;
        let mut texts: Vec<String> = [
            "0",
            "-0",
            "00",
            "-00",
            "007",
            "-0007",
            "1",
            "-1",
            "0.0",
            "-0.0",
            "1.5",
            "-2.50",
            "1e3",
            "1E3",
            "-1e-3",
            "2.5e+2",
            "0e0",
            "123456789012345",
            "-123456789012345",
            "999999999999999",
            "1000000000000000",
            "-999999999999999",
            "9999999999999999",
            "0000000000000001",
            "00000000000000012",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        for n in [edge - 1, edge, edge + 1] {
            texts.push(n.to_string());
            texts.push(format!("-{n}"));
        }
        let mut rng = crate::Rng::new(0x001e_6e75);
        for _ in 0..2000 {
            let digits = rng.gen_range(1..=17usize);
            let mut t: String = (0..digits)
                .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
                .collect();
            if rng.gen_bool(0.5) {
                t.insert(0, '-');
            }
            texts.push(t);
        }
        for text in &texts {
            let want: f64 = text.parse().expect("valid number");
            let got = parse(text).expect("parses").as_f64().expect("a number");
            assert_eq!(got.to_bits(), want.to_bits(), "parse {text:?}");
        }

        let mut nums = vec![0.0, -0.0, 9e15 - 1.0, -(9e15 - 1.0), 9e15, 0.5, -1.25];
        for t in &texts {
            nums.push(t.parse().expect("valid number"));
        }
        for n in [edge - 1, edge, edge + 1] {
            nums.push(n as f64);
            nums.push(-(n as f64));
        }
        for n in nums {
            let want = if n == n.trunc() && n.abs() < 9e15 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            };
            assert_eq!(Value::Num(n).render(), want, "render {n:?}");
        }
    }

    #[test]
    fn escapes_control_characters() {
        let v = Value::Str("a\nb\tc\u{1}".into());
        assert_eq!(v.render(), "\"a\\nb\\tc\\u0001\"");
        assert_eq!(parse(&v.render()).expect("parse"), v);
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(" { \"a\" : [ 1 , -2.5e1 , { } ] , \"b\" : \"\\u0041x\" } ").expect("parse");
        assert_eq!(v.get("b").and_then(Value::as_str), Some("Ax"));
        let arr = v.get("a").and_then(Value::as_arr).expect("arr");
        assert_eq!(arr[1].as_f64(), Some(-25.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\x\""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// A nesting bomb is a parse error, not a stack overflow: 10⁵ `[`
    /// would need ~10⁵ recursive frames.
    #[test]
    fn nesting_past_the_cap_is_rejected() {
        let bomb = "[".repeat(100_000);
        let err = parse(&bomb).expect_err("nesting bomb must be rejected");
        assert_eq!(err.at, MAX_DEPTH);
        let mut objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        objects.push('1');
        objects.push_str(&"}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).is_err());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn get_and_accessors() {
        let v = Value::obj(vec![("k", 7u64.into())]);
        assert_eq!(v.get("k").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("k"), None);
    }
}
