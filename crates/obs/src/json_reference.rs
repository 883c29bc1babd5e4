//! The recursive-descent JSON parser that `json::read`'s flat tape
//! replaced, kept for tests only: the differential tests in `json` hold
//! the tape reader to its values, compact flags and errors.

use crate::json::{ParseError, Value, MAX_DEPTH};

/// Parses `src` to its value and whether `src` is byte for byte that
/// value's render.
pub fn parse_compact(src: &str) -> Result<(Value, bool), ParseError> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
        compact: true,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok((v, p.compact))
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Whether the text read so far passes [`parse_compact`]'s rule.
    compact: bool,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let start = self.pos;
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        if self.pos != start {
            self.compact = false;
        }
    }

    fn eat(&mut self, token: &str) -> Result<(), ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(token.as_bytes()) {
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
            // A run stops at an ASCII byte, so it starts and ends on char
            // boundaries of `src`, which is UTF-8 already.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        other => {
                            self.compact = false;
                            out.push(self.rare_escape(other)?);
                        }
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character an escape other than the five [`Value::render`]
    /// writes stands for; `pos` is just past the escape letter.
    fn rare_escape(&mut self, esc: u8) -> Result<char, ParseError> {
        match esc {
            b'/' => Ok('/'),
            b'b' => Ok('\u{8}'),
            b'f' => Ok('\u{c}'),
            b'u' => {
                let hex = self
                    .src
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                self.pos += 4;
                char::from_u32(code).ok_or_else(|| self.err("surrogate \\u escape"))
            }
            _ => Err(self.err("unknown escape")),
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
        let digits = self.pos - digits_start;
        if (1..=15).contains(&digits) && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            // `render` writes no leading zero and no `-0`.
            if (digits > 1 && self.src.as_bytes()[digits_start] == b'0') || (negative && int == 0) {
                self.compact = false;
            }
            let n = int as f64;
            return Ok(Value::Num(if negative { -n } else { n }));
        }
        self.compact = false;
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
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }
}
