//! A minimal JSON document model with a writer and one reader.
//!
//! The build environment is offline, so `serde` is not an option. The
//! writer serializes run reports, store entries and serve responses as
//! [`Value`]s. The reader, [`read`], turns a document into a flat
//! [`Tape`] of tokens in one pass, one allocation for the tokens and none
//! per string, number or key; a [`Node`] of the tape reads it in place,
//! and [`parse`] is the tape's [`to_value`](Node::to_value) for callers
//! that want an owned tree. Serve reads request lines and certifies
//! store entries from the tape; the [`View`] trait lets one reader body
//! serve both a `Node` and a `&Value`. Object keys keep insertion order
//! (reports read better that way) and numbers are stored as `f64`, which
//! is exact for every counter below 2⁵³.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;

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

    /// The number as a `u64`, if this is a finite, non-negative, integral
    /// [`Value::Num`]; `-0` reads as 0 and values past `u64::MAX`
    /// saturate (an `as` cast).
    pub fn as_u64(&self) -> Option<u64> {
        unsigned(self.as_f64())
    }

    /// The boolean, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
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

    /// Byte range of the value of the first `key` member — the one
    /// [`get`](Value::get) finds — in this object's [`render`](Value::render).
    /// Measured by rendering the members before it and the value itself,
    /// so it suits a small member followed by large ones. `None` for a
    /// non-object or a missing key.
    pub fn member_range(&self, key: &str) -> Option<Range<usize>> {
        let mut scratch = String::new();
        let (start, value, _) = self.member_start(key, &mut scratch)?;
        scratch.clear();
        value.render_into(&mut scratch);
        Some(start..start + scratch.len())
    }

    /// [`member_range`](Value::member_range) measured from both ends: the
    /// members before the value and those after it in a render `len`
    /// bytes long, never the value itself, so it suits a large member
    /// among small ones. `None` also when `len` is too short to be this
    /// object's render.
    pub fn member_range_around(&self, key: &str, len: usize) -> Option<Range<usize>> {
        let mut scratch = String::new();
        let (start, _, after) = self.member_start(key, &mut scratch)?;
        let end = len.checked_sub(members_len(after, &mut scratch) + 1)?;
        (end >= start).then_some(start..end)
    }

    /// The byte offset at which the first `key` member's value starts in
    /// the compact render, that value, and the members after it.
    fn member_start(&self, key: &str, scratch: &mut String) -> Option<(usize, &Value, &Pairs)> {
        let Value::Obj(pairs) = self else { return None };
        let i = pairs.iter().position(|(k, _)| k == key)?;
        let before = members_len(&pairs[..i], scratch);
        scratch.clear();
        write_str(scratch, key);
        // `{`, the members before with their commas, the key and `:`.
        Some((1 + before + scratch.len() + 1, &pairs[i].1, &pairs[i + 1..]))
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

/// The members of an object, in order.
type Pairs = [(String, Value)];

/// Compact render length of object members, each as `"key":value` plus
/// the comma that separates it from a neighbour.
fn members_len(pairs: &Pairs, scratch: &mut String) -> usize {
    pairs
        .iter()
        .map(|(k, v)| {
            scratch.clear();
            write_str(scratch, k);
            v.render_into(scratch);
            scratch.len() + 2
        })
        .sum()
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n.abs() < 9e15 && (n as i64) as f64 == n {
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

/// Whether a string byte must be written as an escape.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Every escaped byte is ASCII, so the plain prefix ends on a char
    // boundary; most strings are plain throughout.
    let plain = s.bytes().position(needs_escape).unwrap_or(s.len());
    out.push_str(&s[..plain]);
    for c in s[plain..].chars() {
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

/// Errors from [`read`] and [`parse`].
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

/// Deepest array/object nesting [`read`] accepts. The reader recurses
/// once per level, so without a cap one line of `[`s from an untrusted
/// client overflows the thread's stack and aborts the process. The
/// documents this workspace writes nest at most 6 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into an owned [`Value`]: the [`read`] tape's
/// [`to_value`](Node::to_value).
///
/// # Errors
///
/// As [`read`].
pub fn parse(src: &str) -> Result<Value, ParseError> {
    read(src).map(|tape| tape.root().to_value())
}

/// Reads a JSON document into a flat [`Tape`] of its values, in
/// document order, without building a [`Value`] tree.
///
/// Accepts exactly one top-level value with optional surrounding
/// whitespace. `\uXXXX` escapes outside the BMP surrogate range are
/// decoded; surrogate pairs are rejected (reports never emit them).
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first offending character,
/// including the first array or object nested past [`MAX_DEPTH`].
pub fn read(src: &str) -> Result<Tape<'_>, ParseError> {
    let mut r = Reader {
        src,
        pos: 0,
        depth: 0,
        tape: Tape {
            src,
            // The compact documents this workspace writes hold one token
            // per 4 to 8 bytes; a denser one grows the tape. Pages of a
            // large reservation that are never written stay unmapped.
            toks: Vec::with_capacity(src.len() / 4 + 1),
            decoded: String::new(),
            compact: true,
        },
    };
    r.skip_ws();
    r.value()?;
    r.skip_ws();
    if r.pos != src.len() {
        return Err(r.err("trailing characters"));
    }
    Ok(r.tape)
}

/// A read JSON document: one token per value and per object key, each
/// with its source range and the size of its subtree, so a container's
/// members are reached by skipping, not by following pointers. Strings
/// without escapes are slices of the source; the few with escapes are
/// decoded once into one buffer.
#[derive(Debug)]
pub struct Tape<'a> {
    src: &'a str,
    toks: Vec<Tok>,
    /// The decoded text of every string that holds an escape.
    decoded: String,
    compact: bool,
}

/// One value or object key of a [`Tape`].
#[derive(Debug, Clone, Copy)]
struct Tok {
    kind: Kind,
    /// Byte range in the source: a string's includes its quotes, a
    /// container's its brackets.
    start: usize,
    end: usize,
    /// Tokens in the subtree, this one and an object's keys included.
    size: usize,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Null,
    Bool(bool),
    Num(f64),
    /// A string whose text is its source range inside the quotes.
    Str,
    /// A string with an escape, its text decoded into `Tape::decoded`.
    Escaped {
        from: usize,
        to: usize,
    },
    /// An array of this many elements.
    Arr(usize),
    /// An object of this many members.
    Obj(usize),
}

impl Tape<'_> {
    /// The top-level value.
    #[must_use]
    pub fn root(&self) -> Node<'_> {
        Node { tape: self, at: 0 }
    }

    /// Whether the source is byte for byte the [`render`](Value::render)
    /// of the value it reads as.
    ///
    /// The flag is `true` only when the source holds
    /// - no whitespace outside strings,
    /// - no escape but `\"`, `\\`, `\n`, `\r` and `\t`, and
    /// - no number but plain integers of at most 15 digits, with no
    ///   leading zero and no `-0`.
    ///
    /// Such a text is its value's render, token by token: `render` writes
    /// no whitespace; `null`, `true` and `false` come back as written; a
    /// string run holds no `"`, `\` or control byte and is written back
    /// as is, while those five escapes decode to the five characters
    /// `render` writes as exactly those escapes (every other control
    /// character it writes as `\u00XX`, which the rule refuses); such an
    /// integer is below 9e15, so `render` writes it without exponent,
    /// fraction or leading zero, as its digits after a `-` when negative;
    /// and arrays and objects are `[`/`{`, their members joined by `,` (a
    /// key, `:`, its value), then `]`/`}`, every member kept in order,
    /// repeated keys included. So the [`source`](Node::source) of every
    /// node of a compact tape is that node's render. The rule is
    /// conservative: `false` does not mean the text is not a render.
    #[must_use]
    pub fn is_compact(&self) -> bool {
        self.compact
    }
}

/// One value of a [`Tape`], borrowed: the read-only counterpart of a
/// [`Value`], with the same lookups and the value's exact source range.
#[derive(Clone, Copy)]
pub struct Node<'t> {
    tape: &'t Tape<'t>,
    at: usize,
}

impl std::fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node({})", self.source())
    }
}

impl<'t> Node<'t> {
    fn tok(self) -> Tok {
        self.tape.toks[self.at]
    }

    /// The node of token `at` of the same tape.
    fn node(self, at: usize) -> Node<'t> {
        Node {
            tape: self.tape,
            at,
        }
    }

    /// Byte range of this value in the tape's source.
    #[must_use]
    pub fn range(self) -> Range<usize> {
        let tok = self.tok();
        tok.start..tok.end
    }

    /// This value's text in the tape's source: its
    /// [`render`](Value::render) when the tape
    /// [`is_compact`](Tape::is_compact).
    #[must_use]
    pub fn source(self) -> &'t str {
        &self.tape.src[self.range()]
    }

    /// Looks up the first `key` member of an object, as [`Value::get`]
    /// does; `None` for other kinds.
    #[must_use]
    pub fn get(self, key: &str) -> Option<Node<'t>> {
        self.members()?
            .find(|&(k, _)| k == key)
            .map(|(_, value)| value)
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(self) -> Option<f64> {
        match self.tok().kind {
            Kind::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The number as a `u64`, as [`Value::as_u64`] reads it.
    #[must_use]
    pub fn as_u64(self) -> Option<u64> {
        unsigned(self.as_f64())
    }

    /// The string, decoded, if this is one.
    #[must_use]
    pub fn as_str(self) -> Option<&'t str> {
        let tok = self.tok();
        match tok.kind {
            Kind::Str => Some(&self.tape.src[tok.start + 1..tok.end - 1]),
            Kind::Escaped { from, to } => Some(&self.tape.decoded[from..to]),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(self) -> Option<bool> {
        match self.tok().kind {
            Kind::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Whether this is an object.
    #[must_use]
    pub fn is_obj(self) -> bool {
        matches!(self.tok().kind, Kind::Obj(_))
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn items(self) -> Option<Items<'t>> {
        match self.tok().kind {
            Kind::Arr(left) => Some(Items {
                next: self.node(self.at + 1),
                left,
            }),
            _ => None,
        }
    }

    /// The members as `(key, value)` pairs in document order, repeated
    /// keys included, if this is an object.
    #[must_use]
    pub fn members(self) -> Option<Members<'t>> {
        match self.tok().kind {
            Kind::Obj(left) => Some(Members {
                next: self.node(self.at + 1),
                left,
            }),
            _ => None,
        }
    }

    /// The owned [`Value`] this node reads as.
    #[must_use]
    pub fn to_value(self) -> Value {
        match self.tok().kind {
            Kind::Null => Value::Null,
            Kind::Bool(b) => Value::Bool(b),
            Kind::Num(n) => Value::Num(n),
            Kind::Str | Kind::Escaped { .. } => {
                Value::Str(self.as_str().unwrap_or_default().to_string())
            }
            Kind::Arr(_) => Value::Arr(
                self.items()
                    .into_iter()
                    .flatten()
                    .map(Node::to_value)
                    .collect(),
            ),
            Kind::Obj(_) => Value::Obj(
                self.members()
                    .into_iter()
                    .flatten()
                    .map(|(k, v)| (k.to_string(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

/// The elements of an array [`Node`].
#[derive(Debug, Clone)]
pub struct Items<'t> {
    next: Node<'t>,
    left: usize,
}

impl<'t> Iterator for Items<'t> {
    type Item = Node<'t>;

    fn next(&mut self) -> Option<Node<'t>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let item = self.next;
        self.next.at += item.tok().size;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Items<'_> {}

/// The `(key, value)` members of an object [`Node`].
#[derive(Debug, Clone)]
pub struct Members<'t> {
    next: Node<'t>,
    left: usize,
}

impl<'t> Iterator for Members<'t> {
    type Item = (&'t str, Node<'t>);

    fn next(&mut self) -> Option<(&'t str, Node<'t>)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let key = self.next;
        let value = key.node(key.at + 1);
        self.next.at = value.at + value.tok().size;
        Some((key.as_str().unwrap_or_default(), value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Members<'_> {}

/// Read access shared by an owned [`Value`] and a [`Node`] of a
/// [`Tape`]: code written once against `View` reads either, each at the
/// speed of its own accessors.
pub trait View<'a>: Copy {
    /// The elements of an array.
    type Items: ExactSizeIterator<Item = Self>;

    /// The first `key` member of an object.
    fn get(self, key: &str) -> Option<Self>;
    /// The number, if this is one.
    fn as_f64(self) -> Option<f64>;
    /// The string, if this is one.
    fn as_str(self) -> Option<&'a str>;
    /// The boolean, if this is one.
    fn as_bool(self) -> Option<bool>;
    /// The elements, if this is an array.
    fn items(self) -> Option<Self::Items>;
    /// Whether this is an object.
    fn is_obj(self) -> bool;

    /// The number as a `u64`, as [`Value::as_u64`] reads it.
    fn as_u64(self) -> Option<u64> {
        unsigned(self.as_f64())
    }
}

impl<'a> View<'a> for &'a Value {
    type Items = std::slice::Iter<'a, Value>;

    fn get(self, key: &str) -> Option<Self> {
        Value::get(self, key)
    }
    fn as_f64(self) -> Option<f64> {
        Value::as_f64(self)
    }
    fn as_str(self) -> Option<&'a str> {
        Value::as_str(self)
    }
    fn as_bool(self) -> Option<bool> {
        Value::as_bool(self)
    }
    fn items(self) -> Option<Self::Items> {
        self.as_arr().map(<[Value]>::iter)
    }
    fn is_obj(self) -> bool {
        matches!(self, Value::Obj(_))
    }
}

impl<'t> View<'t> for Node<'t> {
    type Items = Items<'t>;

    fn get(self, key: &str) -> Option<Self> {
        Node::get(self, key)
    }
    fn as_f64(self) -> Option<f64> {
        Node::as_f64(self)
    }
    fn as_str(self) -> Option<&'t str> {
        Node::as_str(self)
    }
    fn as_bool(self) -> Option<bool> {
        Node::as_bool(self)
    }
    fn items(self) -> Option<Items<'t>> {
        Node::items(self)
    }
    fn is_obj(self) -> bool {
        Node::is_obj(self)
    }
}

/// A finite, non-negative, integral number as a `u64`; `-0` reads as 0
/// and values past `u64::MAX` saturate (an `as` cast).
fn unsigned(n: Option<f64>) -> Option<u64> {
    n.filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
}

struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The tokens read so far; its flag tells whether the text read so
    /// far passes [`Tape::is_compact`]'s rule.
    tape: Tape<'a>,
}

impl Reader<'_> {
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
            self.tape.compact = false;
        }
    }

    /// Appends a one-token value that starts at `start` and ends here.
    fn push(&mut self, kind: Kind, start: usize) {
        self.tape.toks.push(Tok {
            kind,
            start,
            end: self.pos,
            size: 1,
        });
    }

    fn literal(&mut self, token: &str, kind: Kind) -> Result<(), ParseError> {
        if !self.src.as_bytes()[self.pos..].starts_with(token.as_bytes()) {
            return Err(self.err("unexpected token"));
        }
        let start = self.pos;
        self.pos += token.len();
        self.push(kind, start);
        Ok(())
    }

    fn value(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Kind::Null),
            Some(b't') => self.literal("true", Kind::Bool(true)),
            Some(b'f') => self.literal("false", Kind::Bool(false)),
            Some(b'"') => self.string(),
            Some(b'[') => self.nested(b']', Self::array),
            Some(b'{') => self.nested(b'}', Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Reads an array or object: a placeholder token, its members read
    /// by `members` (which returns their count), then the token's kind,
    /// end and subtree size.
    fn nested(
        &mut self,
        close: u8,
        members: impl FnOnce(&mut Self) -> Result<usize, ParseError>,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        let (at, start) = (self.tape.toks.len(), self.pos);
        self.push(Kind::Null, start);
        self.depth += 1;
        self.pos += 1; // '[' or '{'
        let count = members(self)?;
        self.depth -= 1;
        let size = self.tape.toks.len() - at;
        let tok = &mut self.tape.toks[at];
        tok.kind = if close == b']' {
            Kind::Arr(count)
        } else {
            Kind::Obj(count)
        };
        tok.end = self.pos;
        tok.size = size;
        Ok(())
    }

    /// An array's elements, up to and past its `]`; their count.
    fn array(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(0);
        }
        let mut count = 0;
        loop {
            self.skip_ws();
            self.value()?;
            count += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(count);
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// An object's members, up to and past its `}`; their count.
    fn object(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(0);
        }
        let mut count = 0;
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            self.value()?;
            count += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(count);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        let start = self.pos;
        self.pos += 1;
        // Where the decoded text starts in `Tape::decoded`, once an
        // escape showed up.
        let mut from = None;
        loop {
            // A run stops at an ASCII byte, so it starts and ends on char
            // boundaries of `src`, which is UTF-8 already.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if from.is_some() {
                self.tape.decoded.push_str(&self.src[run..self.pos]);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    let kind = match from {
                        None => Kind::Str,
                        Some(from) => Kind::Escaped {
                            from,
                            to: self.tape.decoded.len(),
                        },
                    };
                    self.push(kind, start);
                    return Ok(());
                }
                Some(b'\\') => {
                    if from.is_none() {
                        from = Some(self.tape.decoded.len());
                        self.tape.decoded.push_str(&self.src[start + 1..self.pos]);
                    }
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        other => {
                            self.tape.compact = false;
                            self.rare_escape(other)?
                        }
                    };
                    self.tape.decoded.push(c);
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

    fn number(&mut self) -> Result<(), ParseError> {
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
                self.tape.compact = false;
            }
            let n = int as f64;
            self.push(Kind::Num(if negative { -n } else { n }), start);
            return Ok(());
        }
        self.tape.compact = false;
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
        let n = self.src[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("malformed number"))?;
        self.push(Kind::Num(n), start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owned value `src` reads as, and the tape's compact flag.
    fn read_compact(src: &str) -> Result<(Value, bool), ParseError> {
        read(src).map(|tape| (tape.root().to_value(), tape.is_compact()))
    }

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

    /// The escaping path `write_str` skips for plain strings, char by char.
    fn escaped_reference(s: &str) -> String {
        let mut out = String::from('"');
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
        out.push('"');
        out
    }

    /// The render `write_num`'s integer test replaces: `n == n.trunc()`
    /// and the formatter.
    fn num_reference(n: f64) -> String {
        if !n.is_finite() {
            "null".into()
        } else if n == n.trunc() && n.abs() < 9e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    /// The render fast paths — a plain string pushed whole, the integer
    /// test by `as i64` round trip — give the bytes of the escaping path
    /// and of `format!`: control characters, quotes, backslashes,
    /// non-ASCII, -0, ±(2⁵³ ± 1), values around 9e15, NaN/±inf and 2000
    /// seeded strings and numbers.
    #[test]
    fn render_fast_paths_match_the_escaping_and_format_paths() {
        let mut strings: Vec<String> = [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c",
            "\u{0}",
            "\u{1f}",
            " \u{7f}",
            "\n\r\t\u{8}\u{c}",
            "caf\u{e9}",
            "\u{65e5}\u{672c}",
            "\u{1f600}\"",
            "tail\n",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let alphabet = [
            'a',
            'Z',
            '0',
            ' ',
            '"',
            '\\',
            '\n',
            '\u{1}',
            '\u{1f}',
            '\u{e9}',
            '\u{1f600}',
        ];
        let mut rng = crate::Rng::new(0x5eed_57e5);
        for _ in 0..2000 {
            let len = rng.gen_range(0..12usize);
            strings.push(
                (0..len)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect(),
            );
        }
        for text in &strings {
            let v = Value::Str(text.clone());
            assert_eq!(v.render(), escaped_reference(text), "render {text:?}");
            assert_eq!(parse(&v.render()).expect("parse"), v);
        }

        let edge = (1u64 << 53) as f64;
        let mut nums = vec![
            0.0,
            -0.0,
            0.5,
            -1.25,
            1e300,
            -1e-300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ];
        for base in [edge, 9e15] {
            for delta in [-2.0, -1.0, 0.0, 1.0, 2.0] {
                nums.push(base + delta);
                nums.push(-(base + delta));
            }
            nums.push(f64::from_bits(base.to_bits() - 1));
            nums.push(f64::from_bits(base.to_bits() + 1));
        }
        for _ in 0..2000 {
            nums.push(match rng.gen_range(0..3u32) {
                0 => f64::from_bits(rng.next_u64()),
                1 => (rng.next_u64() >> rng.gen_range(0..64u32)) as f64,
                _ => (rng.next_f64() - 0.5) * 2e16,
            });
        }
        for n in nums {
            assert_eq!(Value::Num(n).render(), num_reference(n), "render {n:?}");
        }
    }

    /// Member ranges measured from either side point at the member's
    /// render: first of a repeated key, first, middle and last members,
    /// escaped keys, and a non-object or a missing key.
    #[test]
    fn member_ranges_slice_the_member_render() {
        let doc = Value::Obj(vec![
            ("id".into(), 7u64.into()),
            ("k\"ey".into(), Value::Arr(vec!["x,y}".into(), Value::Null])),
            ("result".into(), Value::obj(vec![("a", 1.5.into())])),
            ("id".into(), 8u64.into()),
            ("last".into(), Value::Bool(true)),
        ]);
        let text = doc.render();
        for key in ["id", "k\"ey", "result", "last"] {
            let want = doc.get(key).expect("member").render();
            let small = doc.member_range(key).expect("small range");
            let around = doc.member_range_around(key, text.len()).expect("range");
            assert_eq!(&text[small.clone()], want, "{key}");
            assert_eq!(small, around, "{key}");
        }
        assert_eq!(doc.member_range("missing"), None);
        assert_eq!(Value::Arr(vec![]).member_range_around("id", 2), None);
        assert_eq!(doc.member_range_around("result", 10), None, "too short");
        let single = Value::obj(vec![("id", 1u64.into())]);
        assert_eq!(
            single.member_range_around("id", single.render().len()),
            Some(6..7)
        );
    }

    /// Characters a generated string draws from: one of every escape
    /// class `render` writes (named, `\u00XX`), bytes that stay plain
    /// (`/`, space, DEL, digits) and non-ASCII.
    const STRING_ALPHABET: [char; 16] = [
        'a',
        '1',
        '0',
        ' ',
        '/',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{8}',
        '\u{1f}',
        '\u{7f}',
        '\u{e9}',
        '\u{65e5}',
        '\u{1f600}',
    ];

    fn random_string(rng: &mut crate::Rng) -> String {
        (0..rng.gen_range(0..6usize))
            .map(|_| STRING_ALPHABET[rng.gen_range(0..STRING_ALPHABET.len())])
            .collect()
    }

    /// An integer-valued or fractional number: 0, -0, small ones, ±15
    /// and ±16 digits, integers past 2⁵³ and floats.
    fn random_number(rng: &mut crate::Rng) -> f64 {
        let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
        sign * match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => rng.gen_range(0..1000u64) as f64,
            2 => rng.gen_range(100_000_000_000_000..1_000_000_000_000_000u64) as f64,
            3 => rng.gen_range(1_000_000_000_000_000..9_000_000_000_000_000u64) as f64,
            4 => (rng.next_u64() >> rng.gen_range(0..11u32)) as f64,
            _ => (rng.next_f64() - 0.5) * 10f64.powi(rng.gen_range(0..20i32) - 6),
        }
    }

    /// A value nested at most `depth` arrays or objects deep.
    fn random_value(rng: &mut crate::Rng, depth: usize) -> Value {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.gen_range(0..kinds) {
            0 => [Value::Null, Value::Bool(false), Value::Bool(true)][rng.gen_range(0..3usize)]
                .clone(),
            1 => Value::Num(random_number(rng)),
            2 | 3 => Value::Str(random_string(rng)),
            4 => Value::Arr(
                (0..rng.gen_range(0..4usize))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Whether `Tape::is_compact`'s rule recognizes `v.render()`: its numbers
    /// render as integers of at most 15 digits, and its strings hold no
    /// control character `render` writes as `\u00XX`.
    fn render_passes_the_rule(v: &Value) -> bool {
        let plain = |s: &str| s.chars().all(|c| c >= ' ' || "\n\r\t".contains(c));
        match v {
            Value::Null | Value::Bool(_) => true,
            Value::Num(n) => n.fract() == 0.0 && n.abs() < 1e15,
            Value::Str(s) => plain(s),
            Value::Arr(items) => items.iter().all(render_passes_the_rule),
            Value::Obj(pairs) => pairs
                .iter()
                .all(|(k, v)| plain(k) && render_passes_the_rule(v)),
        }
    }

    /// One seeded edit of a render that keeps or changes its value but
    /// leaves a layout `render` never writes, or an edited value's render:
    /// whitespace, a number as `N.0`/`Ne0`/`0N`/`-N` or past 15 digits, a
    /// character as `\u00XX`, `/` as `\/`, `\n` as `\u000a`, `\u00XX`
    /// with uppercase hex.
    fn mutate(text: &str, rng: &mut crate::Rng) -> String {
        let at = |rng: &mut crate::Rng, pred: &dyn Fn(u8) -> bool| {
            let spots: Vec<usize> = (0..text.len())
                .filter(|&i| pred(text.as_bytes()[i]))
                .collect();
            (!spots.is_empty()).then(|| spots[rng.gen_range(0..spots.len())])
        };
        let splice =
            |i: usize, cut: usize, with: &str| format!("{}{with}{}", &text[..i], &text[i + cut..]);
        let digit = |b: u8| b.is_ascii_digit();
        let edit = match rng.gen_range(0..10u32) {
            0 => at(rng, &|b| b.is_ascii()).map(|i| splice(i, 0, " ")),
            1 => at(rng, &|b| b.is_ascii()).map(|i| splice(i, 0, "\n")),
            2 => at(rng, &digit).map(|i| splice(i + 1, 0, ".0")),
            3 => at(rng, &digit).map(|i| splice(i + 1, 0, "e0")),
            4 => at(rng, &digit).map(|i| splice(i, 0, "0")),
            5 => at(rng, &digit).map(|i| splice(i, 0, "-")),
            6 => at(rng, &digit).map(|i| splice(i, 0, "1234567890123")),
            7 => at(rng, &|b| b.is_ascii_alphanumeric())
                .map(|i| splice(i, 1, &format!("\\u{:04x}", text.as_bytes()[i]))),
            8 => at(rng, &|b| b == b'/').map(|i| splice(i, 1, "\\/")),
            _ => text
                .find("\\n")
                .map(|i| splice(i, 2, "\\u000a"))
                .or_else(|| text.find("\\u001f").map(|i| splice(i, 6, "\\u001F"))),
        };
        edit.unwrap_or_else(|| text.to_string())
    }

    /// The tape's compact flag on seeded values and seeded edits of their renders:
    /// every render parses back equal, flagged compact exactly when the
    /// rule covers it, and every text flagged compact — edited or not — is
    /// the render of what it parses to.
    #[test]
    fn a_text_flagged_compact_is_the_render_of_its_value() {
        let mut rng = crate::Rng::new(0xc0_4ac7);
        let (mut flagged, mut edited_flagged, mut edited_not) = (0, 0, 0);
        for _ in 0..3000 {
            let value = random_value(&mut rng, 3);
            let text = value.render();
            let (back, compact) = read_compact(&text).expect("a render parses");
            assert_eq!(back, value, "{text}");
            assert_eq!(compact, render_passes_the_rule(&value), "{text}");
            flagged += usize::from(compact);
            for _ in 0..4 {
                let edited = mutate(&text, &mut rng);
                let Ok((parsed, compact)) = read_compact(&edited) else {
                    continue;
                };
                if compact {
                    assert_eq!(
                        edited,
                        parsed.render(),
                        "flagged compact: {text} -> {edited}"
                    );
                    edited_flagged += usize::from(edited != text);
                } else {
                    edited_not += 1;
                }
            }
        }
        assert!(flagged > 1000, "{flagged} renders flagged compact");
        assert!(
            edited_flagged > 500,
            "{edited_flagged} edits flagged compact"
        );
        assert!(edited_not > 2000, "{edited_not} edits flagged not compact");
    }

    /// Whether two parses agree exactly: the same error, or the same
    /// compact flag and values equal with numbers compared bit for bit
    /// (`Value`'s `==` holds `-0` equal to `0`).
    fn same_parse(
        a: &Result<(Value, bool), ParseError>,
        b: &Result<(Value, bool), ParseError>,
    ) -> bool {
        fn same(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
                (Value::Arr(x), Value::Arr(y)) => {
                    x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
                }
                (Value::Obj(x), Value::Obj(y)) => {
                    x.len() == y.len()
                        && x.iter()
                            .zip(y)
                            .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
                }
                _ => a == b,
            }
        }
        match (a, b) {
            (Ok((x, cx)), Ok((y, cy))) => cx == cy && same(x, y),
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
    }

    /// Fixed hostile texts: nesting at `MAX_DEPTH` ± 1 (arrays, objects,
    /// closed, unclosed, followed by junk), duplicate keys, integers at
    /// 15/16 digits and past 2⁵³, `-0`, malformed numbers, named, rare,
    /// surrogate and malformed `\u` escapes (one cut inside a multi-byte
    /// character), and trailing bytes.
    fn hostile_texts() -> Vec<String> {
        let mut texts: Vec<String> = [
            r#"{"a":1,"a":2}"#,
            r#"{"a":{"b":1,"b":[2]},"a":3}"#,
            r#"{"":0,"":""}"#,
            "123456789012345",
            "1234567890123456",
            "-123456789012345",
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993",
            "18446744073709551616",
            "-0",
            "-0.0",
            "0e0",
            "00",
            "-",
            "1.",
            ".5",
            "1e",
            "1e+",
            "1e400",
            "-1e400",
            "01.5",
            "+1",
            r#""\u0041\u00e9\u65e5""#,
            r#""\u0000\u001f\u007f""#,
            r#""\uD800""#,
            r#""\udfff""#,
            r#""\u+041""#,
            r#""\u12""#,
            r#""\u12G4""#,
            "\"\\u12\u{e9}\"",
            "\"\\u\u{65e5}12\"",
            r#""\/\b\f\n\r\t\"\\""#,
            r#""\x""#,
            r#""\"#,
            "\"a\u{1}b\"",
            "\"unterminated",
            "1 2",
            "{}x",
            "[] ",
            " null ",
            r#""a""b""#,
            "null,",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "{1:2}",
            "[1 2]",
            "{\"a\":1 \"b\":2}",
            "tru",
            "nul",
            "",
            "   ",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let objects = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
            let mixed = format!(
                "{}0{}",
                "[{\"k\":".repeat(depth / 2),
                "}]".repeat(depth / 2)
            );
            texts.push(format!("{}{}", "[".repeat(depth), "]".repeat(depth - 1)));
            texts.push(format!("{arrays}x"));
            texts.extend([arrays, objects, mixed]);
        }
        texts
    }

    /// One seeded byte-level edit of `text`: a JSON-significant byte
    /// inserted, a byte deleted or replaced, or the text cut short.
    fn hostile_edit(text: &str, rng: &mut crate::Rng) -> String {
        const BYTES: &[u8] = b"{}[]:,\"\\ -.eE0123456789tfnu/x";
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.gen_range(0..bytes.len() + 1);
        let byte = BYTES[rng.gen_range(0..BYTES.len())];
        match rng.gen_range(0..4u32) {
            0 => bytes.insert(at, byte),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 if at < bytes.len() => bytes[at] = byte,
            _ => bytes.truncate(at),
        }
        // A cut or replaced byte inside a multi-byte character leaves no
        // `&str`; keep the valid prefix.
        match String::from_utf8(bytes) {
            Ok(text) => text,
            Err(e) => {
                let valid = e.utf8_error().valid_up_to();
                String::from_utf8_lossy(&e.into_bytes()[..valid]).into_owned()
            }
        }
    }

    /// The tape reader gives what the recursive parser it replaced gave —
    /// the same value (numbers bit for bit), the same compact flag, or the
    /// same error at the same byte — on seeded renders and pretty renders,
    /// on every truncation and seeded hostile edits of them, and on the
    /// fixed hostile texts.
    #[test]
    fn the_tape_reader_matches_the_recursive_reference() {
        let mut rng = crate::Rng::new(0x7a9e_0ead);
        let mut texts = hostile_texts();
        for _ in 0..600 {
            let value = random_value(&mut rng, 4);
            let (compact, pretty) = (value.render(), value.render_pretty());
            for cut in 0..compact.len() {
                if compact.is_char_boundary(cut) && rng.gen_bool(0.2) {
                    texts.push(compact[..cut].to_string());
                }
            }
            for _ in 0..6 {
                texts.push(hostile_edit(&compact, &mut rng));
                texts.push(hostile_edit(&pretty, &mut rng));
                texts.push(mutate(&compact, &mut rng));
            }
            texts.extend([compact, pretty]);
        }
        let (mut ok, mut err) = (0, 0);
        for text in &texts {
            let want = crate::json_reference::parse_compact(text);
            let got = read_compact(text);
            assert!(
                same_parse(&got, &want),
                "{text:?}: got {got:?}, want {want:?}"
            );
            assert_eq!(parse(text).ok(), want.as_ref().ok().map(|(v, _)| v.clone()));
            if want.is_ok() {
                ok += 1;
            } else {
                err += 1;
            }
        }
        assert!(ok > 5000 && err > 5000, "{ok} texts read, {err} refused");
    }

    /// A node reads like the value it converts to: `get` finds the first
    /// of a repeated key, items and members come in order, numbers and
    /// strings (escaped ones too) read alike, and every node's source
    /// range slices its own text — its render, in a compact tape.
    #[test]
    fn nodes_read_like_their_values_and_slice_their_source() {
        fn check(node: Node<'_>, value: &Value, compact: bool) {
            assert_eq!(&node.to_value(), value);
            assert_eq!(node.as_f64(), value.as_f64());
            assert_eq!(node.as_u64(), value.as_u64());
            assert_eq!(node.as_str(), value.as_str());
            assert_eq!(node.as_bool(), value.as_bool());
            assert_eq!(node.is_obj(), matches!(value, Value::Obj(_)));
            if compact {
                assert_eq!(node.source(), value.render());
            }
            assert_eq!(
                node.items().map(|i| i.len()),
                value.as_arr().map(<[_]>::len)
            );
            if let (Some(items), Some(values)) = (node.items(), value.as_arr()) {
                for (item, v) in items.zip(values) {
                    check(item, v, compact);
                }
            }
            if let (Some(members), Value::Obj(pairs)) = (node.members(), value) {
                assert_eq!(members.len(), pairs.len());
                for ((k, item), (key, v)) in members.zip(pairs) {
                    assert_eq!(k, key);
                    let first = node.get(key).expect("a member");
                    let want = value.get(key).expect("a member");
                    assert_eq!(&first.to_value(), want, "{key:?}");
                    check(item, v, compact);
                }
                assert!(node.get("\u{0}missing").is_none());
            }
        }
        let mut rng = crate::Rng::new(0x0de5_1ead);
        for _ in 0..2000 {
            let value = random_value(&mut rng, 3);
            for text in [value.render(), value.render_pretty()] {
                let tape = read(&text).expect("a render reads");
                assert_eq!(
                    tape.root().range(),
                    text.trim_end().len() - text.trim().len()..text.trim_end().len()
                );
                check(tape.root(), &value, tape.is_compact());
            }
        }
        let tape = read(r#"{"a":1,"b":"x\"y","a":2}"#).expect("reads");
        let root = tape.root();
        assert_eq!(root.get("a").and_then(Node::as_u64), Some(1));
        assert_eq!(root.get("b").map(Node::range), Some(11..17));
        assert_eq!(root.get("b").and_then(Node::as_str), Some("x\"y"));
        assert!(root.get("a").and_then(|a| a.get("a")).is_none());
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

    /// `as_u64` agrees with its definition written out — finite,
    /// non-negative, integral, then an `as` cast — at -0, around 2⁵³,
    /// past `u64::MAX`, on fractions, NaN, the infinities and negatives.
    #[test]
    fn as_u64_matches_the_unsigned_filter() {
        let old = |v: &Value| {
            v.as_f64()
                .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
        };
        let edge = (1u64 << 53) as f64;
        let nums = [
            0.0,
            -0.0,
            1.0,
            edge - 1.0,
            edge,
            edge + 1.0,
            edge + 2.0,
            1e300,
            f64::MAX,
            0.5,
            2.25,
            -0.5,
            -1.0,
            -edge,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        for n in nums {
            let v = Value::Num(n);
            assert_eq!(v.as_u64(), old(&v), "{n:?}");
        }
        assert_eq!(Value::Num(-0.0).as_u64(), Some(0));
        assert_eq!(Value::Num(edge + 2.0).as_u64(), Some((1 << 53) + 2));
        assert_eq!(Value::Num(1e300).as_u64(), Some(u64::MAX));
        for v in [Value::Null, Value::Str("1".into()), Value::Bool(true)] {
            assert_eq!(v.as_u64(), None);
        }
    }

    #[test]
    fn get_and_accessors() {
        let v = Value::obj(vec![("k", 7u64.into())]);
        assert_eq!(v.get("k").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("k"), None);
    }
}
