//! The workspace's one JSON codec: a parser for request bodies and
//! BENCH files, and an ordered encoder for every service response,
//! request body and BENCH file.
//!
//! The workspace is offline (no serde). The parser reads the JSON the
//! workspace exchanges: objects, arrays, strings with the standard
//! escapes, numbers, booleans and null, with byte offsets in errors so a
//! 400 response can point at the problem. Non-negative integer literals
//! stay exact as [`Json::UInt`]: energies cross every boundary as
//! `f64::to_bits` integers, and routing them through `f64` would corrupt
//! the low bits.
//!
//! The encoder ([`Obj`], [`Arr`]) writes members in call order, so the
//! code that builds a document fixes its field order. Floats go through
//! `f64`'s `Display` (shortest round-trip decimal, never an exponent) or
//! through [`Fixed`] at a stated precision, and every key and string goes
//! through one escape function. A [`Layout`] picks the separators:
//! compact on the wire, spaced with one row per line in BENCH files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep a sorted map — key lookup is what
/// request decoding does with them, and duplicate keys are rejected at
/// parse time rather than silently last-wins.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits u64, kept exact — the
    /// service reports `f64` bit patterns as integers, and routing them
    /// through `f64` would corrupt the low bits. Note the derived
    /// equality distinguishes `UInt(7)` from `Num(7.0)`; compare through
    /// the accessors.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

/// A parse failure: what went wrong and the byte offset it was noticed
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member of an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64, if it is a number (integers convert, possibly
    /// rounding above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an
    /// exact u64 representation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            // The upper bound is strict: `u64::MAX as f64` rounds up to
            // 2^64, which is not representable as u64.
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object's keys, if this is an object.
    pub fn keys(&self) -> Option<impl Iterator<Item = &str>> {
        match self {
            Json::Obj(m) => Some(m.keys().map(|k| k.as_str())),
            _ => None,
        }
    }
}

/// Recursion cap: request documents are shallow; a deeply nested body is
/// hostile input, not a use case.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: self.i,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii slice");
        // Plain integer literals stay exact; everything else is f64.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        let x: f64 = text
            .parse()
            .map_err(|_| self.err(format!("malformed number {text:?}")))?;
        if !x.is_finite() {
            return Err(self.err(format!("non-finite number {text:?}")));
        }
        Ok(Json::Num(x))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.i += 1;
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
                            if self.i + 4 > self.b.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            self.i += 4;
                            // Surrogates are rejected rather than paired:
                            // request fields are ASCII identifiers.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err(format!("unknown escape \\{}", esc as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let s = std::str::from_utf8(&self.b[self.i..]).expect("input was str");
                    let ch = s.chars().next().expect("non-empty");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            if m.insert(key.clone(), val).is_some() {
                return Err(self.err(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// A value the encoder can write.
pub trait Encode {
    /// Appends this value's JSON text to `out`.
    fn encode(&self, out: &mut String);
}

macro_rules! encode_display {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
// `f64` included: `Display` is the shortest decimal that round-trips,
// which is what the service has always sent next to each `to_bits`.
encode_display!(u32, u64, usize, f64, bool);

impl Encode for str {
    fn encode(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl Encode for String {
    fn encode(&self, out: &mut String) {
        self.as_str().encode(out);
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut String) {
        (**self).encode(out);
    }
}

/// `None` is `null`.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
}

/// A float written with a fixed number of decimals (`{:.N}`), the
/// rounding the BENCH files record.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Encode for Fixed {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// Separators of one container: `(lead, sep, colon, trail)` — what
/// follows the opening bracket, what goes between members and between
/// key and value, and what precedes the closing bracket of a non-empty
/// container.
#[derive(Debug, Clone, Copy)]
pub struct Layout(&'static str, &'static str, &'static str, &'static str);

impl Layout {
    /// `{"a":1,"b":[2,3]}`: service responses and request bodies.
    pub const COMPACT: Layout = Layout("", ",", ":", "");
    /// `{"a": 1, "b": 2}`: one BENCH row or nested BENCH object.
    pub const SPACED: Layout = Layout("", ", ", ": ", "");
    /// A BENCH document: one member per line, indented two spaces.
    pub const LINES: Layout = Layout("\n  ", ",\n  ", ": ", "\n");
    /// A BENCH `rows` array inside [`Layout::LINES`]: one row per line,
    /// indented four spaces.
    pub const ROWS: Layout = Layout("\n    ", ",\n    ", ": ", "\n  ");
}

/// The shared state of [`Obj`] and [`Arr`]: the text so far, opening
/// bracket included.
#[derive(Debug, Clone)]
struct Container {
    buf: String,
    layout: Layout,
    close: char,
    empty: bool,
}

impl Container {
    fn new(layout: Layout, open: char, close: char) -> Self {
        Container {
            buf: open.to_string(),
            layout,
            close,
            empty: true,
        }
    }

    fn next(&mut self) {
        let Layout(lead, sep, ..) = self.layout;
        self.buf.push_str(if self.empty { lead } else { sep });
        self.empty = false;
    }

    fn close_into(&self, out: &mut String) {
        out.push_str(&self.buf);
        if !self.empty {
            out.push_str(self.layout.3);
        }
        out.push(self.close);
    }
}

/// A JSON object under construction. Members are written in call order
/// and are not checked for duplicate keys.
#[derive(Debug, Clone)]
pub struct Obj(Container);

impl Obj {
    /// An empty object in [`Layout::COMPACT`].
    pub fn new() -> Obj {
        Obj::with(Layout::COMPACT)
    }

    /// An empty object in `layout`.
    pub fn with(layout: Layout) -> Obj {
        Obj(Container::new(layout, '{', '}'))
    }

    /// Appends the member `key: value`.
    pub fn field(mut self, key: &str, value: impl Encode) -> Obj {
        self.0.next();
        key.encode(&mut self.0.buf);
        self.0.buf.push_str(self.0.layout.2);
        value.encode(&mut self.0.buf);
        self
    }

    /// The finished document text.
    pub fn finish(self) -> String {
        let mut out = String::with_capacity(self.0.buf.len() + 4);
        self.0.close_into(&mut out);
        out
    }
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

impl Encode for Obj {
    fn encode(&self, out: &mut String) {
        self.0.close_into(out);
    }
}

/// A JSON array under construction.
#[derive(Debug, Clone)]
pub struct Arr(Container);

impl Arr {
    /// An empty array in [`Layout::COMPACT`].
    pub fn new() -> Arr {
        Arr::with(Layout::COMPACT)
    }

    /// An empty array in `layout`.
    pub fn with(layout: Layout) -> Arr {
        Arr(Container::new(layout, '[', ']'))
    }

    /// Appends one element.
    pub fn item(mut self, value: impl Encode) -> Arr {
        self.0.next();
        value.encode(&mut self.0.buf);
        self
    }
}

impl Default for Arr {
    fn default() -> Self {
        Arr::new()
    }
}

impl Encode for Arr {
    fn encode(&self, out: &mut String) {
        self.0.close_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
        let v = Json::parse(r#"{"n": 100, "tags": ["a", "b"], "deep": {"x": null}}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(100));
        assert_eq!(
            v.get("tags").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(v.get("deep").and_then(|d| d.get("x")), Some(&Json::Null));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn integer_coercion_is_exact() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7.5").unwrap().as_f64(), Some(7.5));
        // Integer literals survive exactly even beyond 2^53 — the whole
        // point of the UInt variant (energy bit patterns ride on it).
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            Json::parse("4607182418800017409").unwrap().as_u64(),
            Some(4607182418800017409)
        );
        // Past u64 it degrades to f64 and exactness is gone.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a":}"#,
            "tru",
            "1e999",
            "nan",
            r#"{"a":1,"a":2}"#,
            "[1] x",
            "\"unterminated",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err(), "accepted hostile nesting");
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Json::parse(r#"{"a": nope}"#).unwrap_err();
        assert_eq!(e.at, 6);
        assert!(e.to_string().contains("at byte 6"));
    }

    #[test]
    fn encoder_keeps_call_order_layout_and_exact_values() {
        let msg = "say \"hi\"\\\n\u{1}";
        let doc = Obj::new()
            .field("msg", msg)
            .field("bits", u64::MAX)
            .field("x", 0.1 + 0.2)
            .field("whole", 3.0)
            .field("none", None::<&str>)
            .field("list", Arr::new().item(Obj::new()).item(Fixed(2.0, 2)))
            .finish();
        let want = r#"{"msg":"say \"hi\"\\\n\u0001","bits":18446744073709551615,"#.to_string()
            + r#""x":0.30000000000000004,"whole":3,"none":null,"list":[{},2.00]}"#;
        assert_eq!(doc, want);
        let back = Json::parse(&doc).unwrap();
        assert_eq!(back.get("msg").and_then(Json::as_str), Some(msg));
        assert_eq!(back.get("bits").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(back.get("x").and_then(Json::as_f64), Some(0.1 + 0.2));

        let row = |n: u32| Obj::with(Layout::SPACED).field("n", n).field("p", "a");
        let bench = Obj::with(Layout::LINES)
            .field("schema", "x/v1")
            .field("rows", Arr::with(Layout::ROWS).item(row(1)).item(row(2)))
            .finish();
        let want = "{\n  \"schema\": \"x/v1\",\n  \"rows\": [\n    {\"n\": 1, \"p\": \"a\"},\n    \
                    {\"n\": 2, \"p\": \"a\"}\n  ]\n}";
        assert_eq!(bench, want);
    }
}
