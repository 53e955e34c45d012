//! A hand-rolled, panic-free JSON value codec for the wire protocol.
//!
//! The vendored `serde_json` stand-in also parses text into a generic
//! value (`serde::Value`, which telemetry's JSONL reader uses), but three
//! things make it unfit for a wire that reads *untrusted* bytes and
//! promises byte-identical reply lines:
//!
//! * it recurses without a depth limit, so a frame of `[[[[…` could
//!   exhaust the connection thread's stack; this parser stops at
//!   [`MAX_DEPTH`];
//! * several of its errors (unterminated strings, bad escapes, early end
//!   of input) name no position; every error here carries the byte offset
//!   of the first bad byte, which the `400` answer reports;
//! * it writes integral floats as `24.0`; the protocol writes `24`, so a
//!   seed or a gene index reads back as the integer it is.
//!
//! This small recursive-descent parser never panics — every index is
//! bounds-checked, every `char` conversion guarded — and preserves object
//! key order on both parse and encode, so encoding is a pure function of
//! insertion order.

use std::fmt;

/// Maximum nesting depth accepted by the parser. Frames are capped at
/// 64 KiB, so 32 levels is far beyond any legitimate request while keeping
/// the recursive parser safely away from stack exhaustion on junk like
/// `[[[[...`.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; JSON does not distinguish integer from float.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer: `None` unless
    /// this is a finite number with zero fraction inside `[0, 2^53]`.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if n.is_finite() && *n >= 0.0 && *n <= MAX_EXACT && n.fract() == 0.0 => {
                Some(*n as u64)
            }
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

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object value from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as compact JSON. Deterministic: a pure function of
    /// the value (object key order is preserved). Non-finite numbers render
    /// as `null` (JSON has no NaN/Inf).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => encode_number(*n, out),
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn encode_number(n: f64, out: &mut String) {
    use fmt::Write;
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= MAX_EXACT {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest-roundtrip Display: parses back to the same bits.
        let _ = write!(out, "{n}");
    }
}

fn encode_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the first offending byte.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value from `bytes`, requiring it to consume the whole
/// input (trailing whitespace allowed). Never panics on any input.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte.
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn eat_literal(&mut self, lit: &'static [u8], msg: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        match self.peek() {
            Some(b'n') => self
                .eat_literal(b"null", "expected 'null'")
                .map(|()| Json::Null),
            Some(b't') => self
                .eat_literal(b"true", "expected 'true'")
                .map(|()| Json::Bool(true)),
            Some(b'f') => self
                .eat_literal(b"false", "expected 'false'")
                .map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte at start of value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let start = self.pos;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("invalid escape character"));
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar. The input came from a &[u8],
                    // so validate rather than trust.
                    let rest = &self.bytes[self.pos..];
                    let first = *rest
                        .first()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    let len = utf8_len(first);
                    let chunk = rest.get(..len).ok_or_else(|| self.err("truncated UTF-8"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
            // Defensive: a string longer than the whole input is impossible,
            // but cap pathological growth from escapes anyway.
            if out.len() > self.bytes.len().saturating_sub(start) + 8 {
                return Err(self.err("string grew beyond input length"));
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: require a following \uDC00..\uDFFF.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&second) {
                    let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..=0xDFFF).contains(&first) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        let n: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        if n.is_finite() {
            Ok(Json::Num(n))
        } else {
            Err(self.err("number overflows f64"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse(b"null").unwrap(), Json::Null);
        assert_eq!(parse(b"true").unwrap(), Json::Bool(true));
        assert_eq!(parse(b" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse(b"42").unwrap(), Json::Num(42.0));
        assert_eq!(parse(b"-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse(br#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_and_preserves_key_order() {
        let v = parse(br#"{"b":1,"a":[true,null,"x\n"]}"#).unwrap();
        let Json::Obj(pairs) = &v else { panic!() };
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn roundtrips_escapes_and_unicode() {
        let original = Json::Str("tab\there \"q\" \\ nl\n€ 😀".into());
        let encoded = original.encode();
        assert_eq!(parse(encoded.as_bytes()).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"😀\"".as_bytes()).unwrap(), Json::Str("😀".into()));
        assert!(parse(br#""\ud83d""#).is_err());
        assert!(parse(br#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_malformed_with_offsets() {
        for junk in [
            &b"{"[..],
            b"[1,",
            b"\"unterminated",
            b"01",
            b"1.",
            b"1e",
            b"nul",
            b"{\"a\" 1}",
            b"[1] x",
            b"\xff\xfe",
            b"\"bad \\q escape\"",
        ] {
            assert!(parse(junk).is_err(), "{junk:?} should fail");
        }
    }

    #[test]
    fn depth_limit_is_enforced_not_a_crash() {
        let deep = "[".repeat(10_000);
        assert!(parse(deep.as_bytes()).is_err());
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(Json::Num(24.0).encode(), "24");
        assert_eq!(Json::Num(-3.0).encode(), "-3");
        assert_eq!(Json::Num(1.5).encode(), "1.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn encode_is_deterministic() {
        let v = Json::obj(vec![
            ("z", Json::Num(1.0)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(v.encode(), v.encode());
        assert_eq!(v.encode(), r#"{"z":1,"a":[true,null]}"#);
    }
}
