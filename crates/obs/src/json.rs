//! The workspace's one JSON reader, and its one string escaper.
//!
//! [`parse`] reads an RFC 8259 document into a [`Value`] tree. Every
//! node records the byte offset where it starts, so a caller checking
//! a schema can point at the offending field, and objects keep their
//! members in document order. Numbers keep their source text:
//! [`Value::as_u64`] and [`Value::as_i64`] are exact over the whole
//! integer range, and [`Value::as_f64`] is `str::parse::<f64>`.
//!
//! Nesting deeper than [`MAX_DEPTH`] is an error at the opening bracket
//! that exceeds it, so no input can exhaust the stack.

use std::fmt;

/// The deepest nesting [`parse`] accepts. The deepest document the
/// workspace writes has 5 levels (`hide-metrics/1` histogram buckets).
pub const MAX_DEPTH: usize = 64;

/// A JSON decoding failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    offset: usize,
}

impl JsonError {
    /// An error described by `msg` at byte `offset` of the input.
    pub fn new(msg: impl Into<String>, offset: usize) -> Self {
        JsonError {
            msg: msg.into(),
            offset,
        }
    }

    /// Byte offset in the input at which decoding failed.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// One parsed node and the byte offset of its first character.
#[derive(Debug, Clone, PartialEq)]
pub struct Value<'a> {
    /// Byte offset in the input where this value starts.
    pub offset: usize,
    /// What the value is.
    pub kind: Kind<'a>,
}

/// The six JSON value types.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Number(&'a str),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object's members, in document order.
    Object(Vec<(String, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The first member named `key`, if this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match &self.kind {
            Kind::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match &self.kind {
            Kind::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self.kind {
            Kind::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match &self.kind {
            Kind::Array(items) => Some(items),
            _ => None,
        }
    }

    fn number(&self) -> Option<&'a str> {
        match self.kind {
            Kind::Number(text) => Some(text),
            _ => None,
        }
    }

    /// The number, if this is an integer that fits a `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.number()?.parse().ok()
    }

    /// The number, if this is an integer that fits an `i64`.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        self.number()?.parse().ok()
    }

    /// The number as the nearest `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        self.number()?.parse().ok()
    }
}

/// Parses one complete JSON document; anything but whitespace after
/// it is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] at the first byte that breaks the grammar or
/// nests deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value<'_>, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.err("trailing data"));
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` by name, and the other
/// control characters as `\u00XX`.
pub fn push_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError::new(msg, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    /// Parses the value at the next non-whitespace byte; `depth` counts
    /// the arrays and objects that enclose it.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, JsonError> {
        self.skip_ws();
        let offset = self.pos;
        let kind = match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1)?,
            Some(b'[') => self.array(depth + 1)?,
            Some(b'"') => Kind::String(self.string()?),
            Some(b't') => self.keyword("true", Kind::Bool(true))?,
            Some(b'f') => self.keyword("false", Kind::Bool(false))?,
            Some(b'n') => self.keyword("null", Kind::Null)?,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(_) => {
                let c = self.text[offset..].chars().next().unwrap_or_default();
                return Err(self.err(format!("unexpected character {c:?}")));
            }
            None => return Err(self.err("unexpected end of input")),
        };
        Ok(Value { offset, kind })
    }

    fn keyword(&mut self, word: &str, kind: Kind<'a>) -> Result<Kind<'a>, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(kind)
        } else {
            Err(self.err(format!("expected keyword {word:?}")))
        }
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Kind<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(Kind::Number(&self.text[start..self.pos]))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Runs between quotes, backslashes and control bytes are
            // copied whole; those three are ASCII, so every slice
            // boundary is a char boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos`, joining a
    /// surrogate pair; leaves `pos` on the escape's last hex digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !self.text[self.pos + 1..].starts_with("\\u") {
                return Err(JsonError::new("unpaired surrogate", at));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(JsonError::new("unpaired surrogate", at));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| JsonError::new("unpaired surrogate", at))
    }

    /// Reads the four hex digits after the `u` at `pos` and leaves
    /// `pos` on the last of them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn array(&mut self, depth: usize) -> Result<Kind<'a>, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Kind::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Kind::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Kind<'a>, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Kind::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Kind::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err_at(text: &str) -> usize {
        parse(text).unwrap_err().offset()
    }

    #[test]
    fn parses_every_value_type_with_offsets() {
        let v = parse(r#" {"a": [1, -2.5e3, true, false, null], "b": "x\u00e9\n"} "#).unwrap();
        assert_eq!(v.offset, 1);
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].offset, 8);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[1].as_i64(), None);
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3].as_bool(), Some(false));
        assert_eq!(a[4].kind, Kind::Null);
        assert_eq!(v.get("b").and_then(Value::as_str), Some("xé\n"));
        assert!(v.get("c").is_none());
    }

    #[test]
    fn integers_are_exact_over_their_whole_range() {
        let v = parse("[18446744073709551615, -9223372036854775808, -1]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[0].as_i64(), None);
        assert_eq!(items[1].as_i64(), Some(i64::MIN));
        assert_eq!(items[2].as_i64(), Some(-1));
        assert_eq!(items[2].as_u64(), None);
    }

    #[test]
    fn rejects_what_rfc_8259_rejects_at_the_offending_byte() {
        for (text, at) in [
            ("", 0),
            ("[1, 2", 5),
            ("{\"a\": 1} x", 9),
            ("[01]", 2),
            ("[1.]", 3),
            ("[-]", 2),
            ("[1e]", 3),
            ("[.5]", 1),
            ("[+1]", 1),
            ("{\"a\" 1}", 5),
            ("{a: 1}", 1),
            ("[tru]", 1),
            ("\"\\x\"", 2),
            ("\"\\u12g4\"", 2),
            ("\"\\ud800\"", 2),
            ("\"a\u{1}\"", 2),
            ("\"abc", 4),
            ("[1,]", 3),
        ] {
            assert_eq!(err_at(text), at, "{text:?}");
        }
    }

    #[test]
    fn decodes_surrogate_pairs() {
        let v = parse(r#""\ud83d\ude00 \u002F""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} /"));
    }

    #[test]
    fn depth_is_capped_for_arrays_and_objects() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(200_000);
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.offset(), MAX_DEPTH);
        assert!(e.to_string().contains("nesting deeper than 64"), "{e}");
        let deep = "{\"a\":".repeat(200_000);
        assert_eq!(err_at(&deep), MAX_DEPTH * 5);
    }

    #[test]
    fn escaper_round_trips_through_the_reader() {
        let text = "q\"b\\s/n\nr\rt\tc\u{1}\u{1f}é\u{1F600}";
        let mut out = String::new();
        push_string(&mut out, text);
        assert_eq!(out, "\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fé\u{1F600}\"");
        assert_eq!(parse(&out).unwrap().as_str(), Some(text));
    }
}
