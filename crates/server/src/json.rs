//! A minimal, dependency-free JSON codec.
//!
//! The build environment is offline (no serde), so the server carries its
//! own JSON layer, in the spirit of the vendored shims under
//! `crates/shims/`: exactly the subset the wire protocol needs —
//! recursive-descent parsing with a depth limit, and serialization that
//! distinguishes integers from floats (record [`strato_record::Value`]s must round-trip
//! without `1` silently becoming `1.0`).
//!
//! Both directions work in time linear in the bytes. The parser copies a
//! string's unescaped runs whole, up to the next `"`, `\` or control
//! byte, and reads short integers straight from the digits; the
//! serializer copies unescaped runs whole through [`push_escaped`]. The
//! served row encoder (`decode::push_value`) writes through the same
//! [`push_escaped`] and [`push_float`], so a row and its [`Json`] image
//! are the same bytes.
//!
//! ```
//! use strato_server::json::Json;
//! let v = Json::parse(r#"{"rows": [[1, null, "x"], [2.5, true, ""]]}"#).unwrap();
//! let rows = v.get("rows").unwrap().as_array().unwrap();
//! assert_eq!(rows.len(), 2);
//! assert_eq!(v.to_string(), r#"{"rows":[[1,null,"x"],[2.5,true,""]]}"#);
//! ```

use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser (defense against
/// stack-exhausting inputs from the network).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Numbers keep their syntactic class: digits-only (with optional sign)
/// parse as [`Json::Int`], anything with a fraction or exponent as
/// [`Json::Float`]. Object members preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer-syntax number.
    Int(i64),
    /// Fraction/exponent-syntax number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (ordered key → value pairs).
    Obj(Vec<(String, Json)>),
}

/// A JSON syntax error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
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

    /// Object member lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
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

    /// The integer payload; floats are **not** silently truncated.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
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

    /// `true` iff this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl fmt::Display for Json {
    /// Compact (no-whitespace) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    /// Appends the compact serialization to `out`.
    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
            Json::Float(x) => push_float(out, *x),
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends a float so that it reads back as a float: its shortest
/// round-trip text, plus `.0` when that text has no `.`/`e`/`E` (`2.0`,
/// not `2`). JSON has no NaN/Infinity; non-finite values become `null`,
/// the least-bad image.
pub fn push_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{x}").expect("writing to a String cannot fail");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends `s` as a JSON string literal with the mandatory escapes. Runs
/// that need no escape are copied whole.
pub fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let letter = match b {
            b'"' => '"',
            b'\\' => '\\',
            b'\n' => 'n',
            b'\r' => 'r',
            b'\t' => 't',
            0..=0x1f => 'u',
            _ => continue,
        };
        // Escaped bytes are ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        out.push('\\');
        out.push(letter);
        if letter == 'u' {
            out.push_str("00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
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
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that needs a decision. It
            // starts after an ASCII byte and stops at one (or the end), so
            // both ends are char boundaries of the `&str` input.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: combine a high surrogate with
                            // the immediately following \uXXXX low half.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            // hex4 leaves pos past the digits; continue
                            // without the shared += 1 below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.bytes.len() < self.pos + 4 {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // Up to 18 digits always fit an i64: read them directly. Anything
        // longer, fractional or exponential takes the `str::parse` path.
        if (1..=18).contains(&(self.pos - digits))
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E'))
        {
            let magnitude = self.bytes[digits..self.pos]
                .iter()
                .fold(0i64, |acc, d| acc * 10 + i64::from(d - b'0'));
            return Ok(Json::Int(if negative { -magnitude } else { magnitude }));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Json::Int(i)),
                // Integer overflow falls back to the float domain rather
                // than rejecting (JSON numbers are unbounded).
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("invalid number")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("2.5", Json::Float(2.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), v, "{text}");
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn int_float_distinction_survives() {
        assert_eq!(Json::parse("1").unwrap(), Json::Int(1));
        assert_eq!(Json::parse("1.0").unwrap(), Json::Float(1.0));
        assert_eq!(Json::parse("1e0").unwrap(), Json::Float(1.0));
        // Serialization keeps the marker.
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Int(2).to_string(), "2");
        // i64 overflow widens to float instead of erroring.
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn nested_structures() {
        let v = Json::parse(r#" {"a": [1, {"b": null}], "c": "x" } "#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert!(a[1].get("b").unwrap().is_null());
        // Round trip.
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Surrogate pair (🂡 U+1F0A1).
        let v = Json::parse(r#""\ud83c\udca1""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F0A1}"));
        // Escaping on the way out.
        let s = Json::Str("a\"b\\\n\u{1}".into()).to_string();
        assert_eq!(s, r#""a\"b\\\n\u0001""#);
        assert_eq!(Json::parse(&s).unwrap(), Json::Str("a\"b\\\n\u{1}".into()));
    }

    #[test]
    fn errors_are_located() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "\"\\q\"",
            "\"\\ud83c\"",
            "nul",
            "[1]]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.at, 4);
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        for (text, at, msg) in [
            ("\"ab\u{1}c\"", 3, "raw control character"),
            ("[\"é€\u{1f}\"]", 7, "raw control character"),
            ("\"abc", 4, "unterminated"),
            ("{\"k\":\"é\\n", 10, "unterminated"),
            ("\"a\\qb\"", 3, "invalid escape"),
            ("[\"🂡\\x\"]", 7, "invalid escape"),
            ("\"\\ud83c\\u0041\"", 13, "invalid low surrogate"),
            ("\"\\ud83c\"", 7, "invalid \\u escape"),
            ("\"\\u12g4\"", 3, "invalid \\u escape"),
            ("\"\\u12", 3, "truncated"),
        ] {
            let e = Json::parse(text).unwrap_err();
            assert_eq!((e.at, e.msg.contains(msg)), (at, true), "{text:?}: {e}");
        }
    }

    /// A 1 MiB string — ASCII runs, every escape, 2–4-byte UTF-8 and
    /// surrogate pairs — then a 1 MiB array. String scanning must stay
    /// linear: re-reading the rest of the body per character would make
    /// this take minutes.
    #[test]
    fn megabyte_string_then_megabyte_array() {
        const PIECES: [(&str, &str); 17] = [
            ("plain ascii run, ", "plain ascii run, "),
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\b", "\u{8}"),
            ("\\f", "\u{c}"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\t", "\t"),
            ("\\u0041", "A"),
            ("\\u00e9\\u20AC", "é€"),
            ("\\ud83c\\udca1", "\u{1F0A1}"),
            ("é", "é"),
            ("€", "€"),
            ("🂡", "🂡"),
            ("x", "x"),
            ("\\u0000\\u001f", "\u{0}\u{1f}"),
        ];
        const MIB: usize = 1 << 20;
        let mut text = String::from("{\"s\":\"");
        let mut expected = String::new();
        let mut i = 0usize;
        while text.len() < MIB {
            // A stride coprime to the piece count visits every pair order.
            let (encoded, decoded) = PIECES[(i * 7 + i / PIECES.len()) % PIECES.len()];
            text.push_str(encoded);
            expected.push_str(decoded);
            i += 1;
        }
        text.push_str("\",\"a\":[");
        let array_start = text.len();
        let mut n = 0i64;
        while text.len() - array_start < MIB {
            if n > 0 {
                text.push(',');
            }
            text.push_str(&n.to_string());
            n += 1;
        }
        text.push_str("]}");

        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some(expected.as_str()));
        let a = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len() as i64, n);
        assert!(a.iter().zip(0..).all(|(v, i)| v.as_i64() == Some(i)));
    }

    #[test]
    fn depth_limit_rejects_bombs() {
        let bomb = "[".repeat(500) + &"]".repeat(500);
        let e = Json::parse(&bomb).unwrap_err();
        assert!(e.msg.contains("deep"));
        // But MAX_DEPTH-ish documents are fine.
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }
}
