//! # bpp-json — minimal JSON for an air-gapped workspace
//!
//! The repo's serialization needs are tiny and fixed: emit config,
//! result and report objects, and write bench trajectories
//! (`BENCH_*.json`). This crate covers exactly that with a tree value type
//! ([`Json`]), compact and pretty writers, one conversion trait
//! ([`ToJson`]) that structs implement by hand, and a strict
//! recursive-descent parser for tools that read the emitted documents back
//! — no derive machinery, no external dependencies, streams and bytes
//! stable forever.
//!
//! Serialization is one-way: no workspace type parses itself from JSON.
//! A config is built in code, and its JSON is a record of the run.
//!
//! Conventions follow what `serde_json` produced for the same types, so
//! existing output shapes are preserved:
//!
//! * struct → object with the field names in declaration order;
//! * unit enum variant → its name as a string (`"PurePush"`);
//! * `Option` → `null` or the value;
//! * non-finite floats → `null` (JSON has no `inf`/`nan`);
//! * pretty output indents by two spaces.
//!
//! ```
//! use bpp_json::Json;
//!
//! let v = Json::parse(r#"{"db_size": 1000, "zipf_theta": 0.95}"#).unwrap();
//! assert_eq!(v.get("db_size").and_then(Json::as_usize), Some(1000));
//! assert_eq!(v.get("zipf_theta").and_then(Json::as_f64), Some(0.95));
//! let back = bpp_json::to_string(&vec![1u64, 2, 3]);
//! assert_eq!(back, "[1,2,3]");
//! ```

use std::fmt::Write as _;

/// A JSON document: the usual tree of values.
///
/// Numbers keep their integer-ness: anything written without a fraction or
/// exponent parses to [`Json::Int`] (an `i128`, wide enough for the full
/// `u64` seed space), everything else to [`Json::Float`]. Object member
/// order is preserved — serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is kept as written/built.
    Obj(Vec<(String, Json)>),
}

/// Error from parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    fn at(msg: &str, pos: usize) -> Self {
        JsonError {
            msg: format!("{msg} at byte {pos}"),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

impl Json {
    /// Member of an object by key (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as an `i128` (floats do not coerce).
    pub fn as_int(&self) -> Option<i128> {
        match *self {
            Json::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The value as a `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|i| u64::try_from(i).ok())
    }

    /// The value as a `usize`, if integral and in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_int().and_then(|i| usize::try_from(i).ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs (order preserved).
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no inf/nan; serde_json wrote null for them too.
        out.push_str("null");
        return;
    }
    let s = format!("{x}");
    out.push_str(&s);
    // Keep float-ness on round-trip: `1` would re-parse as an integer.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

impl Json {
    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        const PAD: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&PAD.repeat(indent + 1));
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&PAD.repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serialize with two-space indentation.
    pub fn dump_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.dump())
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                &format!("expected '{}'", b as char),
                self.pos,
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at("invalid literal", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        self.skip_ws();
        let v = match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(JsonError::at("unexpected character", self.pos)),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }?;
        self.depth -= 1;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(JsonError::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain UTF-8 up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::at("invalid utf-8", start))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::at("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.expect_byte(b'\\')?;
                                self.expect_byte(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(JsonError::at("invalid surrogate", self.pos));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(
                                c.ok_or_else(|| JsonError::at("invalid codepoint", self.pos))?,
                            );
                        }
                        _ => return Err(JsonError::at("unknown escape", self.pos - 1)),
                    }
                }
                Some(_) => return Err(JsonError::at("control character in string", self.pos)),
                None => return Err(JsonError::at("unterminated string", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::at("truncated \\u escape", self.pos))?;
        let s =
            std::str::from_utf8(chunk).map_err(|_| JsonError::at("bad \\u escape", self.pos))?;
        let v =
            u32::from_str_radix(s, 16).map_err(|_| JsonError::at("bad \\u escape", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !saw_digit {
            return Err(JsonError::at("invalid number", start));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at("invalid number", start))?;
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::at("invalid number", start))
    }
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at("trailing characters", p.pos));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Types that can serialize themselves to a [`Json`] tree.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

/// Serialize a value compactly.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().dump()
}

/// Serialize a value with two-space indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().dump_pretty()
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(i128::from(*self))
            }
        }
    )*};
}

int_json!(u8, u16, u32, u64, i8, i16, i32, i64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i128)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(x) => x.to_json(),
        }
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "12.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.dump(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn integers_keep_full_u64_range() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.dump(), "18446744073709551615");
    }

    #[test]
    fn floats_stay_floats() {
        let v = Json::Float(1.0);
        assert_eq!(v.dump(), "1.0");
        let back = Json::parse(&v.dump()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::INFINITY).dump(), "null");
        assert_eq!(Json::Float(f64::NAN).dump(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{0007}f";
        let v = Json::Str(s.to_string());
        let text = v.dump();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2.5,null,{"b":true}],"c":"x"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.dump(), text);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn pretty_output_is_reparseable_and_indented() {
        let v = Json::object([
            ("mean_response", Json::Float(278.4)),
            ("slots", Json::object([("push_pages", Json::Int(12))])),
            ("empty_list", Json::Arr(vec![])),
        ]);
        let pretty = v.dump_pretty();
        assert!(pretty.contains("  \"mean_response\": 278.4"));
        assert!(pretty.contains("    \"push_pages\": 12"));
        assert!(pretty.contains("\"empty_list\": []"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn object_member_order_is_preserved() {
        let text = r#"{"z":1,"a":2,"m":3}"#;
        assert_eq!(Json::parse(text).unwrap().dump(), text);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "{'a':1}",
            "[1,]2",
            "nullx",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn depth_limit_prevents_stack_overflow() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn vec_and_option_to_json() {
        assert_eq!(to_string(&vec![1u32, 2]), "[1,2]");
        assert_eq!(to_string(&Some(2.5f64)), "2.5");
        assert_eq!(to_string(&Option::<f64>::None), "null");
    }
}
