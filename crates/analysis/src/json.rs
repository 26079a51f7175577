//! A minimal JSON value type with a renderer and a parser.
//!
//! Run manifests must round-trip exactly: pclock totals are `u64`s that
//! a float-only JSON layer would corrupt past 2^53. [`Json`] therefore
//! keeps integers ([`Json::Int`]) and floats ([`Json::Float`]) apart —
//! the parser yields `Int` for any integral literal that fits `i64`,
//! and the renderer never converts between them. Objects preserve
//! insertion order (manifests diff cleanly), and the renderer puts
//! *leaf* containers (no nested arrays/objects) on one line so a
//! 16-node stats array stays readable without exploding line count.
//!
//! # Examples
//!
//! ```
//! use pfsim_analysis::json::Json;
//!
//! let v = Json::Object(vec![
//!     ("pclocks".to_string(), Json::Int(14_059_066)),
//!     ("apps".to_string(), Json::Array(vec![Json::Str("LU".into())])),
//! ]);
//! let text = v.render();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("pclocks").unwrap().as_u64(), Some(14_059_066));
//! ```

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number (kept exact; never rendered with a decimal
    /// point).
    Int(i64),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object member list.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an unsigned integer.
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds `i64::MAX` (no simulator counter does).
    pub fn uint(v: u64) -> Json {
        Json::Int(i64::try_from(v).expect("counter exceeds i64::MAX"))
    }

    /// Member `key` of an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen), if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if the value is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Whether this value contains no nested containers (renders on one
    /// line).
    fn is_leaf(&self) -> bool {
        match self {
            Json::Array(items) => !items
                .iter()
                .any(|v| matches!(v, Json::Array(_) | Json::Object(_))),
            Json::Object(members) => !members
                .iter()
                .any(|(_, v)| matches!(v, Json::Array(_) | Json::Object(_))),
            _ => true,
        }
    }

    /// Renders the value as indented JSON text (trailing newline
    /// included at the top level).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                    // `{}` omits ".0" for integral floats; keep the type
                    // distinction visible so the parser round-trips it as
                    // a float.
                    if v.fract() == 0.0 && !out.ends_with(['.', 'e']) {
                        let _ = write!(out, ".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                } else if self.is_leaf() {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        v.render_into(out, depth + 1);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, v) in items.iter().enumerate() {
                        indent(out, depth + 1);
                        v.render_into(out, depth + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push(']');
                }
            }
            Json::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                } else if self.is_leaf() {
                    out.push('{');
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        render_string(k, out);
                        out.push_str(": ");
                        v.render_into(out, depth + 1);
                    }
                    out.push('}');
                } else {
                    out.push_str("{\n");
                    for (i, (k, v)) in members.iter().enumerate() {
                        indent(out, depth + 1);
                        render_string(k, out);
                        out.push_str(": ");
                        v.render_into(out, depth + 1);
                        if i + 1 < members.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push('}');
                }
            }
        }
    }

    /// Parses JSON text.
    ///
    /// Accepts the full JSON grammar; integral numbers without
    /// fraction/exponent that fit `i64` become [`Json::Int`], everything
    /// else numeric becomes [`Json::Float`]. A document whose arrays and
    /// objects nest more than [`MAX_DEPTH`] deep is rejected.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so the bound keeps a hostile document
/// from overflowing the stack; the deepest document pfsim writes, a run
/// manifest, nests 5 levels.
pub const MAX_DEPTH: usize = 64;

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_string(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

/// Parses one value inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by our renderer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII, so the run is a whole slice of the input &str and
                // valid UTF-8; validating only the run keeps parsing linear
                // in the document's length.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !is_float {
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|e| format!("invalid number '{text}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Float(0.5),
            Json::Float(-1234.75),
            Json::Str("hello \"world\"\n\t\\".to_string()),
            Json::Str("π ≈ 3".to_string()),
            Json::Str("é\"ü\\→\n".to_string()),
        ] {
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{v:?}");
        }
    }

    #[test]
    fn large_u64_counters_survive() {
        let v = Json::uint(14_059_066);
        assert_eq!(Json::parse(&v.render()).unwrap().as_u64(), Some(14_059_066));
        let big = Json::uint(9_007_199_254_740_993); // 2^53 + 1
        assert_eq!(
            Json::parse(&big.render()).unwrap().as_u64(),
            Some(9_007_199_254_740_993)
        );
    }

    #[test]
    fn containers_round_trip_preserving_order() {
        let v = Json::obj(vec![
            ("zeta", Json::Int(1)),
            ("alpha", Json::Array(vec![Json::Int(1), Json::Null])),
            (
                "nested",
                Json::obj(vec![("x", Json::Float(1.5)), ("y", Json::str("s"))]),
            ),
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(vec![])),
        ]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["zeta", "alpha", "nested", "empty_arr", "empty_obj"]);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = Json::Float(3.0);
        let text = v.render();
        assert!(text.contains("3.0"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn leaf_objects_render_on_one_line() {
        let v = Json::Array(vec![
            Json::obj(vec![("a", Json::Int(1)), ("b", Json::Int(2))]),
            Json::obj(vec![("a", Json::Int(3)), ("b", Json::Int(4))]),
        ]);
        let text = v.render();
        assert!(text.contains("{\"a\": 1, \"b\": 2}"), "{text}");
    }

    #[test]
    fn parses_foreign_json() {
        let v =
            Json::parse(r#" { "a" : [ 1 , 2.5e1 , -3 ] , "b" : { } , "c" : "A\ud800" } "#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(25.0)
        );
        assert_eq!(v.get("c").unwrap().as_str(), Some("A\u{fffd}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_nesting_deeper_than_the_limit() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Unbounded, 100,000 unclosed brackets overflow the parser's stack.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let err = Json::parse(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn accessors_discriminate() {
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Int(-1).as_i64(), Some(-1));
        assert_eq!(Json::Float(1.5).as_u64(), None);
        assert_eq!(Json::Int(2).as_f64(), Some(2.0));
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.get("x"), None);
    }
}
