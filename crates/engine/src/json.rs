//! A minimal, deterministic JSON writer (std-only).
//!
//! Result artifacts (`BENCH_table1.json`, batch reports) need
//! machine-readable output but no external serialisation crates are
//! available offline. [`JsonValue`] covers the JSON data model; objects
//! preserve **insertion order**, so the same value always renders to the
//! same bytes — the property the `--jobs 1` vs `--jobs 8` byte-equality
//! guarantee rests on.
//!
//! Floats render via Rust's shortest-roundtrip `Display`, which is
//! deterministic across platforms; non-finite floats render as `null`
//! (JSON has no NaN/Infinity).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A double (non-finite renders as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience: an object from key/value pairs.
    pub fn object(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation and a trailing newline —
    /// the format of the committed `BENCH_*.json` artifacts.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document (strict, std-only recursive descent).
    ///
    /// Supports the full data model this writer emits; numbers parse as
    /// `UInt`/`Int` when integral and in range, `Float` otherwise.
    /// Returns a message with a byte offset on malformed input. Reads
    /// back the JSON the repo writes: traces, artifacts, reports and
    /// repro manifests.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(f) => write_float(out, *f),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", ch as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogates are not produced by our writer; map
                        // them to the replacement character on read.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            _ => {
                // Copy the plain run up to the next quote or escape as one
                // slice. Both delimiters are ASCII, so the run ends on a
                // scalar boundary and every byte is validated once.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(run);
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number".to_string())?;
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(u));
        }
        if let Ok(i) = text.parse::<i64>() {
            return Ok(JsonValue::Int(i));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Integral floats render with a decimal point so the field stays
        // type-stable for consumers (`1.0`, not `1`).
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::Int(-3).render(), "-3");
        assert_eq!(
            JsonValue::UInt(18_446_744_073_709_551_615).render(),
            "18446744073709551615"
        );
        assert_eq!(JsonValue::Float(1.5).render(), "1.5");
        assert_eq!(JsonValue::Float(2.0).render(), "2.0");
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            JsonValue::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = JsonValue::object(vec![
            ("zebra", JsonValue::Int(1)),
            ("alpha", JsonValue::Int(2)),
        ]);
        assert_eq!(v.render(), r#"{"zebra":1,"alpha":2}"#);
    }

    #[test]
    fn pretty_round_trips_structure() {
        let v = JsonValue::object(vec![
            ("name", JsonValue::str("x")),
            (
                "items",
                JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
            ("empty", JsonValue::Array(vec![])),
        ]);
        let pretty = v.render_pretty();
        assert!(pretty.starts_with("{\n"));
        assert!(pretty.contains("\"items\": [\n"));
        assert!(pretty.contains("\"empty\": []"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = JsonValue::object(vec![
            ("name", JsonValue::str("s5378\n\"x\"")),
            ("phi", JsonValue::UInt(7)),
            ("delta", JsonValue::Int(-3)),
            ("cpu", JsonValue::Float(1.5)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::UInt(2)]),
            ),
            ("empty", JsonValue::Array(vec![])),
        ]);
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
        assert!(JsonValue::parse("\"open").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn parse_rejects_malformed_strings() {
        assert!(JsonValue::parse("\"abc").is_err());
        assert!(JsonValue::parse("\"a\\").is_err());
        assert!(JsonValue::parse("\"a\\q\"").is_err());
        assert!(JsonValue::parse("\"\\u12\"").is_err());
        assert!(JsonValue::parse("\"\\uzzzz\"").is_err());
        assert!(JsonValue::parse("{\"k\" 1}").is_err());
        assert_eq!(
            JsonValue::parse("\"a\\u00e9\\n€\"").unwrap(),
            JsonValue::str("aé\n€")
        );
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"a":3,"b":"x","c":[1]}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            JsonValue::object(vec![
                ("phi", JsonValue::UInt(7)),
                ("cpu", JsonValue::Float(0.0)),
                ("name", JsonValue::str("s5378")),
            ])
        };
        assert_eq!(build().render_pretty(), build().render_pretty());
    }
}
