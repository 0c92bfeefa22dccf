//! JSON helpers shared by every hand-rolled serializer — and a minimal
//! parser for checking their output.
//!
//! The workspace deliberately has no serialization dependency; the
//! observability layers (`excess-db`'s JSON module, `excess-telemetry`,
//! the report binary) build JSON with plain string formatting.  The
//! pieces that are easy to get subtly wrong — escaping string payloads,
//! rendering non-finite floats, formatting node paths and durations —
//! live here so there is exactly one implementation of each to test.
//! Each primitive appends to a caller's buffer (`push_*`), so the wire
//! serializer fills one `String`; the `String`-returning forms
//! ([`escape_json`], [`quote_json`], [`number`]) are one-line wrappers.
//! [`parse_json`] is the other direction: a small recursive-descent
//! parser used by golden tests (and the report binary's self-checks) to
//! assert that the serializers emit well-formed documents with the keys
//! consumers rely on, without pulling in serde.

use std::fmt::Write;
use std::time::Duration;

/// Append `s` to `out` escaped for a JSON string (adds no quotes) — the
/// one escaping routine every serializer in the workspace goes through.
///
/// Handles the two mandatory escapes (`"` and `\`), the common control
/// characters by short form (`\n`, `\r`, `\t`), and every remaining
/// control character below U+0020 as `\u00XX`.  Runs that need no escape
/// are copied with one `push_str`.  Scanning bytes is sound: every byte
/// that needs escaping is ASCII, and no byte of a multi-byte UTF-8
/// sequence is.
pub fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

/// [`push_escaped`] between double quotes: a complete JSON string literal.
pub fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Append an `f64` so the output is valid JSON: finite values print via
/// `Display`, `NaN`/`±inf` (which JSON has no literals for) become
/// `null`.
pub fn push_number(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// [`push_escaped`] into a fresh `String`.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// [`push_quoted`] into a fresh `String`.
pub fn quote_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// [`push_number`] into a fresh `String`.
pub fn number(x: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, x);
    out
}

/// Render a [`Duration`] as fractional milliseconds (the unit every
/// serializer in the workspace reports wall time in).
pub fn millis(d: Duration) -> String {
    number(d.as_secs_f64() * 1e3)
}

/// Render a node path (child indices from the plan root) as a JSON array
/// of integers — the machine-readable counterpart of
/// `profile::path_string`.
pub fn path_json(path: &[usize]) -> String {
    let parts: Vec<String> = path.iter().map(|i| i.to_string()).collect();
    format!("[{}]", parts.join(","))
}

/// A parsed JSON document — the minimal value tree needed to assert on
/// serializer output.  Object member order is preserved as written.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`, like JavaScript).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's members in document order, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parse a JSON document.  Strict enough for round-trip tests (rejects
/// trailing garbage, bad escapes, unterminated literals) while accepting
/// everything the workspace serializers emit.
pub fn parse_json(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        chars: src.chars().collect(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing input at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        let got = self.bump()?;
        if got == c {
            Ok(())
        } else {
            Err(format!("expected `{c}`, found `{got}` at {}", self.pos - 1))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek().ok_or("unexpected end of input")? {
            '{' => self.object(),
            '[' => self.array(),
            '"' => Ok(JsonValue::Str(self.string()?)),
            't' => self.literal("true", JsonValue::Bool(true)),
            'f' => self.literal("false", JsonValue::Bool(false)),
            'n' => self.literal("null", JsonValue::Null),
            '-' | '0'..='9' => self.num(),
            c => Err(format!("unexpected `{c}` at {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                '}' => return Ok(JsonValue::Obj(members)),
                c => return Err(format!("expected `,` or `}}`, found `{c}`")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                ']' => return Ok(JsonValue::Arr(items)),
                c => return Err(format!("expected `,` or `]`, found `{c}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Ok(out),
                '\\' => match self.bump()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut cp = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            cp = cp * 16 + d.to_digit(16).ok_or(format!("bad hex digit `{d}`"))?;
                        }
                        out.push(char::from_u32(cp).ok_or("invalid \\u escape")?);
                    }
                    c => return Err(format!("bad escape `\\{c}`")),
                },
                c => out.push(c),
            }
        }
    }

    fn num(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_strings_pass_through() {
        assert_eq!(escape_json("hello world"), "hello world");
        assert_eq!(quote_json("hello"), "\"hello\"");
    }

    #[test]
    fn quotes_and_backslashes_are_escaped() {
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(quote_json("say \"hi\""), "\"say \\\"hi\\\"\"");
    }

    #[test]
    fn named_control_characters_use_short_forms() {
        assert_eq!(escape_json("a\nb\rc\td"), "a\\nb\\rc\\td");
    }

    #[test]
    fn remaining_control_characters_use_unicode_escapes() {
        assert_eq!(escape_json("\u{01}"), "\\u0001");
        assert_eq!(escape_json("\u{1f}"), "\\u001f");
    }

    #[test]
    fn non_ascii_text_is_left_alone() {
        assert_eq!(escape_json("σ ⋈ π — ∅"), "σ ⋈ π — ∅");
    }

    #[test]
    fn number_rejects_non_finite() {
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(2.5), "2.5");
    }

    #[test]
    fn millis_renders_fractional_ms() {
        assert_eq!(millis(Duration::from_micros(1500)), "1.5");
    }

    #[test]
    fn path_json_renders_indices() {
        assert_eq!(path_json(&[]), "[]");
        assert_eq!(path_json(&[0, 2, 1]), "[0,2,1]");
    }

    #[test]
    fn escaped_output_round_trips_through_the_parser() {
        let original = "line1\nline2\t\"quoted\" \\ end\u{02} σ";
        let doc = format!("{{\"k\":{}}}", quote_json(original));
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(parsed.get("k").unwrap().as_str(), Some(original));
    }

    #[test]
    fn parser_handles_nested_documents() {
        let v =
            parse_json("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":true,\"d\":null},\"e\":\"x\"}").unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn parser_preserves_object_member_order() {
        let v = parse_json("{\"z\":1,\"a\":2}").unwrap();
        let members = v.as_obj().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
    }
}
