//! A minimal JSON document model, emitter and parser.
//!
//! The workspace builds fully offline (no crates.io), so the report layer
//! carries its own JSON implementation instead of `serde_json`. The model is
//! deliberately small: a [`Json`] tree, a deterministic pretty-printer
//! ([`Json::render`]) and a strict recursive-descent parser
//! ([`Json::parse`]). Objects preserve insertion order so emitted documents
//! are byte-stable across runs.
//!
//! Numbers carry their integerness: unsigned integers ([`Json::Uint`], any
//! `u64` — seeds and counters stay exact at full range) are kept apart from
//! floats ([`Json::Num`], printed with Rust's shortest-round-trip
//! formatting), so `parse ∘ render = identity` holds for every finite value
//! the emitters produce. The parser classifies a number as `Uint` exactly
//! when its text is a plain non-negative integer that fits `u64`.
//!
//! ```
//! use dtn_bench::report::json::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::str("smoke")),
//!     ("seeds", Json::arr(vec![Json::uint(1), Json::uint(u64::MAX)])),
//! ]);
//! let text = doc.render();
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! assert_eq!(doc.get("name").and_then(Json::as_str), Some("smoke"));
//! ```

use std::fmt::Write as _;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-integer (or negative / oversized) JSON number, as `f64`.
    Num(f64),
    /// A non-negative integer JSON number, exact over the full `u64` range.
    Uint(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (and emitted).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A float value. Non-finite inputs render as `null` (JSON has no
    /// `NaN`/`inf`), which the schema validator then flags.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// An unsigned integer value, exact over the full `u64` range.
    pub fn uint(v: u64) -> Json {
        Json::Uint(v)
    }

    /// An array value.
    pub fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// An object value from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number (integers above 2⁵³ lose
    /// precision in this view, as any `f64` consumer must accept).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Uint(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an unsigned integer: any [`Json::Uint`], or a
    /// [`Json::Num`] that is a whole non-negative number within exact `f64`
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints the value (2-space indent, trailing newline) — the
    /// deterministic emitter the report files use.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // Rust's float Display is shortest-round-trip, so the
                    // parser recovers this exact f64. Integral floats get an
                    // explicit `.0` so the parser classifies them back as
                    // `Num`, never `Uint` — keeping parse ∘ render the
                    // identity at the `Json` level too.
                    if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Uint(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    render_string(out, k);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Strict: exactly one value, nothing but
    /// whitespace after it; errors carry a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_string(out: &mut String, s: &str) {
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

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(text, pos),
        Some(b'[') => parse_arr(text, pos),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Enforce the RFC 8259 number grammar before handing the text to Rust's
    // (more lenient) float parser: no leading `+`, no leading zeros, no bare
    // or trailing dot, no empty exponent. Anything this validator certifies
    // must also parse in every standard JSON consumer.
    if !is_json_number(text) {
        return Err(format!("bad number `{text}` at byte {start}"));
    }
    // A plain non-negative integer stays exact as a `Uint` (full u64
    // range); everything else — fractions, exponents, negatives, oversized
    // integers — is an f64 `Num`.
    if text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Uint(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
}

/// Whether `text` matches the JSON number grammar
/// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?` exactly.
fn is_json_number(text: &str) -> bool {
    let b = text.as_bytes();
    let mut i = 0usize;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    // Integer part: `0` alone or a non-zero-led digit run.
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        _ => return false,
    }
    // Optional fraction: a dot followed by at least one digit.
    if b.get(i) == Some(&b'.') {
        i += 1;
        if !matches!(b.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    // Optional exponent: e/E, optional sign, at least one digit.
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !matches!(b.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    i == b.len()
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run of plain characters up to the next quote or escape
        // straight from the input: `"` and `\` are ASCII, so they never occur
        // inside a multi-byte sequence and the run ends on a char boundary.
        let run = *pos;
        while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
            *pos += 1;
        }
        out.push_str(&text[run..*pos]);
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at an escape.
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
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        // Surrogate pairs are not needed for this format's
                        // ASCII-dominated payloads; reject them loudly.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_arr(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if !matches!(bytes.get(*pos), Some(b'"')) {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if !matches!(bytes.get(*pos), Some(b':')) {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(text, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let doc = Json::obj([
            ("a", Json::num(0.1 + 0.2)),
            ("b", Json::str("x \"y\" \\ z\nw")),
            (
                "c",
                Json::arr(vec![Json::Null, Json::Bool(true), Json::uint(9)]),
            ),
            ("empty_arr", Json::arr(vec![])),
            ("empty_obj", Json::obj::<String>([])),
            // Long non-ASCII runs around every character that renders as
            // an escape (quote, backslash, \n, \r, \t, \u00XX).
            (
                "long_unicode",
                Json::str(
                    "gr\u{fc}\u{df}e \u{2192} \u{1f68c}\"\\\n\r\t\u{1}\u{8}\u{c}/".repeat(2_000),
                ),
            ),
        ]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        // The escapes the renderer never writes parse too.
        assert_eq!(
            Json::parse(r#""\/\b\f\u00fc\u2192""#).unwrap(),
            Json::str("/\u{8}\u{c}\u{fc}\u{2192}")
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 123456789.123456, f64::MIN_POSITIVE] {
            let doc = Json::num(v);
            let back = Json::parse(&doc.render()).unwrap();
            assert_eq!(back.as_f64(), Some(v), "{v} must round-trip exactly");
        }
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Json::num(f64::NAN).render(), "null\n");
        assert_eq!(Json::num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    /// Only the RFC 8259 number grammar is accepted — what this parser
    /// certifies must also parse in every standard JSON consumer.
    #[test]
    fn parse_enforces_json_number_grammar() {
        for bad in ["+1", "01", "1.", ".5", "1e", "1e+", "-", "--1", "1.2.3"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        for good in ["0", "-0", "10", "0.5", "-1.25e-3", "2E+8", "1e999"] {
            assert!(Json::parse(good).is_ok(), "`{good}` must parse");
        }
    }

    #[test]
    fn u64_accessor_guards_range() {
        assert_eq!(Json::num(7.0).as_u64(), Some(7));
        assert_eq!(Json::num(7.5).as_u64(), None);
        assert_eq!(Json::num(-1.0).as_u64(), None);
        assert_eq!(Json::uint(u64::MAX).as_u64(), Some(u64::MAX));
    }

    /// Full-range u64 values (e.g. a seed of u64::MAX) survive emit → parse
    /// exactly; integral floats keep their `.0` and stay floats.
    #[test]
    fn uints_round_trip_at_full_range() {
        for v in [0, 1, 2u64.pow(53) + 1, u64::MAX] {
            let back = Json::parse(&Json::uint(v).render()).unwrap();
            assert_eq!(back.as_u64(), Some(v), "{v} must stay exact");
        }
        let f = Json::num(1000.0);
        assert_eq!(f.render(), "1000.0\n");
        assert_eq!(Json::parse(&f.render()).unwrap(), f);
        // Oversized integer text degrades to f64 rather than erroring.
        let big = Json::parse("18446744073709551616").unwrap();
        assert!(matches!(big, Json::Num(_)));
    }
}
