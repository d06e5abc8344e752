//! Minimal JSON value type, writer and recursive-descent parser.
//!
//! The build is fully offline (no serde), so snapshot serialization is
//! hand-rolled against this tiny model. It supports exactly what
//! [`super::snapshot::TelemetrySnapshot`] needs:
//!
//! - `u64` integers round-trip exactly (kept distinct from floats);
//! - `f64` uses Rust's shortest-round-trip `Display` formatting, so a
//!   parse of the emitted text recovers the identical bit pattern for
//!   all finite values (non-finite gauges are never emitted);
//! - object keys keep insertion order;
//! - strings escape `"`‚ `\` and control characters.

use std::fmt::Write as _;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token (no `.`, `e` or leading `-`).
    UInt(u64),
    /// Any other numeric token.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts integer tokens too).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a bool.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                // Rust's `Display` for f64 is shortest-round-trip, so the
                // emitted token parses back to the identical bit pattern.
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text into a [`Json`] value.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters"));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    /// Serializes the value to compact JSON text.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Parse failure with a byte offset and a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl JsonError {
    fn at(offset: usize, message: &'static str) -> Self {
        Self { offset, message }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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
            Err(JsonError::at(self.pos, "unexpected character"))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(JsonError::at(self.pos, "invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(JsonError::at(self.pos, "expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(JsonError::at(self.pos, "truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| JsonError::at(self.pos, "bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::at(self.pos, "bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or(JsonError::at(self.pos, "bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at(self.pos, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one full UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError::at(self.pos, "invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at(start, "invalid number"))?;
        if token.is_empty() || token == "-" {
            return Err(JsonError::at(start, "invalid number"));
        }
        if !is_float && !token.starts_with('-') {
            if let Ok(v) = token.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::at(start, "invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_value() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("queue.depth \"q\"\n".into())),
            ("count".into(), Json::UInt(18446744073709551615)),
            ("mean".into(), Json::Float(0.1 + 0.2)),
            ("neg".into(), Json::Float(-3.5)),
            ("flag".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "buckets".into(),
                Json::Arr(vec![Json::UInt(0), Json::UInt(7)]),
            ),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 123456.789, f64::MIN_POSITIVE] {
            let text = Json::Float(v).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "token {text}");
        }
    }

    #[test]
    fn integral_floats_parse_as_uint_token() {
        // `Display` for 2.0 prints "2": it parses back as UInt. as_f64
        // accepts both, so snapshot readers are unaffected.
        let text = Json::Float(2.0).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "01x", "nul", "[1 2]"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""aé\n\t\" b""#).unwrap();
        assert_eq!(v.as_str(), Some("aé\n\t\" b"));
    }
}
