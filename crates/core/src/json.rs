//! Hand-rolled JSON tree, writer and parser.
//!
//! The workspace builds offline with zero external dependencies, so the
//! observability layer ([`crate::metrics`]) serializes through this module
//! instead of `serde`. The feature set is deliberately small but complete
//! for machine-readable run reports:
//!
//! - [`JsonValue`]: an owned JSON tree with order-preserving objects (so
//!   emitted reports are stable and diffable PR-over-PR);
//! - a writer with full string escaping and non-finite-float handling
//!   ([`JsonValue::to_json`] / [`JsonValue::to_json_pretty`]);
//! - a strict recursive-descent parser ([`parse`]) used by golden-file
//!   tests and the `jsonlint` CI gate to prove emitted reports round-trip;
//! - newline-delimited JSON (NDJSON) streaming: a line writer
//!   ([`JsonValue::to_ndjson_line`], [`NdjsonWriter`]) for telemetry
//!   streams where records are appended and flushed in batches, and a
//!   strict line-oriented parser ([`parse_ndjson`]) that fails on any
//!   invalid line.

use std::error::Error;
use std::fmt;
use std::io::{self, Write};

/// An owned JSON value.
///
/// Objects preserve insertion order (they are association lists, not hash
/// maps) so that serialized reports are byte-stable across runs.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (cycle counters can exceed `i64::MAX` in
    /// principle; they serialize losslessly through this variant).
    UInt(u64),
    /// A double. Non-finite values serialize as `null` (JSON has no
    /// NaN/Infinity).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered `(key, value)` list.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K, I>(pairs: I) -> JsonValue
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, JsonValue)>,
    {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array<I: IntoIterator<Item = JsonValue>>(values: I) -> JsonValue {
        JsonValue::Array(values.into_iter().collect())
    }

    /// Looks up a key in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `bool`; `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen); `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice; `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with 2-space indentation (the report-file format).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Serializes as one NDJSON line: compact (a JSON document can only
    /// span lines through whitespace, which the compact writer never
    /// emits) and newline-terminated.
    pub fn to_ndjson_line(&self) -> String {
        let mut out = self.to_json();
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            JsonValue::UInt(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            JsonValue::Float(v) => write_float(out, *v),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null"); // JSON has no NaN/Infinity
        return;
    }
    let text = format!("{v}");
    out.push_str(&text);
    // `{}` on an integral f64 prints no decimal point; keep the value
    // typed as a float on the wire.
    if !text.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Equality is structural, except that `Int` and `UInt` compare by numeric
/// value — the parser cannot know which variant a writer used for a
/// non-negative integer, and round-trip tests should not care.
impl PartialEq for JsonValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (JsonValue::Null, JsonValue::Null) => true,
            (JsonValue::Bool(a), JsonValue::Bool(b)) => a == b,
            (JsonValue::Str(a), JsonValue::Str(b)) => a == b,
            (JsonValue::Array(a), JsonValue::Array(b)) => a == b,
            (JsonValue::Object(a), JsonValue::Object(b)) => a == b,
            (JsonValue::Int(a), JsonValue::Int(b)) => a == b,
            (JsonValue::UInt(a), JsonValue::UInt(b)) => a == b,
            (JsonValue::Int(a), JsonValue::UInt(b)) | (JsonValue::UInt(b), JsonValue::Int(a)) => {
                u64::try_from(*a).is_ok_and(|a| a == *b)
            }
            (JsonValue::Float(a), JsonValue::Float(b)) => a == b,
            _ => false,
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<i32> for JsonValue {
    fn from(v: i32) -> Self {
        JsonValue::Int(v as i64)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

/// Error from [`parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for JsonParseError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns [`JsonParseError`] on malformed input.
pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Error from [`parse_ndjson`]: which line failed, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NdjsonError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The parse failure on that line.
    pub error: JsonParseError,
}

impl fmt::Display for NdjsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl Error for NdjsonError {}

/// Parses a newline-delimited JSON stream: one complete JSON value per
/// line. Empty lines (including a trailing newline's empty remainder) are
/// skipped; any other invalid line fails the whole stream — a telemetry
/// file with a torn or corrupt record must not half-parse silently.
///
/// # Errors
///
/// Returns [`NdjsonError`] naming the first offending line.
pub fn parse_ndjson(input: &str) -> Result<Vec<JsonValue>, NdjsonError> {
    let mut values = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse(line).map_err(|error| NdjsonError { line: i + 1, error })?;
        values.push(value);
    }
    Ok(values)
}

/// A buffered newline-delimited JSON writer.
///
/// Pre-serialized batches of compact lines are appended to an internal
/// buffer that is flushed to the underlying writer only when it reaches
/// [`NdjsonWriter::DEFAULT_FLUSH_BYTES`] (or on [`NdjsonWriter::flush`] and
/// [`NdjsonWriter::finish`]).
/// This is the batching layer for streaming telemetry: per-record cost is
/// an in-memory append; syscalls amortize over many records.
#[derive(Debug)]
pub struct NdjsonWriter<W: Write> {
    sink: W,
    buffer: String,
    lines: u64,
    flushes: u64,
}

impl<W: Write> NdjsonWriter<W> {
    /// Default buffered bytes before an automatic flush.
    pub const DEFAULT_FLUSH_BYTES: usize = 64 * 1024;

    /// Creates a writer over `sink` with the default batch threshold.
    pub fn new(sink: W) -> Self {
        NdjsonWriter {
            sink,
            buffer: String::new(),
            lines: 0,
            flushes: 0,
        }
    }

    /// Appends an already-serialized NDJSON batch (newline-terminated
    /// lines), flushing if the batch threshold is exceeded. Used by
    /// per-worker buffers handing their batches to a shared writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from an automatic flush.
    pub fn write_batch(&mut self, batch: &str, lines: u64) -> io::Result<()> {
        self.buffer.push_str(batch);
        self.lines += lines;
        if self.buffer.len() >= Self::DEFAULT_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes any buffered lines through to the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buffer.is_empty() {
            self.sink.write_all(self.buffer.as_bytes())?;
            self.buffer.clear();
            self.flushes += 1;
        }
        self.sink.flush()
    }

    /// Lines written so far (buffered or flushed).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Batch flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final flush.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush()?;
        Ok(self.sink)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.at,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.at += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: decode `\uD800-\uDBFF`
                            // followed by a low surrogate.
                            let c = if (0xD800..=0xDBFF).contains(&code) {
                                if self.bytes[self.at..].starts_with(b"\\u") {
                                    self.at += 2;
                                    let low = self.hex4()?;
                                    // The second escape must really be a
                                    // low surrogate: anything else used to
                                    // flow into the combination arithmetic
                                    // (wrapping the u32 sum) instead of
                                    // being rejected as a lone surrogate.
                                    if (0xDC00..=0xDFFF).contains(&low) {
                                        char::from_u32(
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Advance one UTF-8 scalar (input is valid UTF-8 by
                    // construction: it came from a &str).
                    let start = self.at;
                    self.at += 1;
                    while self.bytes.get(self.at).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.at])
                            .expect("slice is a UTF-8 scalar"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.at.checked_add(4).filter(|&e| e <= self.bytes.len());
        let slice = end
            .map(|e| &self.bytes[self.at..e])
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("bad hex in \\u escape"))?;
        self.at += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.at]).expect("number chars are ASCII");
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonParseError {
                offset: start,
                message: format!("bad number `{text}`"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote \" backslash \\ newline \n tab \t cr \r nul \u{01} é ∆";
        let v = JsonValue::object([("s", JsonValue::from(nasty))]);
        let text = v.to_json();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\\\"));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\u0001"));
        let back = parse(&text).unwrap();
        assert_eq!(back.get("s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn nested_objects_preserve_order() {
        let v = JsonValue::object([
            ("zebra", JsonValue::from(1u32)),
            (
                "inner",
                JsonValue::object([
                    ("b", JsonValue::from(true)),
                    (
                        "a",
                        JsonValue::array([JsonValue::Null, JsonValue::from(2i64)]),
                    ),
                ]),
            ),
            ("alpha", JsonValue::from("last")),
        ]);
        let text = v.to_json();
        assert_eq!(
            text,
            r#"{"zebra":1,"inner":{"b":true,"a":[null,2]},"alpha":"last"}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_serialize_and_parse() {
        let v = JsonValue::array([
            JsonValue::Float(1.5),
            JsonValue::Float(0.001),
            JsonValue::Float(3.0), // integral float keeps a decimal point
            JsonValue::Float(-2.25e10),
        ]);
        let text = v.to_json();
        assert_eq!(text, "[1.5,0.001,3.0,-22500000000.0]");
        let back = parse(&text).unwrap();
        let vals: Vec<f64> = back
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(vals, vec![1.5, 0.001, 3.0, -2.25e10]);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let v = JsonValue::array([JsonValue::Float(f64::NAN), JsonValue::Float(f64::INFINITY)]);
        assert_eq!(v.to_json(), "[null,null]");
    }

    #[test]
    fn large_u64_survives() {
        let v = JsonValue::from(u64::MAX);
        let text = v.to_json();
        assert_eq!(text, "18446744073709551615");
        assert_eq!(parse(&text).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn pretty_output_is_parseable_and_indented() {
        let v = JsonValue::object([
            ("rows", JsonValue::array([JsonValue::from(1u32)])),
            ("name", JsonValue::from("table1")),
        ]);
        let text = v.to_json_pretty();
        assert!(text.contains("\n  \"rows\": [\n    1\n  ],\n"));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
    }

    #[test]
    fn option_conversion() {
        assert_eq!(JsonValue::from(None::<u32>), JsonValue::Null);
        assert_eq!(JsonValue::from(Some(3u32)), JsonValue::UInt(3));
    }

    #[test]
    fn ndjson_line_is_single_line_and_round_trips() {
        let v = JsonValue::object([
            ("type", JsonValue::from("session")),
            ("text", JsonValue::from("embedded\nnewline")),
        ]);
        let line = v.to_ndjson_line();
        assert!(line.ends_with('\n'));
        // The embedded newline is escaped — exactly one physical line.
        assert_eq!(line.matches('\n').count(), 1);
        let back = parse_ndjson(&line).unwrap();
        assert_eq!(back, vec![v]);
    }

    #[test]
    fn ndjson_parses_stream_and_skips_blank_lines() {
        let input = "{\"a\":1}\n\n{\"a\":2}\n{\"a\":3}\n";
        let values = parse_ndjson(input).unwrap();
        assert_eq!(values.len(), 3);
        assert_eq!(values[2].get("a").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn ndjson_rejects_any_invalid_line_with_its_number() {
        let input = "{\"ok\":true}\n{\"torn\":\n{\"ok\":true}\n";
        let err = parse_ndjson(input).unwrap_err();
        assert_eq!(err.line, 2);
        // Multi-line documents are invalid NDJSON by construction.
        assert!(parse_ndjson("{\n\"a\": 1\n}\n").is_err());
        assert!(parse_ndjson("{\"a\":1} trailing\n").is_err());
    }

    #[test]
    fn ndjson_writer_batches_flushes() {
        let mut w = NdjsonWriter::new(Vec::new());
        let line = "{\"k\":1}\n";
        let threshold = NdjsonWriter::<Vec<u8>>::DEFAULT_FLUSH_BYTES;
        let below = threshold / line.len() - 1;
        let batch = line.repeat(below);
        w.write_batch(&batch, below as u64).unwrap();
        // Records short of the threshold stay in one batch: nothing flushed.
        assert_eq!(w.lines(), below as u64);
        assert_eq!(w.flushes(), 0);
        w.write_batch(&line.repeat(2), 2).unwrap();
        assert_eq!(w.flushes(), 1, "crossing the threshold must flush");
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(parse_ndjson(&text).unwrap().len(), below + 2);
    }

    #[test]
    fn ndjson_writer_accepts_preserialized_batches() {
        let mut w = NdjsonWriter::new(Vec::new());
        let batch = "{\"n\":1}\n{\"n\":2}\n";
        w.write_batch(batch, 2).unwrap();
        assert_eq!(w.lines(), 2);
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(parse_ndjson(&text).unwrap().len(), 2);
    }
}
