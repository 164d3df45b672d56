//! A minimal self-contained JSON tree: writer **and** parser.
//!
//! The workspace's vendored `serde_json` renders results for archiving but
//! deliberately has no parser, which is fine for write-only experiment
//! archives. Checkpoint/resume needs the round trip: a sweep frozen by one
//! process must be reloaded — byte-exactly — by another. This module keeps
//! that round trip honest with two properties the checkpoint layer depends
//! on:
//!
//! * **Numbers are raw literals.** [`Json::Number`] stores the literal text,
//!   so `u64` seeds and RNG block counters never pass through `f64` (which
//!   silently truncates above 2^53). Writing a parsed number re-emits the
//!   original literal unchanged.
//! * **Floats round-trip exactly.** `f64` values are rendered with Rust's
//!   shortest round-trip `Display`, so `literal.parse::<f64>()` recovers the
//!   identical bit pattern.
//!
//! The parser is also the daemon's wire codec, so it must stay panic-free on
//! untrusted bytes: nesting is bounded by [`MAX_DEPTH`] (a deeply nested
//! `[[[[…]]]]` payload returns a [`ParseError`] instead of overflowing the
//! stack), and duplicate object keys are rejected at parse time — two
//! `"rounds"` keys in a corrupt archive are corruption, not a choice for
//! [`Json::get`] to resolve silently.
//!
//! Typed values cross into and out of the tree through one trait,
//! [`JsonCodec`]: every checkpoint-archive record, shard-output file, and
//! `harpd` frame or job record implements it, most of them through the
//! [`json_record!`](crate::json_record) macro. Decoding treats its input as
//! untrusted, and a failure is a [`DecodeError`] naming the path to the
//! offending value (`campaigns[0].words[1].rng.cursor`).

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A parsed or constructed JSON value.
///
/// Objects preserve insertion order (they are association lists, not maps),
/// so a value rendered, parsed, and re-rendered is byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw literal text (e.g. `"18446744073709551615"`).
    Number(String),
    /// A string (unescaped content).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as an ordered association list.
    Object(Vec<(String, Json)>),
}

/// Maximum container nesting depth [`Json::parse`] accepts.
///
/// Checkpoint archives nest a handful of levels and wire frames even fewer;
/// 128 is far above any legitimate payload while keeping the recursive
/// parser's stack usage bounded on adversarial input.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// A render-side failure: a float with no JSON representation (NaN or ±∞).
///
/// This is a *typed* error so render paths that handle untrusted or
/// computed values — the daemon's snapshot and `RESULT.json` frames — can
/// surface it as a failed job instead of panicking a worker thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFiniteFloat {
    /// The offending value.
    pub value: f64,
}

impl std::fmt::Display for NonFiniteFloat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON cannot represent {}", self.value)
    }
}

impl std::error::Error for NonFiniteFloat {}

impl Json {
    /// Builds a number from an unsigned integer without loss.
    pub fn from_u64(value: u64) -> Self {
        Json::Number(value.to_string())
    }

    /// Builds a number from a finite `f64` using the shortest representation
    /// that parses back to the identical value.
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteFloat`] for NaN and ±∞.
    pub fn try_from_f64(value: f64) -> Result<Self, NonFiniteFloat> {
        if !value.is_finite() {
            return Err(NonFiniteFloat { value });
        }
        Ok(Json::Number(format!("{value}")))
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(raw) => raw.parse().ok(),
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key in an object. Parsed objects never hold duplicate keys
    /// ([`Json::parse`] rejects them); for hand-constructed objects the first
    /// match wins.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(raw) => out.push_str(raw),
            Json::Str(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text into a tree.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input or trailing garbage —
    /// including containers nested deeper than [`MAX_DEPTH`] and objects
    /// with duplicate keys.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_whitespace(&mut self) {
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

    fn expect_byte(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn expect_literal(&mut self, literal: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    fn parse_value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Charges one level of the nesting budget for the duration of a
    /// container body. The recursion this bounds is `parse_value` →
    /// `parse_array`/`parse_object` → `parse_value`; without the budget a
    /// deeply nested input aborts the process via stack overflow instead of
    /// returning an error.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn parse_array(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'{')?;
        self.enter()?;
        let mut entries: Vec<(String, Json)> = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            if entries.iter().any(|(existing, _)| *existing == key) {
                return Err(self.error(&format!("duplicate key \"{key}\" in object")));
            }
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain (non-escape, non-quote) bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and the run breaks only at ASCII
                // bytes, so the slice lies on char boundaries.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            // lint:allow(panic) the scanned range contains only ASCII digits, sign, dot, and exponent bytes
            .expect("number literals are ASCII");
        Ok(Json::Number(raw.to_owned()))
    }
}

/// A decode failure: the path from the document root to the offending value
/// and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Object keys and array indices from the root, e.g.
    /// `campaigns[0].words[1].rng.cursor`; empty for the root itself.
    pub path: String,
    /// What was wrong with the value.
    pub message: String,
}

impl DecodeError {
    /// An error at the value being decoded.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            path: String::new(),
            message: message.into(),
        }
    }

    /// The same error, seen from the object holding the value under `key`.
    #[must_use]
    pub fn at_key(self, key: &str) -> Self {
        self.within(key)
    }

    /// The same error, seen from the array holding the value at `index`.
    #[must_use]
    pub fn at_index(self, index: usize) -> Self {
        self.within(&format!("[{index}]"))
    }

    fn within(mut self, segment: &str) -> Self {
        let separator = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{segment}{separator}{}", self.path);
        self
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ParseError> for DecodeError {
    fn from(err: ParseError) -> Self {
        DecodeError::new(err.to_string())
    }
}

/// The one JSON codec: every checkpoint-archive record, shard-output file,
/// and `harpd` frame converts to and from [`Json`] through this trait.
///
/// Encoding fails only on a float JSON cannot represent, so render paths
/// that must not panic report NaN and ±∞ as a [`NonFiniteFloat`]. Decoding
/// treats its input as untrusted: a missing key, a mistyped value, or a
/// value outside its type's range is a [`DecodeError`], never a panic.
pub trait JsonCodec: Sized {
    /// Encodes `self` as a JSON value.
    ///
    /// # Errors
    ///
    /// Returns the first non-finite float met.
    fn to_json(&self) -> Result<Json, NonFiniteFloat>;

    /// Decodes a value written by [`JsonCodec::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the path to the first bad value.
    fn from_json(json: &Json) -> Result<Self, DecodeError>;
}

/// Describes a value for an error message: a number by its literal, any
/// other value by its kind.
fn describe(json: &Json) -> String {
    match json {
        Json::Null => "null".to_owned(),
        Json::Bool(_) => "a bool".to_owned(),
        Json::Number(raw) => raw.clone(),
        Json::Str(_) => "a string".to_owned(),
        Json::Array(_) => "an array".to_owned(),
        Json::Object(_) => "an object".to_owned(),
    }
}

fn expected(what: &str, found: &Json) -> DecodeError {
    DecodeError::new(format!("expected {what}, found {}", describe(found)))
}

/// Decodes the value under `key` of an object: the building block of record
/// decoders. A missing key is an error.
///
/// # Errors
///
/// Returns a [`DecodeError`] when `json` is not an object, lacks `key`, or
/// holds a value `T` cannot decode.
pub fn field<T: JsonCodec>(json: &Json, key: &str) -> Result<T, DecodeError> {
    optional_field(json, key)?.ok_or_else(|| DecodeError::new(format!("missing key '{key}'")))
}

/// Decodes the value under `key` of an object, or `None` when the key is
/// absent.
///
/// # Errors
///
/// Returns a [`DecodeError`] when `json` is not an object or holds a value
/// `T` cannot decode.
pub fn optional_field<T: JsonCodec>(json: &Json, key: &str) -> Result<Option<T>, DecodeError> {
    if !matches!(json, Json::Object(_)) {
        return Err(expected("an object", json));
    }
    json.get(key)
        .map(|value| T::from_json(value).map_err(|e| e.at_key(key)))
        .transpose()
}

/// Checks a record's constant leading entry: its schema version or its
/// frame type.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the entry is missing or holds another
/// value.
pub fn check_tag(json: &Json, key: &str, tag: &Json) -> Result<(), DecodeError> {
    let found: Json = field(json, key)?;
    if found == *tag {
        Ok(())
    } else {
        Err(DecodeError::new(format!(
            "expected {}, found {}",
            tag.render(),
            describe(&found)
        ))
        .at_key(key))
    }
}

/// Decodes a string naming one of a fixed set of values (a profiler kind, a
/// data pattern, a job state); `what` names the set in the error.
///
/// # Errors
///
/// Returns a [`DecodeError`] for a non-string or an unknown name.
pub fn named<T>(
    json: &Json,
    what: &str,
    lookup: impl FnOnce(&str) -> Option<T>,
) -> Result<T, DecodeError> {
    let name = json.as_str().ok_or_else(|| expected("a string", json))?;
    lookup(name).ok_or_else(|| DecodeError::new(format!("unknown {what} '{name}'")))
}

impl From<u64> for Json {
    fn from(value: u64) -> Self {
        Json::from_u64(value)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Self {
        Json::Str(value.to_owned())
    }
}

impl JsonCodec for Json {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        Ok(self.clone())
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        Ok(json.clone())
    }
}

/// Unsigned integers decode from exact literals only: no sign, fraction,
/// exponent, or value past the type's range.
macro_rules! unsigned_codec {
    ($($ty:ty),*) => {$(
        impl JsonCodec for $ty {
            fn to_json(&self) -> Result<Json, NonFiniteFloat> {
                Ok(Json::Number(self.to_string()))
            }

            fn from_json(json: &Json) -> Result<Self, DecodeError> {
                match json {
                    Json::Number(raw) => raw.parse().ok(),
                    _ => None,
                }
                .ok_or_else(|| expected(concat!("a ", stringify!($ty)), json))
            }
        }
    )*};
}

unsigned_codec!(u32, u64, usize);

impl JsonCodec for f64 {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        Json::try_from_f64(*self)
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        json.as_f64().ok_or_else(|| expected("a number", json))
    }
}

impl JsonCodec for String {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        Ok(Json::Str(self.clone()))
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        json.as_str()
            .map(str::to_owned)
            .ok_or_else(|| expected("a string", json))
    }
}

/// `None` is `null`. A record field that is omitted when `None` is declared
/// in [`json_record!`](crate::json_record)'s `optional` list instead.
impl<T: JsonCodec> JsonCodec for Option<T> {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        self.as_ref().map_or(Ok(Json::Null), T::to_json)
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        match json {
            Json::Null => Ok(None),
            value => T::from_json(value).map(Some),
        }
    }
}

/// Decodes every item of a JSON array, each error naming its index.
fn decode_items<'a, T: JsonCodec + 'a, C: FromIterator<T>>(
    json: &'a Json,
) -> Result<C, DecodeError> {
    json.as_array()
        .ok_or_else(|| expected("an array", json))?
        .iter()
        .enumerate()
        .map(|(index, item)| T::from_json(item).map_err(|e| e.at_index(index)))
        .collect()
}

fn encode_items<'a, T: JsonCodec + 'a>(
    items: impl ExactSizeIterator<Item = &'a T>,
) -> Result<Json, NonFiniteFloat> {
    // Sized up front: collecting through `Result` would lose the length
    // hint, and archives are mostly arrays of small sets.
    let mut array = Vec::with_capacity(items.len());
    for item in items {
        array.push(item.to_json()?);
    }
    Ok(Json::Array(array))
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        encode_items(self.iter())
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        decode_items(json)
    }
}

impl<T: JsonCodec + Ord> JsonCodec for BTreeSet<T> {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        encode_items(self.iter())
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        decode_items(json)
    }
}

impl<T: JsonCodec, const N: usize> JsonCodec for [T; N] {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        encode_items(self.iter())
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        let items: Vec<T> = decode_items(json)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DecodeError::new(format!("expected {N} items, found {len}")))
    }
}

/// Implements [`JsonCodec`](crate::minijson::JsonCodec) for a plain record
/// struct: one object entry per listed field, in the listed order, each
/// through the field type's own codec.
///
/// * `as "key": TAG` puts a constant entry first — a schema version or a
///   frame type — which decoding checks before it reads any field;
/// * `optional { … }` appends `Option` fields that are omitted when `None`
///   (an `Option` in the main list encodes `None` as `null`);
/// * `where CHECK` runs `CHECK(&decoded) -> Result<(), String>` on the
///   decoded record, for invariants across fields or beyond their types.
///
/// ```
/// use harp_sim::json_record;
/// use harp_sim::minijson::{Json, JsonCodec};
///
/// #[derive(Debug, PartialEq)]
/// struct Status {
///     job: u64,
///     message: Option<String>,
/// }
/// json_record!(Status as "type": "status" { job } optional { message });
///
/// let status = Status { job: 7, message: None };
/// let json = status.to_json()?;
/// assert_eq!(json.render(), r#"{"type":"status","job":7}"#);
/// assert_eq!(Status::from_json(&json)?, status);
/// assert!(Status::from_json(&Json::parse(r#"{"type":"job","job":7}"#)?).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[macro_export]
macro_rules! json_record {
    (
        $ty:ty $(as $tag:literal : $tag_value:tt)? { $($field:ident),* $(,)? }
        $(optional { $($optional:ident),* $(,)? })?
        $(where $check:path)?
    ) => {
        impl $crate::minijson::JsonCodec for $ty {
            fn to_json(
                &self,
            ) -> ::std::result::Result<$crate::minijson::Json, $crate::minijson::NonFiniteFloat> {
                #[allow(unused_mut)]
                let mut entries: ::std::vec::Vec<(::std::string::String, $crate::minijson::Json)> = vec![
                    $(($tag.to_owned(), $crate::minijson::Json::from($tag_value)),)?
                    $((
                        stringify!($field).to_owned(),
                        $crate::minijson::JsonCodec::to_json(&self.$field)?,
                    ),)*
                ];
                $($(
                    if let Some(value) = &self.$optional {
                        entries.push((
                            stringify!($optional).to_owned(),
                            $crate::minijson::JsonCodec::to_json(value)?,
                        ));
                    }
                )*)?
                Ok($crate::minijson::Json::Object(entries))
            }

            fn from_json(
                json: &$crate::minijson::Json,
            ) -> ::std::result::Result<Self, $crate::minijson::DecodeError> {
                $($crate::minijson::check_tag(json, $tag, &$crate::minijson::Json::from($tag_value))?;)?
                let record = Self {
                    $($field: $crate::minijson::field(json, stringify!($field))?,)*
                    $($($optional: $crate::minijson::optional_field(json, stringify!($optional))?,)*)?
                };
                $($check(&record).map_err($crate::minijson::DecodeError::new)?;)?
                Ok(record)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_the_scalar_values() {
        for (value, text) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::from_u64(42), "42"),
            (Json::Str("hi".into()), "\"hi\""),
        ] {
            assert_eq!(value.render(), text);
            assert_eq!(Json::parse(text).unwrap(), value);
        }
    }

    #[test]
    fn u64_round_trips_above_the_f64_integer_limit() {
        // 2^53 + 1 and u64::MAX are exactly the values an f64 detour loses.
        for value in [(1u64 << 53) + 1, u64::MAX, 0x5EED_CAFE_F00D] {
            let json = Json::from_u64(value);
            let reparsed = Json::parse(&json.render()).unwrap();
            assert_eq!(u64::from_json(&reparsed), Ok(value));
            // The raw literal is preserved verbatim.
            assert_eq!(reparsed.render(), value.to_string());
        }
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for value in [0.1, 0.25, 1.0 / 3.0, 1e-12, 123456.789, f64::MIN_POSITIVE] {
            let reparsed = Json::parse(&Json::try_from_f64(value).unwrap().render()).unwrap();
            assert_eq!(reparsed.as_f64().unwrap().to_bits(), value.to_bits());
        }
    }

    #[test]
    fn nested_structures_round_trip_byte_identically() {
        let value = Json::Object(vec![
            ("schema".into(), Json::from_u64(1)),
            (
                "words".into(),
                Json::Array(vec![
                    Json::Object(vec![
                        ("seed".into(), Json::from_u64(u64::MAX)),
                        ("bits".into(), Json::Array(vec![Json::from_u64(3)])),
                    ]),
                    Json::Null,
                ]),
            ),
            ("name".into(), Json::Str("HARP-A+BEEP \"quoted\"\n".into())),
        ]);
        let text = value.render();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed, value);
        assert_eq!(reparsed.render(), text);
    }

    #[test]
    fn accessors_navigate_objects_and_arrays() {
        let value = Json::parse(r#"{"a": [1, 2.5, "x"], "b": {"c": true}}"#).unwrap();
        let items = value.get("a").unwrap().as_array().unwrap();
        assert_eq!(usize::from_json(&items[0]), Ok(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert!(u64::from_json(&items[1]).is_err());
        assert_eq!(items[2].as_str(), Some("x"));
        assert_eq!(value.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert!(value.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("tab\t nl\n quote\" backslash\\ nul\u{1} é".into());
        let reparsed = Json::parse(&original.render()).unwrap();
        assert_eq!(reparsed, original);
        // Standard escapes from foreign writers parse too.
        assert_eq!(
            Json::parse(r#""a\/bA\b\f""#).unwrap(),
            Json::Str("a/bA\u{8}\u{c}".into())
        );
    }

    #[test]
    fn malformed_input_is_rejected_with_an_offset() {
        for bad in ["{", "[1,", "\"open", "12..5", "nul", "{\"a\" 1}", "1 2", ""] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.offset <= bad.len(), "{bad}: {err}");
        }
    }

    #[test]
    fn scientific_notation_parses_and_preserves_its_literal() {
        let parsed = Json::parse("1.5e-3").unwrap();
        assert_eq!(parsed.as_f64(), Some(0.0015));
        assert_eq!(parsed.render(), "1.5e-3");
    }

    /// Regression: render paths that cannot afford a panic (the daemon's
    /// snapshot/result frames) need a typed error for non-finite floats.
    #[test]
    fn try_from_f64_reports_non_finite_values_as_typed_errors() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Json::try_from_f64(value).unwrap_err();
            assert_eq!(err.value.to_bits(), value.to_bits());
            assert!(err.to_string().contains("cannot represent"));
        }
        assert_eq!(Json::try_from_f64(0.5), Ok(Json::Number("0.5".to_owned())));
    }

    /// Regression: before the depth budget, this input recursed once per
    /// bracket and aborted the process via stack overflow — an abort, not an
    /// `Err`, so a corrupt archive or a hostile wire payload could kill the
    /// daemon.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let depth = 100_000;
            let text = format!("{}null{}", open.repeat(depth), close.repeat(depth));
            let err = Json::parse(&text).unwrap_err();
            assert!(err.message.contains("nesting deeper"), "{err}");
        }
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let ok = format!("{}null{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!(
            "{}null{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&too_deep).is_err());
        // The budget is per-nesting-level, not cumulative: many sibling
        // containers at modest depth parse fine.
        let siblings = format!("[{}]", vec!["[[null]]"; 64].join(","));
        assert!(Json::parse(&siblings).is_ok());
    }

    /// Regression: duplicate keys used to parse silently, with [`Json::get`]
    /// returning whichever came first — so a corrupt archive carrying two
    /// `"rounds"` keys was misread instead of rejected.
    #[test]
    fn duplicate_object_keys_are_rejected() {
        for bad in [
            r#"{"rounds":1,"rounds":2}"#,
            r#"{"a":{"x":1,"x":2}}"#,
            r#"{"a":1,"b":2,"a":3}"#,
            r#"[{"k":0,"k":0}]"#,
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.message.contains("duplicate key"), "{bad}: {err}");
        }
        // The same key in *different* objects is fine.
        assert!(Json::parse(r#"{"a":{"k":1},"b":{"k":2}}"#).is_ok());
        assert!(Json::parse(r#"[{"k":1},{"k":2}]"#).is_ok());
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        key: [u32; 2],
        seen: BTreeSet<usize>,
    }
    json_record!(Inner { key, seen });

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        round: u64,
        weight: f64,
        first: Option<usize>,
        inner: Vec<Inner>,
        note: Option<String>,
    }
    json_record!(Outer as "schema": 3 { round, weight, first, inner } optional { note });

    fn outer() -> Outer {
        Outer {
            round: u64::MAX,
            weight: 0.1,
            first: None,
            inner: vec![
                Inner {
                    key: [1, u32::MAX],
                    seen: BTreeSet::new(),
                },
                Inner {
                    key: [0, 7],
                    seen: [4, 9].into_iter().collect(),
                },
            ],
            note: None,
        }
    }

    #[test]
    fn records_round_trip_through_the_codec() {
        let value = outer();
        let text = value.to_json().unwrap().render();
        assert_eq!(
            text,
            r#"{"schema":3,"round":18446744073709551615,"weight":0.1,"first":null,"inner":[{"key":[1,4294967295],"seen":[]},{"key":[0,7],"seen":[4,9]}]}"#
        );
        assert_eq!(
            Outer::from_json(&Json::parse(&text).unwrap()).unwrap(),
            value
        );
        let noted = Outer {
            first: Some(2),
            note: Some("kept".into()),
            ..value
        };
        let json = noted.to_json().unwrap();
        assert!(json.render().ends_with(r#""note":"kept"}"#));
        assert_eq!(Outer::from_json(&json).unwrap(), noted);
    }

    #[test]
    fn decode_errors_name_the_path_to_the_bad_value() {
        let good = outer().to_json().unwrap().render();
        for (from, to, path, needle) in [
            (
                r#""schema":3"#,
                r#""schema":4"#,
                "schema",
                "expected 3, found 4",
            ),
            (
                r#""round":18446744073709551615,"#,
                "",
                "",
                "missing key 'round'",
            ),
            (
                "4294967295",
                "4294967296",
                "inner[0].key[1]",
                "expected a u32",
            ),
            (
                "[0,7]",
                "[0,7,1]",
                "inner[1].key",
                "expected 2 items, found 3",
            ),
            ("[4,9]", r#"[4,"x"]"#, "inner[1].seen[1]", "found a string"),
            (
                r#""weight":0.1"#,
                r#""weight":null"#,
                "weight",
                "expected a number",
            ),
            (r#""first":null"#, r#""first":-1"#, "first", "found -1"),
        ] {
            let text = good.replacen(from, to, 1);
            let err = Outer::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert_eq!(err.path, path, "{text}: {err}");
            assert!(err.message.contains(needle), "{text}: {err}");
        }
        let err = Outer::from_json(&Json::from_u64(1)).unwrap_err();
        assert!(err.to_string().contains("expected an object"), "{err}");
    }

    #[test]
    fn non_finite_floats_fail_to_encode() {
        let err = Outer {
            weight: f64::INFINITY,
            ..outer()
        }
        .to_json()
        .unwrap_err();
        assert_eq!(err.value, f64::INFINITY);
    }
}
