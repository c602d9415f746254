//! Minimal self-contained JSON: a [`Value`] tree, a recursive-descent
//! parser, and compact serialization via [`std::fmt::Display`].
//!
//! The build environment is air-gapped (no `serde`), so corpus specs and
//! batch reports speak JSON through this module instead. It covers the full
//! JSON grammar except non-BMP `\u` escape pairs, which no spec field needs.
//!
//! # Examples
//!
//! ```
//! use epgs_corpus::json::Value;
//!
//! let v = Value::parse(r#"{"name": "demo", "sizes": [4, 8]}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Value::as_str), Some("demo"));
//! assert_eq!(v.get("sizes").unwrap().as_arr().unwrap().len(), 2);
//! // Serialization round-trips.
//! assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
//! ```

use std::fmt;

/// Largest integer a JSON number can carry faithfully (2^53 − 1, JS's
/// `Number.MAX_SAFE_INTEGER`). Above this the `f64` backing loses
/// precision; 2^53 itself is excluded because 2^53 + 1 rounds *onto* it,
/// making a parsed 2^53 ambiguous.
pub const MAX_SAFE_INT: u64 = (1 << 53) - 1;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved (and serialized).
    Obj(Vec<(String, Value)>),
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first offending byte.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a `usize`, if it is a non-negative integer
    /// in range (the bound is exclusive: `u64::MAX as f64` rounds up to
    /// 2^64, which must not saturate through the cast).
    pub fn as_usize(&self) -> Option<usize> {
        let x = self.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64).then_some(x as usize)
    }

    /// The numeric payload as a `u64`, if it is a non-negative integer in
    /// range (exclusive bound, as for [`Value::as_usize`]).
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64).then_some(x as u64)
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value list, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// First field named `key`, if this is an `Obj` that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) => {
                if !x.is_finite() {
                    // JSON has no inf/NaN literal; follow JS's stringify.
                    f.write_str("null")
                } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Value::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let mut buf = String::with_capacity(s.len() + 2);
    push_escaped(&mut buf, s);
    f.write_str(&buf)
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
fn push_escaped(out: &mut String, s: &str) {
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

/// Incremental push-style JSON writer with automatic comma and nesting
/// bookkeeping — the serialization half shared by batch reports, on-disk
/// artifacts, and the serve protocol (the parsing half is [`Value::parse`]).
///
/// Containers open with [`Writer::begin_obj`] / [`Writer::begin_arr`] and
/// close with the matching `end_*`; object entries are a [`Writer::key`]
/// followed by exactly one value. [`Writer::finish`] returns the document
/// and asserts every container was closed.
///
/// Numbers above [`MAX_SAFE_INT`] cannot ride a JSON number faithfully;
/// write them with [`Writer::hex`], which emits the fixed-width hex string
/// convention the artifact layer uses for `u64` hashes and `f64` bit
/// patterns.
///
/// # Examples
///
/// ```
/// use epgs_corpus::json::{Value, Writer};
///
/// let mut w = Writer::new();
/// w.begin_obj();
/// w.field_str("name", "demo");
/// w.key("sizes");
/// w.begin_arr();
/// w.uint(4);
/// w.uint(8);
/// w.end_arr();
/// w.end_obj();
/// let doc = w.finish();
/// assert_eq!(doc, r#"{"name":"demo","sizes":[4,8]}"#);
/// assert!(Value::parse(&doc).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// One frame per open container: `true` once it holds an element.
    stack: Vec<bool>,
    /// A key was written and its value has not started yet.
    pending_key: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer whose output buffer is pre-sized for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            out: String::with_capacity(capacity),
            ..Writer::default()
        }
    }

    /// Comma/position bookkeeping before any value is emitted.
    fn before_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
        } else if let Some(has_items) = self.stack.last_mut() {
            if *has_items {
                self.out.push(',');
            }
            *has_items = true;
        }
    }

    /// Opens an object value.
    pub fn begin_obj(&mut self) {
        self.before_value();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        debug_assert!(!self.pending_key, "key written without a value");
        self.stack.pop().expect("end_obj without begin_obj");
        self.out.push('}');
    }

    /// Opens an array value.
    pub fn begin_arr(&mut self) {
        self.before_value();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.stack.pop().expect("end_arr without begin_arr");
        self.out.push(']');
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, k: &str) {
        debug_assert!(!self.pending_key, "two keys in a row");
        if let Some(has_items) = self.stack.last_mut() {
            if *has_items {
                self.out.push(',');
            }
            *has_items = true;
        }
        push_escaped(&mut self.out, k);
        self.out.push(':');
        self.pending_key = true;
    }

    /// Writes a string value (escaped).
    pub fn string(&mut self, s: &str) {
        self.before_value();
        push_escaped(&mut self.out, s);
    }

    /// Writes a non-negative integer value. Callers must keep values at or
    /// below [`MAX_SAFE_INT`] (use [`Writer::hex`] beyond); this is
    /// debug-asserted, not checked in release builds.
    pub fn uint(&mut self, n: u64) {
        debug_assert!(n <= MAX_SAFE_INT, "{n} exceeds MAX_SAFE_INT; use hex()");
        self.before_value();
        self.out.push_str(&n.to_string());
    }

    /// Writes a number with [`Value`]'s serialization rules (integral
    /// values drop the fraction; non-finite values become `null`).
    pub fn number(&mut self, x: f64) {
        self.before_value();
        let mut buf = String::new();
        {
            use fmt::Write as _;
            write!(buf, "{}", Value::Num(x)).expect("write to String");
        }
        self.out.push_str(&buf);
    }

    /// Writes a number rounded to `decimals` fraction digits (report
    /// fields that should stay tidy rather than bit-exact).
    pub fn fixed(&mut self, x: f64, decimals: usize) {
        self.before_value();
        if x.is_finite() {
            self.out.push_str(&format!("{x:.decimals$}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, b: bool) {
        self.before_value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    /// Writes a `u64` as a fixed-width 16-digit hex string — the lossless
    /// convention for hashes and `f64` bit patterns (which JSON numbers
    /// above 2^53 would silently round).
    pub fn hex(&mut self, n: u64) {
        self.before_value();
        self.out.push_str(&format!("\"{n:016x}\""));
    }

    /// Splices a pre-rendered JSON fragment in as one value. The caller
    /// guarantees `fragment` is itself valid JSON.
    pub fn raw(&mut self, fragment: &str) {
        self.before_value();
        self.out.push_str(fragment);
    }

    /// Writes a parsed [`Value`] tree as one value.
    pub fn value(&mut self, v: &Value) {
        self.before_value();
        let mut buf = String::new();
        {
            use fmt::Write as _;
            write!(buf, "{v}").expect("write to String");
        }
        self.out.push_str(&buf);
    }

    /// `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// `key` + unsigned integer value.
    pub fn field_uint(&mut self, k: &str, n: u64) {
        self.key(k);
        self.uint(n);
    }

    /// `key` + number value.
    pub fn field_number(&mut self, k: &str, x: f64) {
        self.key(k);
        self.number(x);
    }

    /// `key` + fixed-precision number value.
    pub fn field_fixed(&mut self, k: &str, x: f64, decimals: usize) {
        self.key(k);
        self.fixed(x, decimals);
    }

    /// `key` + boolean value.
    pub fn field_bool(&mut self, k: &str, b: bool) {
        self.key(k);
        self.boolean(b);
    }

    /// `key` + fixed-width hex string value.
    pub fn field_hex(&mut self, k: &str, n: u64) {
        self.key(k);
        self.hex(n);
    }

    /// `key` + pre-rendered JSON fragment.
    pub fn field_raw(&mut self, k: &str, fragment: &str) {
        self.key(k);
        self.raw(fragment);
    }

    /// Finishes the document and returns it.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open or a key is missing its value —
    /// an incomplete document is a caller bug, never valid output.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed container");
        assert!(!self.pending_key, "key written without a value");
        self.out
    }
}

/// Maximum container-nesting depth [`Value::parse`] accepts: beyond this,
/// recursive descent would risk overflowing the stack (and aborting the
/// process) instead of returning a [`JsonError`].
pub const MAX_NESTING_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            Err(self.err(format!("nesting deeper than {MAX_NESTING_DEPTH}")))
        } else {
            Ok(())
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.descend()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.descend()?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                // from_str_radix tolerates a sign, JSON
                                // does not: every byte must be a hex digit.
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape unsupported"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Consume the whole run of plain bytes at once. It ends
                    // at an ASCII byte or the end of input, so it is a
                    // whole number of UTF-8 characters, and each byte is
                    // validated once.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&c| c < 0x20 || c == b'"' || c == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    /// Consumes a run of digits; errors if there is none (JSON requires at
    /// least one digit in every int/frac/exp part).
    fn digits(&mut self, part: &str) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err(format!("expected digit in number {part}")))
        } else {
            Ok(self.pos - start)
        }
    }

    /// Strict JSON number grammar — Rust's lenient `f64` parser would also
    /// accept `01`, `1.`, or `.5`, which conforming JSON tools reject.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits("integer part")?;
        let leading_zero = self.bytes[self.pos - int_digits] == b'0';
        if leading_zero && int_digits > 1 {
            return Err(self.err("leading zeros are not allowed"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("fraction")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        match text.parse::<f64>() {
            // Overflowing literals parse to ±inf, which could never be
            // re-serialized as JSON: reject them here instead.
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => Err(self.err(format!("invalid number '{text}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(Value::parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(
            Value::parse(r#""hi\n\"there\"""#).unwrap(),
            Value::Str("hi\n\"there\"".into())
        );
        assert_eq!(Value::parse(r#""\u00e9""#).unwrap(), Value::Str("é".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_usize(), Some(1));
        assert_eq!(a[1].get("b"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "nul",
            "\u{1}\"x\"",
            "\"\\q\"",
            // Overflows to inf, which JSON cannot represent.
            "1e999",
            // from_str_radix would tolerate the sign; JSON must not.
            "\"\\u+041\"",
            "\"\\u-041\"",
            // Rust's f64 parser tolerates these; the JSON grammar does not.
            "01",
            "1.",
            "1.e3",
            "00.5",
            "-",
            "1e",
            "1e+",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
        // Strictness must not over-reject valid numbers.
        for good in ["0", "-0.5", "10", "1.25e-3", "0e0"] {
            assert!(Value::parse(good).is_ok(), "should accept {good:?}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let e = Value::parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        // Depth within the bound still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn error_carries_offset() {
        let e = Value::parse("[1, !]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn strings_keep_multibyte_runs_and_escapes_between_plain_runs() {
        assert_eq!(
            Value::parse("\"Ψ⟩ é 🚀 ok\"").unwrap(),
            Value::Str("Ψ⟩ é 🚀 ok".into())
        );
        assert_eq!(
            Value::parse(r#""ab\ncd\"é\\éxy""#).unwrap(),
            Value::Str("ab\ncd\"é\\éxy".into())
        );
        let e = Value::parse("\"é\u{1}\"").unwrap_err();
        assert_eq!(e.message, "unescaped control character");
        assert_eq!(e.offset, 3, "offset of the control byte");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "é0123456789abcdef".repeat((2usize << 20).div_ceil(18));
        assert!(body.len() >= 2 << 20);
        let doc = format!("[\"{body}\",\"x\\ty\"]");
        let start = std::time::Instant::now();
        let v = Value::parse(&doc).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "a 2 MiB string took {:?}",
            start.elapsed()
        );
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some(body.as_str()));
        assert_eq!(items[1].as_str(), Some("x\ty"));
    }

    #[test]
    fn serialization_round_trips() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("x\"y\\z\n".into())),
            (
                "grid".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Num(2.5), Value::Bool(true)]),
            ),
            ("none".into(), Value::Null),
        ]);
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap(), v);
        // Integers serialize without a trailing ".0" so reports stay tidy.
        assert!(text.contains("\"grid\":[1,2.5,true]"));
    }

    #[test]
    fn integer_accessors_reject_fractions_and_negatives() {
        assert_eq!(Value::Num(3.5).as_usize(), None);
        assert_eq!(Value::Num(-2.0).as_u64(), None);
        assert_eq!(Value::Num(7.0).as_usize(), Some(7));
        assert_eq!(Value::Str("7".into()).as_usize(), None);
    }

    #[test]
    fn writer_produces_parseable_documents_with_correct_commas() {
        let mut w = Writer::new();
        w.begin_obj();
        w.field_str("name", "a\"b\\c\nd");
        w.field_uint("count", 3);
        w.key("items");
        w.begin_arr();
        w.uint(1);
        w.string("two");
        w.boolean(false);
        w.null();
        w.begin_obj();
        w.field_fixed("pi", std::f64::consts::PI, 3);
        w.end_obj();
        w.end_arr();
        w.field_hex("hash", 0xdead_beef);
        w.field_raw("nested", "{\"x\":1}");
        w.end_obj();
        let doc = w.finish();
        let v = Value::parse(&doc).expect("writer output parses");
        assert_eq!(v.get("name").and_then(Value::as_str), Some("a\"b\\c\nd"));
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("items").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(
            v.get("hash").and_then(Value::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("x"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert!(doc.contains("\"pi\":3.142"));
    }

    #[test]
    fn writer_matches_value_display_for_shared_shapes() {
        // The artifact checksum relies on Writer output and a re-serialized
        // parsed Value agreeing byte for byte on integer/hex/string shapes.
        let mut w = Writer::new();
        w.begin_obj();
        w.field_uint("n", 42);
        w.key("xs");
        w.begin_arr();
        w.hex(7);
        w.string("s");
        w.end_arr();
        w.end_obj();
        let doc = w.finish();
        assert_eq!(Value::parse(&doc).unwrap().to_string(), doc);
    }

    #[test]
    fn writer_top_level_scalars_and_numbers() {
        let mut w = Writer::new();
        w.number(2.5);
        assert_eq!(w.finish(), "2.5");
        let mut w = Writer::new();
        w.number(4.0);
        assert_eq!(w.finish(), "4", "integral floats drop the fraction");
        let mut w = Writer::new();
        w.number(f64::NAN);
        assert_eq!(w.finish(), "null");
        let mut w = Writer::new();
        w.fixed(f64::INFINITY, 2);
        assert_eq!(w.finish(), "null");
    }

    #[test]
    #[should_panic(expected = "unclosed container")]
    fn writer_rejects_unclosed_containers() {
        let mut w = Writer::new();
        w.begin_obj();
        let _ = w.finish();
    }

    #[test]
    fn integer_accessors_reject_out_of_range_values() {
        // u64::MAX as f64 rounds UP to 2^64: accepting it would saturate
        // through the cast, so the bound is exclusive.
        assert_eq!(Value::Num(u64::MAX as f64).as_u64(), None);
        assert_eq!(Value::Num(1.0e20).as_u64(), None);
        // Exactly representable in-range powers of two still pass.
        assert_eq!(Value::Num((1u64 << 62) as f64).as_u64(), Some(1 << 62));
        assert_eq!(Value::Num(MAX_SAFE_INT as f64).as_u64(), Some(MAX_SAFE_INT));
    }
}
