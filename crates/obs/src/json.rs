//! A minimal JSON reader for the crate's own artifacts.
//!
//! The workspace is offline (no `serde`), but the CI schema check and the
//! determinism tests need to *read* `metrics.json`, not just write it.
//! This is a small recursive-descent parser covering exactly the JSON this
//! crate emits plus the standard escapes — enough to validate any
//! conforming artifact, not a general-purpose library.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Numbers keep integer precision when they have no
/// fraction or exponent (counters can exceed 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer-valued number.
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (keys sorted by `BTreeMap`).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The integer value, if this is an integer-valued number.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// Why parsing failed, with a byte offset for context.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What was expected or found.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so hostile input (a checkpoint or reference file full of
/// `[`) must fail with a [`ParseError`] rather than overflow the stack. The
/// artifacts this workspace writes nest fewer than ten levels deep.
const MAX_DEPTH: usize = 128;

/// Parses `input` as a single JSON value (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
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

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Runs one array/object parser one nesting level down, refusing to
    /// go past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, ParseError>,
    ) -> Result<JsonValue, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                // Duplicate keys would silently drop data (last-wins); the
                // artifacts this parser validates never emit them, so treat
                // any as corruption rather than guessing which value wins.
                return Err(self.err(&format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar; the input is a &str, so byte
                    // boundaries are valid.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i128>()
                .map(JsonValue::Int)
                .map_err(|_| self.err("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-42").unwrap(), JsonValue::Int(-42));
        assert_eq!(parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            JsonValue::Str("a\nb".to_string())
        );
        // Integer precision beyond f64.
        assert_eq!(
            parse("18446744073709551615").unwrap().as_int(),
            Some(18446744073709551615)
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": 2}], "c": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_int(), Some(1));
        assert_eq!(a[1].get("b").unwrap().as_int(), Some(2));
        assert!(v.get("c").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // A million open brackets must be a ParseError, not a stack
        // overflow.
        let hostile = "[".repeat(1_000_000);
        let err = parse(&hostile).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        // Objects count toward the same limit.
        let err = parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Exactly MAX_DEPTH levels still parse.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn rejects_duplicate_object_keys() {
        let err = parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        // Nested objects are checked too.
        assert!(parse(r#"{"outer": {"x": 1, "x": 1}}"#).is_err());
        // Same key at different depths is fine.
        assert!(parse(r#"{"a": {"a": 1}}"#).is_ok());
    }

    #[test]
    fn round_trips_recorder_output() {
        let r = crate::Recorder::new();
        r.counter_add("c\"quoted\"", 7);
        r.record("h", 3);
        r.timing_record("t", 9);
        let v = parse(&r.to_json(true)).expect("recorder JSON parses");
        assert_eq!(
            v.get("counters").unwrap().get("c\"quoted\"").unwrap(),
            &JsonValue::Int(7)
        );
        assert_eq!(
            v.get("timings")
                .unwrap()
                .get("t")
                .unwrap()
                .get("total_ns")
                .unwrap()
                .as_int(),
            Some(9)
        );
    }
}
