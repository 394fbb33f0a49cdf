//! A minimal JSON tree, printer and parser.
//!
//! The workspace has no serialization framework dependency, so it carries
//! its own small text codec.  It lives in the base crate so the experiment
//! API's JSON Lines rows (`netsmith-exp`) and the trace format
//! (`netsmith-trace`) share one tree.  [`Json`] covers the full JSON data
//! model; numbers are `f64` (integers round-trip exactly up to 2^53, far
//! beyond anything a trace header stores) and are printed with Rust's
//! shortest-round-trip formatting so `parse(print(x)) == x` bit-for-bit.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts.  The parser
/// recurses once per level, so the bound keeps hostile input (a trace
/// header of 100 000 `[`) from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object as an ordered key/value list (insertion order is preserved,
    /// which keeps printed documents diffable).
    Obj(Vec<(String, Json)>),
}

/// Why [`Json::parse`] rejected a document, or why an accessor found a
/// value of another shape than it asked for.  Parse errors carry the byte
/// offset `at` into the text where the problem was found.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The input ended inside a value (an unterminated string, array or
    /// object) or before any value; `at` is the input length.
    UnexpectedEnd { at: usize },
    /// Another byte than `token` was found where `token` must appear.
    Expected { at: usize, token: &'static str },
    /// A backslash escape JSON does not define, a `\u` escape that is not
    /// four hex digits, or a UTF-16 surrogate that is not half of a pair;
    /// `at` is the backslash.
    BadEscape { at: usize },
    /// A number that breaks JSON's grammar (`+1`, `.5`, `01`, `1.`) or
    /// overflows `f64` (`1e400`).
    BadNumber { at: usize },
    /// An array or object nested more than `MAX_DEPTH` levels deep.
    TooDeep { at: usize },
    /// Non-whitespace input after the document.
    TrailingInput { at: usize },
    /// [`Json::require`] found no member with this key.
    MissingKey(String),
    /// An accessor expected one JSON type and found another.
    WrongType {
        expected: &'static str,
        found: &'static str,
    },
    /// [`Json::as_u64`] found a number that is negative, fractional or
    /// above 2^53.
    NotUnsignedInteger(f64),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::UnexpectedEnd { at } => write!(f, "unexpected end of input at byte {at}"),
            JsonError::Expected { at, token } => write!(f, "expected {token} at byte {at}"),
            JsonError::BadEscape { at } => write!(f, "invalid escape at byte {at}"),
            JsonError::BadNumber { at } => write!(f, "invalid number at byte {at}"),
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
            JsonError::TrailingInput { at } => write!(f, "trailing input at byte {at}"),
            JsonError::MissingKey(key) => write!(f, "missing key {key:?}"),
            JsonError::WrongType { expected, found } => {
                write!(f, "expected {expected}, got {found}")
            }
            JsonError::NotUnsignedInteger(n) => write!(f, "expected unsigned integer, got {n}"),
        }
    }
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object member lookup that errors with the missing key's name.
    pub fn require(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::MissingKey(key.to_string()))
    }

    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(other.wrong_type("number")),
        }
    }

    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Ok(n as u64)
        } else {
            Err(JsonError::NotUnsignedInteger(n))
        }
    }

    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(other.wrong_type("string")),
        }
    }

    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(other.wrong_type("array")),
        }
    }

    fn wrong_type(&self, expected: &'static str) -> JsonError {
        let found = match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        };
        JsonError::WrongType { expected, found }
    }

    /// Parse a JSON document.  Fails on malformed input and on arrays or
    /// objects nested more than `MAX_DEPTH` levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(JsonError::TrailingInput { at: parser.pos });
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is the shortest string that round-trips.
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; rows never emit them, but keep
                    // the printer total.
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                write!(f, "{{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// A cursor over the text being parsed.  `pos` is a byte offset and
/// always sits on a `char` boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The error for `peek()` not being what was required: the input ended,
    /// or another byte stands where `token` must.
    fn unexpected(&self, token: &'static str) -> JsonError {
        match self.peek() {
            None => JsonError::UnexpectedEnd { at: self.pos },
            Some(_) => JsonError::Expected {
                at: self.pos,
                token,
            },
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, token: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(token))
        }
    }

    /// Parse one value whose enclosing arrays/objects are `depth` deep.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(JsonError::UnexpectedEnd { at: self.pos }),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError::TooDeep { at: self.pos }),
            Some(b'{') => {
                self.pos += 1;
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
                    self.expect(b':', "':'")?;
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(self.unexpected("',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.unexpected("',' or ']'")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, lit: &'static str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(JsonError::Expected {
                at: self.pos,
                token: lit,
            })
        }
    }

    /// Skip ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Skip `byte` if it is next; returns whether it was.
    fn skip(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    /// Parse a number: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
    /// finite as an `f64`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let bad = JsonError::BadNumber { at: start };
        self.skip(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(bad);
        }
        if self.skip(b'.') && self.digits() == 0 {
            return Err(bad);
        }
        if self.skip(b'e') || self.skip(b'E') {
            let _ = self.skip(b'+') || self.skip(b'-');
            if self.digits() == 0 {
                return Err(bad);
            }
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(bad),
        }
    }

    /// The value of the four hex digits at byte `at`, if there are four.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = self.text.get(at..at + 4)?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u32::from_str_radix(hex, 16).ok()
    }

    /// Parse a string literal.  Runs of plain characters are copied as
    /// whole slices up to the next quote or backslash (both ASCII, so
    /// always `char` boundaries), which keeps a literal linear in its
    /// length.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return Err(JsonError::UnexpectedEnd { at: self.pos });
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if rest[run] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            let bad_escape = JsonError::BadEscape { at: self.pos };
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
                    let mut code = self.hex4(self.pos + 1).ok_or(bad_escape.clone())?;
                    self.pos += 4;
                    if (0xD800..0xDC00).contains(&code) {
                        // A high surrogate: the low half must follow.
                        let low = self.text[self.pos + 1..]
                            .starts_with("\\u")
                            .then(|| self.hex4(self.pos + 3))
                            .flatten()
                            .filter(|low| (0xDC00..0xE000).contains(low))
                            .ok_or(bad_escape.clone())?;
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        self.pos += 6;
                    }
                    out.push(char::from_u32(code).ok_or(bad_escape)?);
                }
                None => return Err(JsonError::UnexpectedEnd { at: self.pos }),
                Some(_) => return Err(bad_escape),
            }
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("fig06 \"quick\"\n".into())),
            (
                "loads".into(),
                Json::Arr(vec![Json::Num(0.05), Json::Num(0.3)]),
            ),
            ("quick".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            ("evals".into(), Json::Num(30_000.0)),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-12, 123_456.789, f64::MIN_POSITIVE] {
            let text = Json::Num(v).to_string();
            match Json::parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(back.to_bits(), v.to_bits(), "{v}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err, JsonError::TooDeep { at: MAX_DEPTH }, "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        let limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&limit).is_ok());
        let over = format!("[{limit}]");
        assert!(Json::parse(&over).is_err());
    }

    fn err(text: &str) -> JsonError {
        Json::parse(text).unwrap_err()
    }

    #[test]
    fn a_truncated_string_is_an_unexpected_end() {
        assert_eq!(err("\"abc"), JsonError::UnexpectedEnd { at: 4 });
        assert_eq!(err("[\"a\\"), JsonError::UnexpectedEnd { at: 4 });
        assert_eq!(err("{\"k"), JsonError::UnexpectedEnd { at: 3 });
    }

    #[test]
    fn a_bad_unicode_escape_is_rejected() {
        for text in [
            "\"\\uZZZZ\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\u12",
            "\"\\q\"",
        ] {
            assert_eq!(err(text), JsonError::BadEscape { at: 1 }, "{text}");
        }
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for text in [
            "+1", ".5", "01", "-01", "1.", "1.e5", "-", "1e", "1e+", "--1",
        ] {
            assert_eq!(err(text), JsonError::BadNumber { at: 0 }, "{text}");
        }
        assert_eq!(err("0x1"), JsonError::TrailingInput { at: 1 });
        for (text, value) in [
            ("0", 0.0),
            ("-0.5", -0.5),
            ("10", 10.0),
            ("1.25e2", 125.0),
            ("2E-1", 0.2),
            ("1e+1", 10.0),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Num(value)), "{text}");
        }
    }

    #[test]
    fn a_number_beyond_f64_is_rejected() {
        assert_eq!(err("1e400"), JsonError::BadNumber { at: 0 });
        assert_eq!(err("[-1e400]"), JsonError::BadNumber { at: 1 });
    }

    #[test]
    fn a_unicode_escape_takes_exactly_four_hex_digits() {
        for text in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\""] {
            assert_eq!(err(text), JsonError::BadEscape { at: 1 }, "{text}");
        }
    }

    #[test]
    fn a_surrogate_pair_decodes_to_one_char() {
        for text in ["\"\\ud83d\\ude00\"", "\"\\uD83D\\uDE00\""] {
            assert_eq!(
                Json::parse(text),
                Ok(Json::Str("\u{1f600}".into())),
                "{text}"
            );
        }
    }

    #[test]
    fn a_lone_surrogate_is_a_bad_escape() {
        for text in [
            "\"\\ude00\"",
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\n\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\\ud83d\"",
        ] {
            assert_eq!(err(text), JsonError::BadEscape { at: 1 }, "{text}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_too_deep() {
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(err(&over), JsonError::TooDeep { at: MAX_DEPTH });
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(matches!(err(&objects), JsonError::TooDeep { .. }));
    }

    #[test]
    fn trailing_input_is_rejected_at_its_offset() {
        assert_eq!(err("{} x"), JsonError::TrailingInput { at: 3 });
        assert_eq!(err("1 2"), JsonError::TrailingInput { at: 2 });
    }

    #[test]
    fn non_integer_as_u64_is_a_typed_error() {
        for n in [1.5, -1.0, 2f64.powi(54)] {
            assert_eq!(Json::Num(n).as_u64(), Err(JsonError::NotUnsignedInteger(n)));
        }
        let wrong = JsonError::WrongType {
            expected: "number",
            found: "string",
        };
        assert_eq!(Json::Str("7".into()).as_u64(), Err(wrong));
        let missing = JsonError::MissingKey("k".into());
        assert_eq!(Json::Obj(vec![]).require("k"), Err(missing));
    }

    #[test]
    fn a_two_mebibyte_string_parses_in_linear_time() {
        // One two-byte char and one escape per 9 bytes, so the run copy
        // and the escape path both cover the whole literal.
        let reps = (2 << 20) / 9 + 1;
        let body = "abc\u{e9}de\\n".repeat(reps);
        let text = format!("\"{body}\"");
        let start = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed, Json::Str("abc\u{e9}de\n".repeat(reps)));
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let parsed = Json::parse(" { \"a\" : [ 1 , \"b\\u0041\\n\" ] } ").unwrap();
        assert_eq!(
            parsed,
            Json::Obj(vec![(
                "a".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Str("bA\n".into())])
            )])
        );
    }
}
