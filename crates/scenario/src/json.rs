//! The workspace's one JSON codec: the [`Json`] value, its writer and
//! a recursive-descent [`parse`]r, dependency-free like the rest of the
//! workspace.
//!
//! The writer (`Display`) is the byte format every paper-facing
//! guarantee compares: run reports, sweep and shard records, NDJSON
//! service replies. The parser reads any RFC 8259 document — it is what
//! NDJSON requests from outside the process reach — so readers that need
//! the writer's exact bytes (shard records, manifest headers) parse, read
//! their fields, and then check that re-rendering reproduces the input.

use std::fmt;

/// A JSON value. Numbers are `f64` (integers are exact below 2⁵³);
/// objects keep their keys in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for |v| < 2⁵³).
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// `Some(v) → v as integer, None → null` — the shape of every
    /// "completed at slot" field.
    pub fn opt_int(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::int)
    }

    /// Member lookup on an object (first match, like every JSON
    /// implementation that tolerates duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (request ids must round-trip bit for bit).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= 9.0e15 => Some(v as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if !v.is_finite() => write!(f, "null"),
            Json::Num(v) if v.fract() == 0.0 && v.abs() < 9.0e15 => write!(f, "{}", *v as i64),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                write!(f, "{buf}")
            }
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
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    escape_into(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input line.
    pub offset: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Nesting cap: requests and records are shallow objects; anything
/// deeper than this is hostile or broken input.
const MAX_DEPTH: usize = 32;

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str, msg: &'static str) -> Result<(), ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    /// Skips a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null", "expected null").map(|()| Json::Null),
            Some(b't') => self.eat("true", "expected true").map(|()| Json::Bool(true)),
            Some(b'f') => self
                .eat("false", "expected false")
                .map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        // Every string of this grammar parses as an f64; only overflow
        // (`1e999`) leaves the finite range.
        self.src[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("number out of range"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one slice. All three are ASCII, so the run ends on
            // a char boundary.
            let rest = &self.src.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("unknown escape")),
                    });
                }
                Some(_) => return Err(self.err("raw control byte in string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a surrogate pair into one scalar.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            self.eat("\\u", "expected low surrogate")?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        // Four ASCII hex digits exactly: `from_str_radix` alone would
        // also take a sign.
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected : after key"));
            }
            self.pos += 1;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::time::{Duration, Instant};

    #[test]
    fn json_serializes_all_shapes() {
        let v = Json::Obj(vec![
            ("s".into(), Json::str("a\"b\\c\nd")),
            ("n".into(), Json::Num(1.5)),
            ("i".into(), Json::int(42)),
            ("inf".into(), Json::Num(f64::INFINITY)),
            ("none".into(), Json::Null),
            ("flag".into(), Json::Bool(true)),
            ("arr".into(), Json::Arr(vec![Json::int(1), Json::int(2)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"s":"a\"b\\c\nd","n":1.5,"i":42,"inf":null,"none":null,"flag":true,"arr":[1,2]}"#
        );
    }

    #[test]
    fn parses_a_request_shape() {
        let v = parse(r#"{"id": 3, "run": "deploy=lattice:4:4:2\n", "axes": [1, 2.5]}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("run").and_then(Json::as_str),
            Some("deploy=lattice:4:4:2\n")
        );
        assert_eq!(
            v.get("axes").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_report_output() {
        // Everything the writer emits must parse back — the replay check
        // and the shard readers depend on it.
        let line = r#"{"name":"a\"b","metrics":{"x":1.5,"y":null,"z":[true,false,-3]}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("a\"b"));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.get("x"), Some(&Json::Num(1.5)));
        assert_eq!(metrics.get("y"), Some(&Json::Null));
        assert_eq!(v.to_string(), line);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""a\n\tA😀b""#).unwrap();
        assert_eq!(v, Json::Str("a\n\tA😀b".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "nul",
            "1 2",
            "\"abc",
            "[1]]",
            "inf",
            "NaN",
            "1e999",
            "{\"a\":1,}",
            "01",
            "-01",
            "00",
            "1.",
            "1.e3",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Depth bomb.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn id_extraction_is_exact() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A spec over 1 MiB must not stall a reader: string decoding
        // once re-validated the rest of the line per character.
        let body = "key=é😀\\n".repeat(1 << 17);
        let line = format!("{{\"run\":\"{body}\"}}");
        let started = Instant::now();
        let v = parse(&line).unwrap();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "{} bytes took {took:?}",
            line.len()
        );
        let run = v.get("run").and_then(Json::as_str).unwrap();
        assert_eq!(run.len(), body.len() - (1 << 17));
    }

    /// Random values the writer can render: finite numbers (integers,
    /// negatives, any magnitude from subnormal to `f64::MAX`), strings
    /// with quotes, backslashes, control and non-BMP characters, and
    /// nesting up to depth 8.
    struct ArbJson;

    impl Strategy for ArbJson {
        type Value = Json;
        fn generate(&self, rng: &mut StdRng) -> Json {
            let depth = rng.random_range(0..=8u32);
            arb_json(rng, depth)
        }
    }

    fn arb_string(rng: &mut StdRng) -> String {
        let chars: Vec<char> = "aZ0 \"\\/\n\r\t\u{0}\u{1f}\u{7f}é\u{2028}\u{ffff}😀\u{10ffff}"
            .chars()
            .collect();
        (0..rng.random_range(0..12usize))
            .map(|_| chars[rng.random_range(0..chars.len())])
            .collect()
    }

    fn arb_num(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..4u32) {
            0 => rng.random_range(0..1u64 << 53) as f64,
            1 => -(rng.random_range(0..1u64 << 53) as f64),
            2 => rng.random_range(-1.0..1.0),
            _ => Some(f64::from_bits(rng.random()))
                .filter(|v| v.is_finite())
                .unwrap_or(f64::MAX),
        }
    }

    /// A value exactly `depth` containers deep: the first child carries
    /// the depth, its siblings stay shallow so values stay small.
    fn arb_json(rng: &mut StdRng, depth: u32) -> Json {
        if depth == 0 {
            return match rng.random_range(0..6u32) {
                0 => Json::Null,
                1 => Json::Bool(rng.random()),
                2 => Json::Num(arb_num(rng)),
                3 => Json::Str(arb_string(rng)),
                4 => Json::Arr(Vec::new()),
                _ => Json::Obj(Vec::new()),
            };
        }
        let mut kids = vec![arb_json(rng, depth - 1)];
        for _ in 0..rng.random_range(0..3usize) {
            let shallow = rng.random_range(0..2u32).min(depth - 1);
            kids.push(arb_json(rng, shallow));
        }
        if rng.random() {
            Json::Arr(kids)
        } else {
            Json::Obj(kids.into_iter().map(|v| (arb_string(rng), v)).collect())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_inverts_the_writer(v in ArbJson) {
            let text = v.to_string();
            let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            prop_assert_eq!(back.to_string(), text);
        }
    }
}
