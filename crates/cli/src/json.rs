//! Minimal JSON support — emission and a small parser — with no external
//! dependencies. The scanner's machine-readable output is flat and fully
//! known at compile time, so a hand-rolled emitter is simpler than a
//! serialization framework; the parser exists so tests can round-trip the
//! output instead of string-matching it.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Value::parse`] accepts. The
/// parser recurses once per level, so without a bound one request line of
/// a million `[` overflows the stack and aborts the process. 256 is the
/// IR parser's bound too (`fusion_ir::parser::MAX_NESTING`); the scanner's
/// own requests, job lines and reports nest a handful of levels.
pub const MAX_DEPTH: usize = 256;

/// Escapes `s` as the *contents* of a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A counter table's printed rows as JSON members `"key": value`, in row
/// order, joined by `sep` (`", "` on one line, `",\n  "` pretty-printed).
pub fn members(table: &dyn fusion::counters::Table, sep: &str) -> String {
    let mut out = String::new();
    table.visit(&mut |key, value| {
        if !out.is_empty() {
            out.push_str(sep);
        }
        let _ = write!(out, "\"{key}\": {value}");
    });
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as its source text: [`Value::as_f64`] reads it as a
    /// float, [`Value::as_u64`] as an exact integer (an `f64` would round
    /// integers above 2^53).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number, if this is one written as a non-negative integer that
    /// fits in `u64` (no sign, fraction or exponent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input, including
    /// arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            if !is_number(s.as_bytes()) {
                return Err(format!("invalid number `{s}` at byte {start}"));
            }
            match s.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::Num(s.to_owned())),
                _ => Err(format!("number `{s}` at byte {start} is out of range")),
            }
        }
    }
}

/// Whether `s` is a number in RFC 8259's grammar,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: no plus sign, no
/// leading zero, and digits on both sides of a decimal point.
fn is_number(s: &[u8]) -> bool {
    let digits = |i: &mut usize| {
        let from = *i;
        while s.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > from
    };
    let mut i = usize::from(s.first() == Some(&b'-'));
    match s.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return false,
    }
    if s.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(s.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == s.len()
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// Reads the four hex digits of a `\uXXXX` escape starting at `at`.
fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    let s = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape `{s}`"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let n = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        match n {
                            // High surrogate: must pair with an
                            // immediately following `\uXXXX` low
                            // surrogate; the pair combines into one
                            // astral-plane scalar. Decoding the halves
                            // independently would mangle every character
                            // above U+FFFF into two replacement chars.
                            0xD800..=0xDBFF => {
                                if b.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                    return Err(format!(
                                        "lone high surrogate \\u{n:04x} at byte {}",
                                        *pos - 4
                                    ));
                                }
                                let lo = parse_hex4(b, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(format!(
                                        "high surrogate \\u{n:04x} followed by \\u{lo:04x} \
                                         (not a low surrogate) at byte {}",
                                        *pos - 4
                                    ));
                                }
                                *pos += 6;
                                let c = 0x10000 + ((n - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(char::from_u32(c).expect("valid surrogate pair"));
                            }
                            // Low surrogate with no preceding high half.
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                    "lone low surrogate \\u{n:04x} at byte {}",
                                    *pos - 4
                                ));
                            }
                            _ => out.push(char::from_u32(n).expect("non-surrogate BMP scalar")),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next `"` or `\` as one slice. Both
                // are ASCII, so the run of the `&str` input ends on a
                // character boundary and is valid UTF-8; checking each run
                // once keeps the whole string linear.
                let start = *pos;
                *pos += b[start..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(b.len() - start);
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parses_round_trip() {
        let text = r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": true, "d": null, "e": {}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Obj(Vec::new())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"abc").is_err());
    }

    #[test]
    fn nesting_is_bounded_with_a_position() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let v = Value::parse(&nested(MAX_DEPTH)).expect("at the limit");
        let mut depth = 0;
        let mut cur = &v;
        while let Some([inner]) = cur.as_array() {
            depth += 1;
            cur = inner;
        }
        assert_eq!((depth, cur), (MAX_DEPTH - 1, &Value::Arr(Vec::new())));
        assert_eq!(
            Value::parse(&nested(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"
            ))
        );
        // Objects count too, mixed with arrays.
        let mixed = "{\"a\": [".repeat(MAX_DEPTH / 2) + &"]}".repeat(MAX_DEPTH / 2);
        assert!(Value::parse(&mixed).is_ok());
        let over = format!("[{mixed}]");
        assert!(Value::parse(&over)
            .unwrap_err()
            .starts_with("nesting deeper"));
        // Far past the limit, unbalanced and balanced: an error, not a
        // stack overflow.
        let deep = "[".repeat(100_000);
        assert!(Value::parse(&deep)
            .unwrap_err()
            .starts_with("nesting deeper"));
        assert!(Value::parse(&nested(100_000))
            .unwrap_err()
            .starts_with("nesting deeper"));
    }

    #[test]
    fn escaped_output_parses_back() {
        let original = "weird \"quotes\" and \\slashes\\ and\nnewlines";
        let doc = format!("{{\"s\": \"{}\"}}", escape(original));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_combine_into_astral_scalars() {
        // U+1F600 (emoji) and U+10348 (Gothic hwair) as escaped pairs.
        let v = Value::parse("\"\\uD83D\\uDE00 and \\uD800\\uDF48\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} and \u{10348}"));
        // BMP escapes are unaffected.
        let v = Value::parse("\"A\\uFFFD\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{FFFD}"));
    }

    #[test]
    fn astral_text_round_trips_through_escape_and_parse() {
        // `escape` passes astral chars through as raw UTF-8; the parser
        // must accept both that and the escaped-pair spelling, decoding
        // to the same string.
        let original = "emoji \u{1F600}, Gothic \u{10348}, music \u{1D11E}";
        let doc = format!("{{\"s\": \"{}\"}}", escape(original));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
        let escaped =
            "{\"s\": \"emoji \\uD83D\\uDE00, Gothic \\uD800\\uDF48, music \\uD834\\uDD1E\"}";
        let v = Value::parse(escaped).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // 4 MiB, a serve `scan` of a paper-scale subject, with multi-byte
        // characters and escapes spread through it. A parser quadratic in
        // the string's length does not finish this within minutes.
        let chunk = "plain ascii, \u{e9}\u{1F600} and \"quotes\"\n";
        let original = chunk.repeat((4 << 20) / chunk.len() + 1);
        assert!(original.len() >= 4 << 20);
        let doc = format!("{{\"source\": \"{}\"}}", escape(&original));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("source").unwrap().as_str(), Some(original.as_str()));
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = Value::parse("[9007199254740993, 18446744073709551615, 2.5, -3, 1e3]").unwrap();
        let nums = v.as_array().unwrap();
        assert_eq!(nums[0].as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(
            nums[0].as_f64(),
            Some(9_007_199_254_740_992.0),
            "f64 rounds"
        );
        assert_eq!(nums[1].as_u64(), Some(u64::MAX));
        assert_eq!(nums[2].as_f64(), Some(2.5));
        for n in &nums[2..] {
            assert_eq!(n.as_u64(), None, "{n:?} is not a plain integer");
        }
        assert_eq!(nums[4].as_f64(), Some(1000.0));
        assert_eq!(
            Value::parse("[1.2.3]"),
            Err("invalid number `1.2.3` at byte 1".into())
        );
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for text in ["0", "-0", "2.5", "1E+2", "1e-3", "9007199254740993"] {
            let v = Value::parse(text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(v, Value::Num(text.to_owned()));
        }
        assert_eq!(
            Value::parse("9007199254740993").unwrap().as_u64(),
            Some(9_007_199_254_740_993)
        );
        for text in [
            "+1", "007", "-01", ".5", "-.5", "1.", "1.e3", "1e", "1e+", "-", "--1", "1e5.0",
        ] {
            assert_eq!(
                Value::parse(text),
                Err(format!("invalid number `{text}` at byte 0")),
                "`{text}`"
            );
        }
        for text in ["1e999", "-1e999", "1E400"] {
            assert_eq!(
                Value::parse(text),
                Err(format!("number `{text}` at byte 0 is out of range")),
                "`{text}`"
            );
        }
        assert_eq!(
            Value::parse("{\"cmd\":\"stats\",\"n\":+1}"),
            Err("invalid number `+1` at byte 19".into())
        );
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        // Bare high half: end of string, non-escape follower, wrong escape.
        assert!(Value::parse("\"\\uD83D\"").is_err());
        assert!(Value::parse("\"\\uD83Dx\"").is_err());
        assert!(Value::parse("\"\\uD83D\\n\"").is_err());
        // Bare low half.
        assert!(Value::parse("\"\\uDE00\"").is_err());
        // Two high halves in a row.
        assert!(Value::parse("\"\\uD83D\\uD83D\"").is_err());
    }
}
