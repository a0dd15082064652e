//! Seeded fuzzing of the JSON parser that reads serve requests: token
//! soups of JSON punctuation, escapes, numbers, lone UTF-16 surrogates
//! and deep nesting, and serve requests (`scan`, `rescan`, `save`,
//! `load`, `stats`) mutated by truncation, span deletion or duplication,
//! and inserted fragments.
//!
//! For every input, `Value::parse` must return (never panic) and give the
//! same answer twice, and every generated string must come back unchanged
//! from `escape` and `Value::parse`. The case count is fixed, so every
//! run checks the same inputs.

use fusion_cli::json::{escape, Value, MAX_DEPTH};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A deterministic stream (SplitMix64) expanding one sampled seed into an
/// input.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One of `words`.
    fn pick<'a>(&mut self, words: &[&'a str]) -> &'a str {
        words[self.below(words.len())]
    }

    /// One of the characters of `chars`.
    fn pick_char(&mut self, chars: &str) -> char {
        let n = chars.chars().count();
        chars.chars().nth(self.below(n)).expect("n characters")
    }
}

/// JSON punctuation, literals and near misses, numbers in and out of
/// range, escapes (good, truncated and unknown), lone and paired UTF-16
/// surrogates and non-ASCII text, one space apart.
const SOUP: &str = "{ } [ ] , : \" \\ \"cmd\" \"source\" \"path\" true false null nul tru \
    0 -1 007 1.5e10 -0.0e- 1e999 +1 .5 18446744073709551616 - e \\n \\t \\/ \\b \\f \\\" \
    \\\\ \\x \\u \\u12 \\u0041 \\u00e9 \\uD800 \\udbff \\uDC00 \\udfff \\ud83d\\ude00 \
    \\ud800\\u0041 \\u+041 \\u-041 \u{e9} \u{1F600} \u{2028} \u{7f} \u{0}";

/// Fragments a mutation inserts into a request, one space apart.
const INSERTS: &str = "\" \\ { } [ ] , : \\ud800 \\udc00 1e999 \u{1F600}";

fn token_soup(s: &mut Stream) -> String {
    let soup: Vec<&str> = SOUP.split(' ').collect();
    let mut out = String::new();
    for _ in 0..s.below(80) {
        out.push_str(s.pick(&soup));
        if s.below(2) == 0 {
            out.push(s.pick_char(" \n\t\r"));
        }
    }
    out
}

/// Arrays and objects nested around a soup, half the time within eight
/// levels of [`MAX_DEPTH`] on either side, sometimes left unclosed.
fn deep_nesting(s: &mut Stream) -> String {
    let depth = if s.below(2) == 0 {
        MAX_DEPTH - 8 + s.below(16)
    } else {
        s.below(MAX_DEPTH)
    };
    let (mut open, mut close) = (String::new(), String::new());
    for _ in 0..depth {
        if s.below(2) == 0 {
            open.push('[');
            close.insert(0, ']');
        } else {
            open.push_str("{\"k\": ");
            close.insert(0, '}');
        }
    }
    if s.below(4) == 0 {
        close.truncate(s.below(close.len() + 1));
    }
    format!("{open}{}{close}", token_soup(s))
}

/// A string of characters JSON must escape, characters it must not, and
/// characters outside the Basic Multilingual Plane.
fn text(s: &mut Stream) -> String {
    const CHARS: &str =
        "aZ \"\\/\n\r\t\u{0}\u{1f}\u{7f}\u{e9}\u{2028}\u{fffd}\u{ffff}\u{10000}\u{1F600}\u{10ffff}";
    (0..s.below(24)).map(|_| s.pick_char(CHARS)).collect()
}

/// A well-formed serve request of each kind the loop answers.
fn request(s: &mut Stream) -> String {
    let source = escape(&format!(
        "extern fn deref(p); fn f{}(x) {{ let q = null; if (x > {}) {{ deref(q); }} return 0; }}{}",
        s.below(100),
        s.below(10),
        text(s)
    ));
    let path = escape(&format!("/tmp/{}.fsnp", text(s)));
    match s.below(5) {
        0 => format!("{{\"cmd\": \"scan\", \"source\": \"{source}\"}}"),
        1 => format!(
            "{{\"cmd\": \"rescan\", \"source\": \"{source}\", \"edited_fns\": [\"f{}\"]}}",
            s.below(100)
        ),
        2 => format!("{{\"cmd\": \"save\", \"path\": \"{path}\"}}"),
        3 => format!("{{\"cmd\": \"load\", \"path\": \"{path}\"}}"),
        _ => "{\"cmd\": \"stats\"}".to_owned(),
    }
}

/// The largest character boundary of `src` at or below `at`.
fn boundary(src: &str, mut at: usize) -> usize {
    while !src.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One to three mutations of a request.
fn mutate(s: &mut Stream, mut src: String) -> String {
    let inserts: Vec<&str> = INSERTS.split(' ').collect();
    for _ in 0..1 + s.below(3) {
        let len = src.len();
        let (x, y) = (s.below(len + 1), s.below(len + 1));
        let (a, b) = (boundary(&src, x.min(y)), boundary(&src, x.max(y)));
        match s.below(4) {
            0 => src.truncate(a),
            1 => src.replace_range(a..b, ""),
            2 => {
                let span = src[a..b].to_owned();
                src.insert_str(b, &span);
            }
            _ => src.insert_str(a, s.pick(&inserts)),
        }
    }
    src
}

/// Parses `text` twice, failing the case on a panic or on two different
/// answers.
fn check(text: &str) -> Result<Option<Value>, TestCaseError> {
    let run = || catch_unwind(AssertUnwindSafe(|| Value::parse(text)));
    let first = run();
    prop_assert!(first.is_ok(), "Value::parse panicked on {text:?}");
    let second = run();
    prop_assert!(
        second.is_ok(),
        "Value::parse panicked the second time on {text:?}"
    );
    let first = first.unwrap();
    prop_assert!(first == second.unwrap(), "two parses of {text:?} differ");
    Ok(first.ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn token_soups_never_panic(seed in any::<u64>()) {
        let mut s = Stream(seed);
        check(&token_soup(&mut s))?;
        check(&deep_nesting(&mut s))?;
    }

    #[test]
    fn mutated_requests_never_panic(seed in any::<u64>()) {
        let mut s = Stream(seed);
        let src = request(&mut s);
        let parsed = check(&src)?;
        prop_assert!(
            parsed.as_ref().and_then(|v| v.get("cmd")).is_some(),
            "a well-formed request does not parse: {src:?}"
        );
        check(&mutate(&mut s, src))?;
    }

    #[test]
    fn escaped_strings_round_trip(seed in any::<u64>()) {
        let s = text(&mut Stream(seed));
        let parsed = check(&format!("\"{}\"", escape(&s)))?;
        prop_assert_eq!(parsed, Some(Value::Str(s)));
    }
}

/// The generators cover what the fuzz targets are for: documents that
/// parse, each kind of error, and nesting past the bound.
#[test]
fn inputs_reach_every_outcome() {
    let (mut ok, mut nesting, mut string, mut other) = (0, 0, 0, 0);
    for seed in 0..400 {
        let mut s = Stream(seed);
        let request = request(&mut s);
        for input in [
            token_soup(&mut s),
            deep_nesting(&mut s),
            request.clone(),
            mutate(&mut s, request),
        ] {
            match Value::parse(&input) {
                Ok(_) => ok += 1,
                Err(e) if e.starts_with("nesting deeper") => nesting += 1,
                Err(e) if e.contains("surrogate") || e.contains("escape") => string += 1,
                Err(_) => other += 1,
            }
        }
    }
    for (what, n) in [
        ("Ok", ok),
        ("nesting", nesting),
        ("string", string),
        ("other", other),
    ] {
        assert!(n >= 20, "{what}: {n} of 1600 inputs");
    }
}
