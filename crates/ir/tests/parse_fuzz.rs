//! Seeded fuzzing of the source front end: random token soups with stray
//! bytes, and small generated programs mutated by truncation, span
//! deletion or duplication, and inserted stray characters or over-long
//! literals.
//!
//! For every input, `compile` must return (never panic), a parse error
//! must point inside the input, and compiling the same input twice must
//! give the same program or the same error. The case count is fixed, so
//! every run checks the same inputs.

use fusion_ir::pretty::program_to_string;
use fusion_ir::{compile, CompileError, CompileOptions};
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

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Every token of the language, some lexical near misses, and bytes the
/// lexer rejects, one space apart.
const SOUP: &str = "fn extern let if else while return null x y f g _a#1 b.c 0 7 4294967296 \
    99999999999999999999 ( ) { } , ; = + - * / % & && | || ^ ~ ! != < <= << > >= >> == \
    //note\n $ @ # \u{e9} \0 \" ' ? ` \t \r";

/// Characters and the 21-digit literal a mutation inserts.
const INSERTS: &[&str] = &["$", "@", "{", "}", "(", ")", ";", "123456789012345678901"];

fn token_soup(s: &mut Stream) -> String {
    let soup: Vec<&str> = SOUP.split(' ').collect();
    let mut out = String::new();
    for _ in 0..s.below(120) {
        out.push_str(s.pick(&soup));
        out.push_str(s.pick(&["", " ", " ", "\n"]));
    }
    out
}

/// An expression over `vars`, calling functions `f0..f{funcs}` with
/// arbitrary arities, `depth` levels at most.
fn expr(s: &mut Stream, vars: &[String], funcs: usize, depth: usize) -> String {
    let leaf = depth == 0 || s.below(3) == 0;
    match if leaf { s.below(3) } else { 3 + s.below(3) } {
        0 => s.below(20).to_string(),
        1 => "null".to_owned(),
        2 if !vars.is_empty() => vars[s.below(vars.len())].clone(),
        2 => "1".to_owned(),
        3 => format!(
            "({} {} {})",
            expr(s, vars, funcs, depth - 1),
            s.pick(&["+", "-", "*", "/", "%", "<", "<=", ">", "==", "!=", "&&", "||", "<<", "&"]),
            expr(s, vars, funcs, depth - 1)
        ),
        4 => format!(
            "{}{}",
            s.pick(&["-", "!", "~"]),
            expr(s, vars, funcs, depth - 1)
        ),
        _ => {
            let args: Vec<String> = (0..s.below(3))
                .map(|_| expr(s, vars, funcs, depth - 1))
                .collect();
            format!("f{}({})", s.below(funcs), args.join(", "))
        }
    }
}

/// A block of statements; `let`s extend `vars` for the rest of the block.
fn block(s: &mut Stream, vars: &mut Vec<String>, funcs: usize, depth: usize, out: &mut String) {
    let outer = vars.len();
    for _ in 0..1 + s.below(4) {
        match s.below(if depth == 0 { 4 } else { 7 }) {
            0 | 1 => {
                let name = format!("v{}", vars.len());
                out.push_str(&format!("let {name} = {}; ", expr(s, vars, funcs, 2)));
                vars.push(name);
            }
            2 if !vars.is_empty() => {
                let target = vars[s.below(vars.len())].clone();
                out.push_str(&format!("{target} = {}; ", expr(s, vars, funcs, 2)));
            }
            2 | 3 => out.push_str(&format!("return {}; ", expr(s, vars, funcs, 2))),
            4 => {
                out.push_str(&format!("if ({}) {{ ", expr(s, vars, funcs, 1)));
                block(s, vars, funcs, depth - 1, out);
                out.push_str("} ");
                if s.below(2) == 0 {
                    out.push_str("else { ");
                    block(s, vars, funcs, depth - 1, out);
                    out.push_str("} ");
                }
            }
            5 => {
                out.push_str(&format!("while ({}) {{ ", expr(s, vars, funcs, 1)));
                block(s, vars, funcs, depth - 1, out);
                out.push_str("} ");
            }
            _ => out.push_str(&format!("{}; ", expr(s, vars, funcs, 2))),
        }
    }
    vars.truncate(outer);
}

/// A small program of functions `f0..`, some external, calling each other
/// (recursion included).
fn program(s: &mut Stream) -> String {
    let funcs = 1 + s.below(4);
    let mut out = String::new();
    for k in 0..funcs {
        let mut params: Vec<String> = (0..s.below(3)).map(|p| format!("p{p}")).collect();
        let header = format!("fn f{k}({})", params.join(", "));
        if s.below(4) == 0 {
            out.push_str(&format!("extern {header};\n"));
            continue;
        }
        out.push_str(&header);
        out.push_str(" {\n  ");
        block(s, &mut params, funcs, 2, &mut out);
        out.push_str("\n}\n");
    }
    out
}

/// One to three mutations of an ASCII source.
fn mutate(s: &mut Stream, mut src: String) -> String {
    for _ in 0..1 + s.below(3) {
        let len = src.len();
        let (a, b) = {
            let (x, y) = (s.below(len + 1), s.below(len + 1));
            (x.min(y), x.max(y))
        };
        match s.below(4) {
            0 => src.truncate(a),
            1 => src.replace_range(a..b, ""),
            2 => {
                let span = src[a..b].to_owned();
                src.insert_str(b, &span);
            }
            _ => src.insert_str(a, s.pick(INSERTS)),
        }
    }
    src
}

/// Whether 1-based `line:col` lies in `src` (a column may sit one past
/// the end of its line, where end-of-input is reported).
fn inside(src: &str, line: u32, col: u32) -> bool {
    let Some(text) = (line as usize)
        .checked_sub(1)
        .and_then(|l| src.split('\n').nth(l))
    else {
        return false;
    };
    col >= 1 && col as usize <= text.len() + 1
}

/// Compiles `src`, failing the case on a panic, a parse error outside the
/// input, or a second compile that answers differently.
fn check(src: &str) -> Result<(), TestCaseError> {
    let run = || {
        catch_unwind(AssertUnwindSafe(|| {
            match compile(src, CompileOptions::default()) {
                Ok(program) => Ok(program_to_string(&program)),
                Err(e) => Err(e),
            }
        }))
    };
    let first = run();
    prop_assert!(first.is_ok(), "compile panicked on {src:?}");
    let first = first.unwrap();
    if let Err(CompileError::Parse(e)) = &first {
        prop_assert!(
            inside(src, e.line, e.col),
            "`{e}` lies outside the input {src:?}"
        );
    }
    let second = run();
    prop_assert!(
        second.is_ok(),
        "compile panicked the second time on {src:?}"
    );
    prop_assert!(first == second.unwrap(), "two compiles of {src:?} differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn token_soups_never_panic(seed in any::<u64>()) {
        check(&token_soup(&mut Stream(seed)))?;
    }

    #[test]
    fn mutated_programs_never_panic(seed in any::<u64>()) {
        let mut s = Stream(seed);
        let src = program(&mut s);
        check(&src)?;
        check(&mutate(&mut s, src))?;
    }
}

/// The generator covers what the fuzz targets are for: clean programs
/// that compile, and each failing stage.
#[test]
fn inputs_reach_every_outcome() {
    let (mut ok, mut parse, mut lower, mut lexical) = (0, 0, 0, 0);
    for seed in 0..400 {
        let mut s = Stream(seed);
        let src = program(&mut s);
        for input in [token_soup(&mut s), src.clone(), mutate(&mut s, src)] {
            match compile(&input, CompileOptions::default()) {
                Ok(_) => ok += 1,
                Err(CompileError::Parse(e)) if e.message.starts_with("unexpected char") => {
                    lexical += 1
                }
                Err(CompileError::Parse(e)) if e.message.contains("out of range") => lexical += 1,
                Err(CompileError::Parse(_)) => parse += 1,
                Err(_) => lower += 1,
            }
        }
    }
    for (what, n) in [
        ("Ok", ok),
        ("parse", parse),
        ("lexical", lexical),
        ("lower", lower),
    ] {
        assert!(n >= 20, "{what}: {n} of 1200 inputs");
    }
}
