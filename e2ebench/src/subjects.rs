//! The generated inputs of every workload, each with an answer key that
//! does not come from the analysis.
//!
//! * [`paper`] — a Table-2-shaped single-module subject from the
//!   repository's generator; its key is the generator's seeded-bug list.
//! * [`multi`] — an eight-module `generate_multi` program; its key is the
//!   per-module seeded-bug lists re-derived from the module seeds.
//! * [`hot_sinks`] — a small solver-heavy program written here, whose
//!   verdicts are known by construction (see the function's docs).
//!
//! Keys name functions by their source name, so they stay valid across
//! any number of re-parses with fresh interners.

use fusion_workloads::{generate, GenConfig, GeneratedSubject, SubjectSpec};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A deterministic 64-bit generator (SplitMix64) for the inputs written
/// here; the repository's generator has its own.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The feasible seeded bugs of a generated program, by `(checker, host
/// function)`: exactly what a correct scan reports.
#[derive(Debug, Clone, Default)]
pub struct SeedKey {
    pub feasible: BTreeSet<(String, String)>,
}

impl SeedKey {
    fn absorb(&mut self, subject: &GeneratedSubject, prefix: &str) {
        for bug in subject.bugs.iter().filter(|b| b.feasible) {
            let name = format!("{prefix}{}", subject.interner.resolve(bug.host));
            self.feasible.insert((bug.kind.to_string(), name));
        }
    }
}

/// A generated subject: source text plus its answer key.
pub struct Subject {
    pub text: String,
    pub key: SeedKey,
}

/// The wine-shaped Table 2 subject at `scale`, drawn from `seed`.
pub fn paper(seed: u64, scale: f64) -> Subject {
    let spec = SubjectSpec::by_name("wine").expect("wine is a Table 2 subject");
    let cfg = GenConfig {
        seed,
        ..spec.gen_config(scale)
    };
    let subject = generate(&cfg);
    let text = subject.to_source();
    let mut key = SeedKey::default();
    key.absorb(&subject, "");
    Subject { text, key }
}

/// Disconnected modules in [`multi`]: an edit reaches one module only, and
/// a shard's closure holds only the modules it owns.
const MODULES: usize = 8;

/// The multi-module subject of `edit-rescan` and `sharded-scan`: eight
/// independent generated modules (seeds `seed..seed+8`, names prefixed
/// `m{i}_`), leaning on seeded candidates so the solver carries weight.
pub fn multi(seed: u64, functions_per_module: usize) -> Subject {
    let cfg = GenConfig {
        seed,
        functions: functions_per_module,
        stmts_per_function: 60,
        branch_density: 0.3,
        null_feasible: 4,
        null_infeasible: 12,
        cwe23_feasible: 2,
        cwe23_infeasible: 6,
        cwe402_feasible: 2,
        cwe402_infeasible: 6,
        ..GenConfig::default()
    };
    let text = fusion_workloads::generate_multi(&cfg, MODULES);
    let mut key = SeedKey::default();
    for m in 0..MODULES {
        let module = GenConfig {
            seed: seed.wrapping_add(m as u64),
            ..cfg.clone()
        };
        key.absorb(&generate(&module), &format!("m{m}_"));
    }
    Subject { text, key }
}

/// One guarded `deref` sink of [`hot_sinks`] and its known verdict.
#[derive(Debug, Clone)]
pub struct HotSink {
    /// Function holding the sink.
    pub func: String,
    /// Position among the function's `deref` calls.
    pub index: usize,
    /// `Some(x)`: feasible, and `x` is an input that takes the guard.
    /// `None`: infeasible (the guard asks a square for a residue 2 or 3
    /// mod 4, which no square has).
    pub witness: Option<u32>,
}

/// The solver-heavy subject with verdicts known by construction.
pub struct HotSubject {
    pub text: String,
    pub sinks: Vec<HotSink>,
}

/// Evaluates `coeffs` (highest degree first) at `x` by Horner's rule
/// with wrapping 32-bit arithmetic — the language's semantics.
fn horner(coeffs: &[u32], x: u32) -> u32 {
    coeffs
        .iter()
        .fold(0u32, |acc, &c| acc.wrapping_mul(x).wrapping_add(c))
}

/// `funcs` functions, each computing a seeded degree-8 polynomial `w` of
/// its input `x`, followed by `sinks` null-dereference sinks.
///
/// Every third sink is guarded by `x * x == c` with `c mod 4` in {2, 3}:
/// squares mod 4 are 0 or 1, and 4 divides 2^32, so no input takes the
/// guard. Every other sink is guarded by `w == t`, where `t` is the
/// polynomial at a seeded point, so that point takes the guard. The
/// coefficients keep the derivative odd at every input (odd linear
/// coefficient, even sum of the degree-3, -5 and -7 coefficients), so each
/// target has exactly one root mod 2^32: every feasible query has one
/// witness.
///
/// Seeded polynomials still left the solver's total work varying by a
/// third from seed to seed, so each function's polynomial and witness
/// points come from a stream keyed by its position alone; the seed picks
/// which sinks are infeasible and their constants. Every seed therefore
/// gives the solver the same feasible targets in different places.
pub fn hot_sinks(seed: u64, funcs: usize, sinks: usize) -> HotSubject {
    let mut rng = Rng::new(seed);
    let mut text = String::from("extern fn deref(p);\n");
    let mut out = Vec::new();
    for f in 0..funcs {
        // Highest degree first: degree d is `coeffs[8 - d]`.
        let mut family = Rng::new(0x4075_1A7E ^ f as u64);
        let mut coeffs: Vec<u32> = (0..9).map(|_| family.next() as u32 | 1).collect();
        coeffs[8 - 3] &= !1;
        let name = format!("hot{f}");
        let poly = coeffs[1..]
            .iter()
            .fold(coeffs[0].to_string(), |acc, c| format!("({acc}) * x + {c}"));
        let _ = writeln!(text, "fn {name}(x) {{");
        let _ = writeln!(text, "  let w = {poly};");
        let shift = rng.below(3) as usize;
        for k in 0..sinks {
            let (guard, witness) = if (k + shift) % 3 == 2 {
                let c = (rng.next() as u32 & !3) | (2 + rng.below(2) as u32);
                (format!("x * x == {c}"), None)
            } else {
                let point = family.next() as u32;
                (format!("w == {}", horner(&coeffs, point)), Some(point))
            };
            let _ = writeln!(
                text,
                "  let q{k} = null; let r{k} = 1; if ({guard}) {{ r{k} = q{k}; }} deref(r{k});"
            );
            out.push(HotSink {
                func: name.clone(),
                index: k,
                witness,
            });
        }
        let _ = writeln!(text, "  return w;\n}}");
    }
    HotSubject { text, sinks: out }
}

/// Inserts `let zedit{n} = n;` at the start of the body of a randomly
/// chosen function: a content change that keeps the program's meaning,
/// so the answer key stays valid.
pub fn edit_one_function(text: &str, rng: &mut Rng, n: u64) -> String {
    let headers: Vec<usize> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.starts_with("fn "))
        .map(|(i, _)| i)
        .collect();
    assert!(!headers.is_empty(), "subject has no functions");
    let target = headers[rng.below(headers.len() as u64) as usize];
    let mut out = String::with_capacity(text.len() + 32);
    for (i, line) in text.lines().enumerate() {
        if i == target {
            let brace = line.find('{').expect("function header opens a body");
            out.push_str(&line[..=brace]);
            let _ = write!(out, " let zedit{n} = {n};");
            out.push_str(&line[brace + 1..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}
