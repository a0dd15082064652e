//! DIMACS CNF import/export for the SAT backend.
//!
//! Lets the CDCL solver be exercised against standard SAT benchmarks and
//! lets bit-blasted conditions be handed to external SAT solvers — the
//! same interop role [`crate::smtlib`] plays at the SMT level.

use crate::cnf::{BVar, Cnf, Lit};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A DIMACS parsing failure with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimacsError {
    /// 1-based line of the problem.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DIMACS error at line {}: {}", self.line, self.message)
    }
}

impl Error for DimacsError {}

/// Serializes a CNF in DIMACS format (`p cnf <vars> <clauses>` header,
/// 1-based literals, zero-terminated clauses).
pub fn to_dimacs(cnf: &Cnf) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p cnf {} {}", cnf.num_vars, cnf.num_clauses());
    for clause in cnf.iter() {
        for lit in clause {
            let v = lit.var().0 as i64 + 1;
            let _ = write!(out, "{} ", if lit.is_pos() { v } else { -v });
        }
        out.push_str("0\n");
    }
    out
}

/// Parses DIMACS text into a [`Cnf`]. Comment lines (`c ...`) and blank
/// lines are skipped; clauses may span lines; `%`-terminated SATLIB files
/// are accepted.
///
/// # Errors
///
/// Returns [`DimacsError`] on a missing/malformed header, literals out of
/// the declared range, or trailing garbage.
pub fn from_dimacs(text: &str) -> Result<Cnf, DimacsError> {
    let mut num_vars: Option<u32> = None;
    let mut declared_clauses = 0usize;
    let mut cnf = Cnf::new();
    let mut current: Vec<Lit> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('%') {
            break; // SATLIB trailer
        }
        if let Some(rest) = line.strip_prefix("p ") {
            if num_vars.is_some() {
                return Err(DimacsError {
                    line: line_no,
                    message: "duplicate header".into(),
                });
            }
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(DimacsError {
                    line: line_no,
                    message: format!("bad header `{line}`"),
                });
            }
            let nv: u32 = parts[1].parse().map_err(|_| DimacsError {
                line: line_no,
                message: format!("bad variable count `{}`", parts[1]),
            })?;
            declared_clauses = parts[2].parse().map_err(|_| DimacsError {
                line: line_no,
                message: format!("bad clause count `{}`", parts[2]),
            })?;
            for _ in 0..nv {
                cnf.fresh();
            }
            num_vars = Some(nv);
            continue;
        }
        let nv = num_vars.ok_or(DimacsError {
            line: line_no,
            message: "clause before `p cnf` header".into(),
        })?;
        for tok in line.split_whitespace() {
            let v: i64 = tok.parse().map_err(|_| DimacsError {
                line: line_no,
                message: format!("bad literal `{tok}`"),
            })?;
            if v == 0 {
                cnf.add(&current);
                current.clear();
            } else {
                let var = v.unsigned_abs() - 1;
                if var >= nv as u64 {
                    return Err(DimacsError {
                        line: line_no,
                        message: format!("literal {v} out of range (max {nv})"),
                    });
                }
                current.push(Lit::new(BVar(var as u32), v > 0));
            }
        }
    }
    if !current.is_empty() {
        cnf.add(&current); // final clause without trailing 0 — tolerated
    }
    let _ = declared_clauses; // informational only; real files often lie
    Ok(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{solve_cnf, SatBudget, SatOutcome};

    #[test]
    fn round_trips() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        let b = cnf.fresh();
        cnf.add(&[Lit::pos(a), Lit::neg(b)]);
        cnf.add(&[Lit::neg(a)]);
        let text = to_dimacs(&cnf);
        assert!(text.starts_with("p cnf 2 2"));
        let back = from_dimacs(&text).unwrap();
        assert_eq!(back, cnf);
    }

    #[test]
    fn parses_comments_and_multiline_clauses() {
        let text = "c a comment\np cnf 3 2\n1 -2\n3 0\n-1 2 0\n";
        let cnf = from_dimacs(text).unwrap();
        let lens: Vec<usize> = cnf.iter().map(<[Lit]>::len).collect();
        assert_eq!(lens, [3, 2]);
    }

    #[test]
    fn solves_a_classic_instance() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x2) ∧ (x1 ∨ ¬x2) ∧ (¬x1 ∨ ¬x2): unsat.
        let text = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n";
        let cnf = from_dimacs(text).unwrap();
        assert_eq!(solve_cnf(&cnf, SatBudget::default()), SatOutcome::Unsat);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_dimacs("1 2 0\n").is_err()); // clause before header
        assert!(from_dimacs("p cnf nope 3\n").is_err());
        assert!(from_dimacs("p cnf 2 1\n5 0\n").is_err()); // out of range
        assert!(from_dimacs("p cnf 2 1\np cnf 2 1\n").is_err()); // dup header
    }

    #[test]
    fn blasted_formulas_export() {
        use crate::bitblast::blast;
        use crate::term::{BvOp, Sort, TermPool};
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c = p.bv_const(9, 8);
        let d = p.bv(BvOp::Mul, x, x);
        let f = p.eq(d, c);
        let (cnf, _) = blast(&p, f);
        let text = to_dimacs(&cnf);
        let back = from_dimacs(&text).unwrap();
        // Solving the re-imported CNF gives the same verdict.
        assert_eq!(
            matches!(solve_cnf(&back, SatBudget::default()), SatOutcome::Sat(_)),
            matches!(solve_cnf(&cnf, SatBudget::default()), SatOutcome::Sat(_)),
        );
    }
}
