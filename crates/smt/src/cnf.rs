//! CNF representation shared by the bit-blaster and the SAT solver.

use std::fmt;

/// A propositional variable, numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BVar(pub u32);

impl BVar {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable with a sign, packed as `var << 1 | negated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: BVar) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: BVar) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal with explicit sign (`true` = positive).
    pub fn new(v: BVar, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> BVar {
        BVar(self.0 >> 1)
    }

    /// Whether the literal is positive.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// Packed code (usable as an array index in `0..2*num_vars`).
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "~x{}", self.var().0)
        }
    }
}

/// A formula in conjunctive normal form, stored flat: the literals of every
/// clause back to back in one buffer, and where each clause ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (`BVar(0)..BVar(num_vars)`).
    pub num_vars: u32,
    lits: Vec<Lit>,
    /// `ends[i]` is one past the last literal of clause `i` in `lits`.
    ends: Vec<usize>,
}

impl Cnf {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn fresh(&mut self) -> BVar {
        let v = BVar(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Adds a clause. An empty clause makes the formula trivially unsat.
    pub fn add(&mut self, clause: &[Lit]) {
        self.lits.extend_from_slice(clause);
        self.ends.push(self.lits.len());
    }

    /// Adds the unit clause `[l]`.
    pub fn add_unit(&mut self, l: Lit) {
        self.add(&[l]);
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Number of literals over all clauses.
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// The clauses, in the order they were added.
    pub fn iter(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.ends.iter().scan(0, |start, &end| {
            let clause = &self.lits[*start..end];
            *start = end;
            Some(clause)
        })
    }

    /// Removes every clause, keeping the variables (and the buffers'
    /// capacity).
    pub fn clear_clauses(&mut self) {
        self.lits.clear();
        self.ends.clear();
    }

    /// Evaluates the formula under a full assignment (`assign[v]` is the
    /// value of `BVar(v)`).
    pub fn eval(&self, assign: &[bool]) -> bool {
        self.iter()
            .all(|c| c.iter().any(|l| assign[l.var().index()] == l.is_pos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_round_trips() {
        let v = BVar(17);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_pos());
        assert!(!n.is_pos());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::new(v, false), n);
    }

    #[test]
    fn eval_checks_all_clauses() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        let b = cnf.fresh();
        cnf.add(&[Lit::pos(a), Lit::pos(b)]);
        cnf.add(&[Lit::neg(a)]);
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, true]));
        assert!(!cnf.eval(&[false, false]));
    }

    #[test]
    fn clauses_read_back_in_order() {
        let mut cnf = Cnf::new();
        let a = Lit::pos(cnf.fresh());
        let b = Lit::neg(cnf.fresh());
        cnf.add(&[a, b]);
        cnf.add(&[]);
        cnf.add_unit(b);
        let clauses: Vec<&[Lit]> = cnf.iter().collect();
        assert_eq!(clauses, [&[a, b][..], &[], &[b]]);
        assert_eq!((cnf.num_clauses(), cnf.num_lits()), (3, 3));
        cnf.clear_clauses();
        assert_eq!((cnf.num_clauses(), cnf.num_vars), (0, 2));
    }
}
