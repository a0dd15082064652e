//! A small string interner for identifiers.
//!
//! Every name that appears in a program (function names, variable names) is
//! interned into a [`Symbol`], a cheap `Copy` handle that supports O(1)
//! equality and hashing. The interner lives inside the program that owns the
//! names, so symbols from different programs must not be mixed.
//!
//! All names live back to back in one `String`, and symbol `s` ends at
//! `ends[s]` (it starts where symbol `s - 1` ends). The index from names to
//! symbols is an open-addressing table of symbol numbers, probed linearly
//! and hashed with std's keyed [`RandomState`]: the names come from the
//! program text, so an unkeyed hash would let a crafted input pile every
//! name into one probe run. An interner is therefore three buffers however
//! many names it holds, and cloning or dropping it is three allocations or
//! frees.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// An interned string handle.
///
/// Symbols are only meaningful relative to the [`Interner`] that produced
/// them; resolve them back with [`Interner::resolve`].
///
/// # Examples
///
/// ```
/// use fusion_ir::interner::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("foo");
/// let b = interner.intern("foo");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "foo");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the raw index of this symbol inside its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A free slot of the index table.
const EMPTY: u32 = u32::MAX;

/// Smallest index table allocated.
const MIN_TABLE: usize = 16;

/// Interns strings and resolves [`Symbol`]s back to `&str`.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Every name, in symbol order, without separators.
    text: String,
    /// `ends[s]`: the end offset of symbol `s`'s name in `text`.
    ends: Vec<usize>,
    /// Open-addressing index: a symbol number or [`EMPTY`] per slot. Its
    /// length is zero or a power of two at least twice the symbol count.
    table: Vec<u32>,
    hasher: RandomState,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing symbol if `s` was seen before.
    ///
    /// # Panics
    ///
    /// Panics if the interner already holds `u32::MAX` names.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = self.hasher.hash_one(s);
        if let Some(sym) = self.find(s, hash) {
            return sym;
        }
        let sym = u32::try_from(self.ends.len())
            .ok()
            .filter(|&n| n != EMPTY)
            .expect("an interner holds fewer than u32::MAX names");
        if 2 * (self.ends.len() + 1) > self.table.len() {
            self.grow();
        }
        self.text.push_str(s);
        self.ends.push(self.text.len());
        let slot = self.free_slot(hash);
        self.table[slot] = sym;
        Symbol(sym)
    }

    /// Returns the symbol for `s` if it has been interned.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.find(s, self.hasher.hash_one(s))
    }

    /// Resolves a symbol back to the interned string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The symbol named `s`, probing from `hash`'s home slot.
    fn find(&self, s: &str, hash: u64) -> Option<Symbol> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY => return None,
                sym if self.resolve(Symbol(sym)) == s => return Some(Symbol(sym)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The first free slot at or after `hash`'s home slot.
    fn free_slot(&self, hash: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        while self.table[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Doubles the index table and re-inserts every symbol.
    fn grow(&mut self) {
        let len = (2 * self.table.len()).max(MIN_TABLE);
        self.table.clear();
        self.table.resize(len, EMPTY);
        for i in 0..self.ends.len() {
            let sym = Symbol(i as u32);
            let slot = self.free_slot(self.hasher.hash_one(self.resolve(sym)));
            self.table[slot] = sym.0;
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("x");
        let c = i.intern("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let names = ["foo", "bar", "baz", ""];
        let syms: Vec<_> = names.iter().map(|n| i.intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(*s), *n);
        }
    }

    #[test]
    fn lookup_without_interning() {
        let mut i = Interner::new();
        assert!(i.lookup("missing").is_none());
        let s = i.intern("present");
        assert_eq!(i.lookup("present"), Some(s));
    }

    /// Names that run into each other in the shared buffer stay apart,
    /// across several table growths, and a clone resolves and looks up
    /// like the original.
    #[test]
    fn many_names_survive_growth_and_clone() {
        let mut i = Interner::new();
        let names: Vec<String> = (0..5_000)
            .map(|k| ["a", "ab", "b", "ba"][k % 4].repeat(k % 7) + &k.to_string())
            .collect();
        let syms: Vec<_> = names.iter().map(|n| i.intern(n)).collect();
        for (k, s) in syms.iter().enumerate() {
            assert_eq!(s.index(), k, "symbols are numbered in first-intern order");
        }
        let c = i.clone();
        for (n, &s) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(s), n);
            assert_eq!(c.resolve(s), n);
            assert_eq!(c.lookup(n), Some(s));
            assert_eq!(i.intern(n), s);
        }
        assert_eq!(i.len(), names.len());
        assert!(i.lookup("a1").is_none() && i.lookup("").is_none());
    }
}
