//! Dense side tables keyed by pool ids, emptied in O(1).
//!
//! The passes over a [`crate::term::TermPool`] run thousands of times per
//! scan, each over a small part of the pool, so their memos and sets must
//! cost nothing to empty: every slot carries the generation that wrote it,
//! and [`IdMap::clear`] starts a new generation instead of touching the
//! slots. A table grows to the largest id it was asked to hold and keeps
//! that length, so once it has seen the pool's size a pass that reuses it
//! allocates nothing. Keys are the pool's own dense ids ([`TermId`],
//! [`VarIdx`], [`CtxId`]), never program text, so no hashing is involved.

use crate::term::{CtxId, TermId, VarIdx};
use std::fmt;
use std::marker::PhantomData;

/// A dense id: the index of a slot in an [`IdMap`] or [`IdSet`].
pub trait Id: Copy {
    /// The slot index.
    fn index(self) -> usize;
}

impl Id for TermId {
    fn index(self) -> usize {
        TermId::index(self)
    }
}

impl Id for VarIdx {
    fn index(self) -> usize {
        VarIdx::index(self)
    }
}

impl Id for CtxId {
    fn index(self) -> usize {
        CtxId::index(self)
    }
}

/// A map from dense ids to `Copy` values whose [`clear`](IdMap::clear) is
/// O(1).
#[derive(Clone)]
pub struct IdMap<K, V> {
    /// The generation of the live entries; a slot stamped otherwise is
    /// empty. Never 0, so a slot that was never written is empty too.
    generation: u32,
    slots: Vec<(u32, V)>,
    len: usize,
    key: PhantomData<K>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            generation: 1,
            slots: Vec::new(),
            len: 0,
            key: PhantomData,
        }
    }
}

/// The live entries, as `{index: value}` (capacity is not shown).
impl<K, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                self.slots
                    .iter()
                    .enumerate()
                    .filter(|(_, (g, _))| *g == self.generation)
                    .map(|(i, (_, v))| (i, v)),
            )
            .finish()
    }
}

impl<K: Id, V: Copy + Default> IdMap<K, V> {
    /// An empty map (allocates nothing until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every entry, keeping the slots.
    pub fn clear(&mut self) {
        self.len = 0;
        if self.generation == u32::MAX {
            for s in &mut self.slots {
                s.0 = 0;
            }
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// The value stored for `k`.
    pub fn get(&self, k: K) -> Option<V> {
        match self.slots.get(k.index()) {
            Some(&(g, v)) if g == self.generation => Some(v),
            _ => None,
        }
    }

    /// Whether `k` has a value.
    pub fn contains_key(&self, k: K) -> bool {
        self.get(k).is_some()
    }

    /// Stores `v` for `k`, returning the value it replaces.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let old = self.get(k);
        let i = k.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (0, V::default()));
        }
        self.slots[i] = (self.generation, v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value of `k`, first storing `v` when `k` has none (`entry(k)
    /// .or_insert(v)`).
    pub fn get_or_insert(&mut self, k: K, v: V) -> V {
        match self.get(k) {
            Some(old) => old,
            None => {
                self.insert(k, v);
                v
            }
        }
    }

    /// A mutable reference to the value of `k`, first storing `v` when `k`
    /// has none.
    pub fn entry_or(&mut self, k: K, v: V) -> &mut V {
        self.get_or_insert(k, v);
        &mut self.slots[k.index()].1
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A set of dense ids whose [`clear`](IdSet::clear) is O(1).
#[derive(Clone)]
pub struct IdSet<K> {
    map: IdMap<K, ()>,
}

impl<K> Default for IdSet<K> {
    fn default() -> Self {
        IdSet {
            map: IdMap::default(),
        }
    }
}

/// The members' indices, as `{index, …}`.
impl<K> fmt::Debug for IdSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gen = self.map.generation;
        f.debug_set()
            .entries(
                self.map
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, (g, _))| *g == gen)
                    .map(|(i, _)| i),
            )
            .finish()
    }
}

impl<K: Id> IdSet<K> {
    /// An empty set (allocates nothing until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every member, keeping the slots.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Adds `k`; `true` when it was not a member.
    pub fn insert(&mut self, k: K) -> bool {
        self.map.insert(k, ()).is_none()
    }

    /// Whether `k` is a member.
    pub fn contains(&self, k: K) -> bool {
        self.map.contains_key(k)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A substitution or binding: SMT variable → term.
pub type VarMap = IdMap<VarIdx, TermId>;

/// A set of SMT variables (e.g. a fragment's protected interface).
pub type VarSet = IdSet<VarIdx>;

/// A map from `(context, key)` pairs to `Copy` values, chained per
/// context: a context's entries are a linked list through one entry
/// buffer, so the map needs no hashing and [`clear`](CtxMap::clear) is
/// O(1). Fit for the per-context instance and instantiation tables, where
/// a context holds one or a few keys.
#[derive(Debug, Clone, Default)]
pub struct CtxMap<V> {
    /// The head entry of each context's chain, plus one (0: none).
    heads: IdMap<CtxId, u32>,
    /// `(key, value, next entry plus one)`.
    entries: Vec<(u32, V, u32)>,
}

impl<V: Copy> CtxMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        CtxMap {
            heads: IdMap::new(),
            entries: Vec::new(),
        }
    }

    /// Removes every entry, keeping the buffers.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.entries.clear();
    }

    /// The value stored for `(ctx, key)`.
    pub fn get(&self, ctx: CtxId, key: u32) -> Option<V> {
        let mut at = self.heads.get(ctx).unwrap_or(0);
        while at != 0 {
            let (k, v, next) = self.entries[at as usize - 1];
            if k == key {
                return Some(v);
            }
            at = next;
        }
        None
    }

    /// Stores `v` for `(ctx, key)` unless it already has a value; `true`
    /// when it was stored.
    pub fn insert_new(&mut self, ctx: CtxId, key: u32, v: V) -> bool {
        if self.get(ctx, key).is_some() {
            return false;
        }
        let next = self.heads.get(ctx).unwrap_or(0);
        self.entries.push((key, v, next));
        self.heads.insert(ctx, self.entries.len() as u32);
        true
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_empties_without_touching_slots() {
        let mut m: IdMap<TermId, u32> = IdMap::new();
        assert_eq!(m.insert(TermId(3), 7), None);
        assert_eq!(m.insert(TermId(3), 8), Some(7));
        assert_eq!(m.len(), 1);
        let slots = m.slots.len();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(TermId(3)), None);
        assert_eq!(m.slots.len(), slots);
        assert_eq!(m.get_or_insert(TermId(3), 9), 9);
        assert_eq!(m.get_or_insert(TermId(3), 10), 9);
        *m.entry_or(TermId(5), 0) += 2;
        assert_eq!(m.get(TermId(5)), Some(2));
    }

    #[test]
    fn generation_wrap_resets_every_slot() {
        let mut s: IdSet<VarIdx> = IdSet::new();
        s.insert(VarIdx(2));
        s.map.generation = u32::MAX;
        s.insert(VarIdx(4));
        s.clear();
        assert!(!s.contains(VarIdx(2)));
        assert!(!s.contains(VarIdx(4)));
        assert!(s.insert(VarIdx(4)));
    }

    #[test]
    fn ctx_map_chains_keys_per_context() {
        let mut m: CtxMap<u32> = CtxMap::new();
        assert!(m.insert_new(CtxId::ROOT, 1, 10));
        assert!(m.insert_new(CtxId::ROOT, 2, 20));
        assert!(!m.insert_new(CtxId::ROOT, 1, 30));
        assert_eq!(m.get(CtxId::ROOT, 1), Some(10));
        assert_eq!(m.get(CtxId::ROOT, 2), Some(20));
        assert_eq!(m.get(CtxId::ROOT, 3), None);
        assert_eq!(m.len(), 2);
        m.clear();
        assert_eq!(m.get(CtxId::ROOT, 1), None);
    }
}
