//! A sharded, LRU-bounded memo of slice **closures**.
//!
//! Every feasibility query needs the backward data-dependence closure of
//! its path set (`compute_closure`, Rules 2–3) before the engine can
//! build definitional equations. Without memoization the closure is
//! recomputed from scratch per query — even for the alternative paths
//! of one candidate, and even when two candidates in a sink group share
//! their entire dependence structure. [`SliceCache`] memoizes the
//! closure under the same canonical content hash the verdict cache uses
//! ([`crate::cache::path_set_key`]), shared across alternative paths,
//! candidates, worker engines, runs — and, in the fused multi-client
//! pass, across *checkers*: the key is purely content-based (no
//! [`CheckerId`][crate::checkers::CheckerId]), so when two checkers
//! query overlapping dependence structure on the same sink, the second
//! client reuses the closure the first one computed.
//!
//! **Why this is not condition caching.** The paper's fused design
//! (§3.2.2) forbids caching *path conditions*: conditions are
//! context-dependent formulas whose reuse forces cloning. A closure is
//! neither — it is a set of program vertices (dependence structure and
//! transfer-function membership, `BTreeMap<FuncId, FuncSlice>`), a pure
//! function of the path set with no formulas, no solver state, and no
//! contexts baked in. The per-query constraints (Rules 1 and 5) are
//! *always* recomputed from the concrete path
//! (`fusion_pdg::slice::constraints_for`); only the structure they are
//! interpreted over is shared.
//!
//! Mechanically the cache mirrors [`crate::cache::VerdictCache`]:
//! lock-striped shards keyed by content hash, lock-free counters, bytes
//! observable for [`crate::memory::Category::Cache`] accounting — plus
//! an LRU bound per shard (like the solver's `local_cache`) so retained
//! closures cannot grow without limit.

use crate::cache::Key128;
use fusion_ir::ssa::FuncId;
use fusion_pdg::slice::FuncSlice;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A memoizable slice closure: the per-function vertex sets of `V[Π]`.
pub type Closure = BTreeMap<FuncId, FuncSlice>;

/// Fixed overhead per retained closure (key, Arc, table slot, tick).
pub const BYTES_PER_CLOSURE_ENTRY: u64 = 96;
/// Estimated bytes per sliced vertex or entry site inside a closure.
pub const BYTES_PER_CLOSURE_ITEM: u64 = 16;
/// Estimated bytes per function bucket inside a closure.
pub const BYTES_PER_CLOSURE_FUNC: u64 = 48;

/// Estimated resident bytes of one closure, used for cache accounting.
pub fn closure_bytes(c: &Closure) -> u64 {
    let items: u64 = c
        .values()
        .map(|f| (f.verts.len() + f.entry_sites.len()) as u64)
        .sum();
    BYTES_PER_CLOSURE_ENTRY
        + c.len() as u64 * BYTES_PER_CLOSURE_FUNC
        + items * BYTES_PER_CLOSURE_ITEM
}

/// Monotonic counters plus retention at observation time; two snapshots
/// subtract via [`SliceCacheStats::since`] to scope numbers to one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceCacheStats {
    /// Closure requests answered from the cache.
    pub hits: u64,
    /// Closure requests that had to compute.
    pub misses: u64,
    /// Closures stored.
    pub inserts: u64,
    /// Closures evicted by the LRU bound.
    pub evictions: u64,
    /// Closures retained at observation time.
    pub entries: u64,
    /// Estimated retained bytes at observation time.
    pub bytes: u64,
}

impl SliceCacheStats {
    /// Counter deltas relative to an `earlier` snapshot of the same
    /// cache; `entries`/`bytes` stay absolute.
    pub fn since(&self, earlier: &SliceCacheStats) -> SliceCacheStats {
        SliceCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            entries: self.entries,
            bytes: self.bytes,
        }
    }

    /// Hit rate in `[0, 1]` (0 when no requests were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Shard {
    /// key → (closure, last-use tick, estimated bytes).
    map: HashMap<Key128, (Arc<Closure>, u64, u64)>,
    tick: u64,
}

/// The sharded LRU closure memo. All methods take `&self`; share it by
/// reference or `Arc` across worker engines and runs.
#[derive(Debug)]
pub struct SliceCache {
    shards: Vec<Mutex<Shard>>,
    /// Maximum retained closures per shard; least-recently-used entries
    /// are evicted beyond this.
    cap_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

const DEFAULT_SHARDS: usize = 16;
/// Default total closure capacity (across shards), matching the
/// capacity of the Fusion solver's local-condition cache.
pub const DEFAULT_CAPACITY: usize = 1024;

impl Default for SliceCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SliceCache {
    /// A cache with the default shard count and total capacity.
    pub fn new() -> Self {
        Self::with_config(DEFAULT_SHARDS, DEFAULT_CAPACITY)
    }

    /// A cache with `shards` lock stripes and `capacity` total retained
    /// closures (both rounded up to at least 1 / 1-per-shard).
    pub fn with_config(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let cap_per_shard = capacity.div_ceil(shards).max(1);
        SliceCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            cap_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: Key128) -> &Mutex<Shard> {
        &self.shards[(key.lo as usize) % self.shards.len()]
    }

    /// Looks up a closure, counting a hit or miss and refreshing the
    /// entry's LRU tick on hit.
    pub fn get(&self, key: Key128) -> Option<Arc<Closure>> {
        let mut shard = self.shard(key).lock().expect("slice cache poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&key) {
            Some((closure, last_use, _)) => {
                *last_use = tick;
                let c = Arc::clone(closure);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(c)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a closure, evicting least-recently-used entries past the
    /// per-shard capacity. Re-inserting an existing key only refreshes
    /// its tick.
    pub fn insert(&self, key: Key128, closure: Arc<Closure>) {
        let bytes = closure_bytes(&closure);
        let mut shard = self.shard(key).lock().expect("slice cache poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.1 = tick;
            return;
        }
        shard.map.insert(key, (closure, tick, bytes));
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        while shard.map.len() > self.cap_per_shard {
            let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, (_, t, _))| *t) else {
                break;
            };
            let (_, _, freed) = shard.map.remove(&victim).expect("victim present");
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evicts every retained closure that *spans* a dirty function —
    /// i.e. whose `BTreeMap<FuncId, FuncSlice>` contains a function
    /// flagged in `dirty` — and returns how many were removed.
    ///
    /// This is the incremental-rescan invalidation hook
    /// ([`crate::incremental`]), and it is **correctness-critical**, not
    /// garbage collection: the cache key ([`crate::cache::path_set_key`])
    /// hashes only the *on-path* content of a query, while the memoized
    /// closure also contains off-path definitions (e.g. the defining
    /// expressions of guards) of every spanned function. Editing a
    /// spanned function can therefore change the correct closure without
    /// changing the key. Conversely a closure spanning no dirty function
    /// is bit-identical to what a cold computation over the edited
    /// program produces — closure equations only ever consult the
    /// spanned functions' own definition arrays — so retaining it is
    /// exact. No provenance side-table is needed: the closure *is* its
    /// own function-span record.
    pub fn evict_dirty(&self, dirty: &[bool]) -> u64 {
        let mut removed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("slice cache poisoned");
            let victims: Vec<Key128> = shard
                .map
                .iter()
                .filter(|(_, (closure, _, _))| {
                    closure
                        .keys()
                        .any(|f| dirty.get(f.index()).copied().unwrap_or(true))
                })
                .map(|(&k, _)| k)
                .collect();
            for key in victims {
                let (_, _, freed) = shard.map.remove(&key).expect("victim present");
                self.bytes.fetch_sub(freed, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                removed += 1;
            }
        }
        removed
    }

    /// Total retained closures across shards.
    pub fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("slice cache poisoned").map.len() as u64)
            .sum()
    }

    /// Whether the cache holds no closures.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated retained bytes (lock-free observation).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot of the counters and retention.
    pub fn stats(&self) -> SliceCacheStats {
        SliceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            bytes: self.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A distinct, hand-built test key per index.
    fn k(n: u64) -> Key128 {
        Key128::from_parts(n, !n)
    }

    fn closure(n: usize) -> Arc<Closure> {
        let mut c = Closure::new();
        let fs = FuncSlice {
            verts: (0..n as u32).map(fusion_ir::ssa::VarId).collect(),
            entry_sites: BTreeSet::new(),
        };
        c.insert(FuncId(0), fs);
        Arc::new(c)
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = SliceCache::with_config(2, 8);
        assert!(cache.get(k(1)).is_none());
        cache.insert(k(1), closure(3));
        let hit = cache.get(k(1)).expect("hit");
        assert_eq!(hit[&FuncId(0)].verts.len(), 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, closure_bytes(&closure(3)));
        assert!(s.hit_rate() > 0.0);
    }

    #[test]
    fn reinsert_refreshes_without_double_count() {
        let cache = SliceCache::with_config(1, 8);
        cache.insert(k(5), closure(2));
        cache.insert(k(5), closure(2));
        let s = cache.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, closure_bytes(&closure(2)));
    }

    #[test]
    fn lru_evicts_least_recent_and_releases_bytes() {
        let cache = SliceCache::with_config(1, 2);
        cache.insert(k(1), closure(1));
        cache.insert(k(2), closure(1));
        let _ = cache.get(k(1)); // 1 is now the most recent
        cache.insert(k(3), closure(1)); // evicts 2
        assert!(cache.get(k(1)).is_some());
        assert!(cache.get(k(2)).is_none(), "LRU victim must be evicted");
        assert!(cache.get(k(3)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 2 * closure_bytes(&closure(1)));
    }

    #[test]
    fn since_scopes_counters() {
        let cache = SliceCache::new();
        cache.insert(k(1), closure(1));
        let _ = cache.get(k(1));
        let before = cache.stats();
        let _ = cache.get(k(1));
        let _ = cache.get(k(9));
        let d = cache.stats().since(&before);
        assert_eq!((d.hits, d.misses, d.inserts), (1, 1, 0));
    }

    #[test]
    fn concurrent_sharing() {
        let cache = SliceCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..128u64 {
                        let key = i % 16;
                        if cache.get(k(key)).is_none() {
                            cache.insert(k(key), closure(key as usize + 1));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 16);
        for key in 0..16u64 {
            let c = cache.get(k(key)).expect("retained");
            assert_eq!(c[&FuncId(0)].verts.len(), key as usize + 1);
        }
    }

    #[test]
    fn colliding_prefix_keys_do_not_alias() {
        // Same regression as the verdict cache: two keys identical in the
        // pre-widening 64-bit half must remain distinct closures.
        let a = Key128::from_parts(99, 1);
        let b = Key128::from_parts(99, 2);
        let cache = SliceCache::with_config(2, 8);
        cache.insert(a, closure(1));
        cache.insert(b, closure(5));
        assert_eq!(cache.get(a).unwrap()[&FuncId(0)].verts.len(), 1);
        assert_eq!(cache.get(b).unwrap()[&FuncId(0)].verts.len(), 5);
        assert_eq!(cache.len(), 2);
    }
}
