//! A small thread-safe weighted LRU cache with hit/miss accounting.
//!
//! Admission and eviction are driven by a **weight budget** rather than an
//! entry count: every entry carries a weight (bytes, for the embedding
//! cache — see `CachedTrace::weight`) and the cache evicts
//! least-recently-used entries until the total weight fits the budget.
//! Unit-weight entries ([`LruCache::insert`]) recover the classic
//! count-bounded cache, which is what the design-artifact cache uses.
//! Every hosted model of the serving layer owns one cache of each kind;
//! they never share or evict each other's entries.
//!
//! ```
//! use std::sync::Arc;
//! use atlas_serve::cache::LruCache;
//!
//! // A 100-byte budget: admission is by weight, not entry count.
//! let cache: LruCache<&str, Vec<u8>> = LruCache::with_budget(100);
//! assert!(cache.insert_weighted("a", Arc::new(vec![0; 60]), 60));
//! assert!(cache.insert_weighted("b", Arc::new(vec![0; 30]), 30));
//! // 60 + 30 + 40 > 100: the LRU entry ("a") is evicted to fit "c".
//! assert!(cache.insert_weighted("c", Arc::new(vec![0; 40]), 40));
//! assert!(cache.get(&"a").is_none());
//! // A value wider than the whole budget is rejected outright.
//! assert!(!cache.insert_weighted("huge", Arc::new(vec![0; 101]), 101));
//! let stats = cache.stats();
//! assert_eq!((stats.len, stats.weight, stats.budget), (2, 70, 100));
//! ```

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// Hit/miss/occupancy counters of one cache.
///
/// `weight` and `budget` are in whatever unit the cache is budgeted in:
/// bytes for the embedding cache, entries for the unit-weight design
/// cache (where `weight == len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Total weight currently resident (occupancy).
    pub weight: usize,
    /// Admission budget: `weight` never exceeds this.
    pub budget: usize,
}

/// Weighted least-recently-used cache over `Arc`-shared values.
///
/// Values are handed out as `Arc<V>` clones so an entry can be evicted
/// while a worker still computes with it. Eviction scans for the oldest
/// entry — O(len), which is the right trade at the double-digit entry
/// counts a prediction service holds (design presets × workloads).
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    inner: Mutex<Inner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    budget: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
    weight: usize,
}

#[derive(Debug)]
struct Inner<K, V> {
    entries: HashMap<K, Entry<V>>,
    tick: u64,
    weight: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a unit-weight cache holding at most `capacity` entries
    /// (min 1). Equivalent to `with_budget(capacity)` when every insert
    /// uses [`LruCache::insert`].
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache::with_budget(capacity)
    }

    /// Create a cache admitting entries until their total weight would
    /// exceed `budget` (min 1).
    pub fn with_budget(budget: usize) -> LruCache<K, V> {
        LruCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                weight: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget: budget.max(1),
        }
    }

    /// The admission budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) a unit-weight entry.
    pub fn insert(&self, key: K, value: Arc<V>) {
        let _ = self.insert_weighted(key, value, 1);
    }

    /// Insert (or refresh) an entry of the given weight, evicting
    /// least-recently-used entries until the budget holds.
    ///
    /// Replacing a resident key counts as a *use*: the entry moves to
    /// most-recently-used (and its old weight is released before
    /// eviction runs, so the replaced entry itself is never an eviction
    /// candidate for its own insert).
    ///
    /// Returns `false` — leaving the cache untouched — when `weight`
    /// alone exceeds the budget: a single oversized value is rejected
    /// outright rather than evicting everything and still not fitting.
    pub fn insert_weighted(&self, key: K, value: Arc<V>, weight: usize) -> bool {
        if weight > self.budget {
            return false;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.remove(&key) {
            inner.weight -= old.weight;
        }
        // Evict oldest-first until the new entry fits. Terminates because
        // `weight <= budget`: at worst the cache empties, at which point
        // `inner.weight == 0` and the condition is false.
        while inner.weight + weight > self.budget {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("over-budget cache cannot be empty");
            let evicted = inner.entries.remove(&oldest).expect("key just found");
            inner.weight -= evicted.weight;
        }
        inner.weight += weight;
        inner.entries.insert(
            key,
            Entry {
                value,
                last_used: tick,
                weight,
            },
        );
        true
    }

    /// Snapshot every resident entry, oldest-first, with its weight.
    ///
    /// Recency is *not* refreshed and hit/miss counters are untouched:
    /// exporting is an observation, not a use. Oldest-first ordering
    /// means a consumer that re-inserts in order (warm-start restore)
    /// reproduces the same eviction priority the cache had at export
    /// time.
    pub fn export(&self) -> Vec<(K, Arc<V>, usize)> {
        let inner = self.inner.lock().expect("cache lock");
        let mut entries: Vec<_> = inner
            .entries
            .iter()
            .map(|(k, e)| (e.last_used, k.clone(), Arc::clone(&e.value), e.weight))
            .collect();
        entries.sort_by_key(|(last_used, ..)| *last_used);
        entries.into_iter().map(|(_, k, v, w)| (k, v, w)).collect()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len: inner.entries.len(),
            weight: inner.weight,
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let cache: LruCache<u32, &'static str> = LruCache::new(4);
        assert!(cache.get(&1).is_none());
        cache.insert(1, Arc::new("one"));
        assert_eq!(cache.get(&1).as_deref(), Some(&"one"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
        assert_eq!((stats.weight, stats.budget), (1, 4));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        // Touch 1 so 2 becomes the eviction candidate.
        assert!(cache.get(&1).is_some());
        cache.insert(3, Arc::new(30));
        assert!(cache.get(&2).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        cache.insert(1, Arc::new(11));
        assert_eq!(cache.get(&1).as_deref(), Some(&11));
        assert!(cache.get(&2).is_some());
    }

    #[test]
    fn evicted_values_stay_alive_through_arc() {
        let cache: LruCache<u32, Vec<u8>> = LruCache::new(1);
        cache.insert(1, Arc::new(vec![1, 2, 3]));
        let held = cache.get(&1).expect("present");
        cache.insert(2, Arc::new(vec![4]));
        assert!(cache.get(&1).is_none());
        assert_eq!(*held, vec![1, 2, 3], "held Arc survives eviction");
    }

    #[test]
    fn weighted_eviction_frees_enough_for_large_entries() {
        let cache: LruCache<u32, u32> = LruCache::with_budget(100);
        assert!(cache.insert_weighted(1, Arc::new(10), 40));
        assert!(cache.insert_weighted(2, Arc::new(20), 40));
        // 90 > 100 - 80: must evict 1 (the LRU) to fit.
        assert!(cache.insert_weighted(3, Arc::new(30), 90));
        assert!(cache.get(&1).is_none());
        assert!(cache.get(&2).is_none());
        assert!(cache.get(&3).is_some());
        let stats = cache.stats();
        assert_eq!((stats.len, stats.weight), (1, 90));
    }

    #[test]
    fn oversized_entries_are_rejected_not_looped() {
        let cache: LruCache<u32, u32> = LruCache::with_budget(64);
        assert!(
            cache.insert_weighted(1, Arc::new(10), 64),
            "exact fit admits"
        );
        assert!(
            !cache.insert_weighted(2, Arc::new(20), 65),
            "oversized rejected"
        );
        // The resident entry survived the rejected insert.
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&2).is_none());
        assert_eq!(cache.stats().weight, 64);
    }

    /// Regression pin for the recency semantics of `insert_weighted`
    /// replacement: overwriting a resident key must move it to
    /// most-recently-used, so later over-budget inserts evict the *other*
    /// entries first — and the replacement itself may only evict entries
    /// older than the one it refreshes.
    #[test]
    fn replacement_refreshes_recency_for_eviction_order() {
        let cache: LruCache<u32, u32> = LruCache::with_budget(12);
        assert!(cache.insert_weighted(1, Arc::new(10), 4)); // oldest
        assert!(cache.insert_weighted(2, Arc::new(20), 4));
        assert!(cache.insert_weighted(3, Arc::new(30), 4));
        // Replace key 1 (same weight): key 2 becomes the LRU entry.
        assert!(cache.insert_weighted(1, Arc::new(11), 4));
        assert!(cache.insert_weighted(4, Arc::new(40), 4));
        assert!(
            cache.get(&2).is_none(),
            "after replacing key 1, key 2 is the eviction victim"
        );
        assert_eq!(cache.get(&1).as_deref(), Some(&11), "replaced key survives");
        assert!(cache.get(&3).is_some());
        assert!(cache.get(&4).is_some());

        // Replacement that *grows* an entry evicts strictly oldest-first
        // among the others and never the replaced key itself.
        let cache: LruCache<u32, u32> = LruCache::with_budget(12);
        assert!(cache.insert_weighted(1, Arc::new(10), 4));
        assert!(cache.insert_weighted(2, Arc::new(20), 4));
        assert!(cache.insert_weighted(3, Arc::new(30), 4));
        assert!(cache.insert_weighted(1, Arc::new(12), 8)); // 4 → 8: must free 4
        assert!(cache.get(&2).is_none(), "oldest other entry is evicted");
        assert!(cache.get(&3).is_some(), "newer entry survives the growth");
        assert_eq!(cache.get(&1).as_deref(), Some(&12));
        let stats = cache.stats();
        assert_eq!((stats.len, stats.weight), (2, 12));

        // The unit-weight `insert` front end pins the same semantics.
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        cache.insert(1, Arc::new(11)); // refresh: 2 is now LRU
        cache.insert(3, Arc::new(30));
        assert!(cache.get(&2).is_none());
        assert_eq!(cache.get(&1).as_deref(), Some(&11));
        assert!(cache.get(&3).is_some());
    }

    #[test]
    fn refreshing_a_key_with_new_weight_adjusts_occupancy() {
        let cache: LruCache<u32, u32> = LruCache::with_budget(10);
        assert!(cache.insert_weighted(1, Arc::new(10), 8));
        assert!(cache.insert_weighted(1, Arc::new(11), 3));
        let stats = cache.stats();
        assert_eq!((stats.len, stats.weight), (1, 3));
        assert_eq!(cache.get(&1).as_deref(), Some(&11));
    }

    #[test]
    fn export_is_oldest_first_and_not_a_use() {
        let cache: LruCache<u32, u32> = LruCache::with_budget(100);
        assert!(cache.insert_weighted(1, Arc::new(10), 4));
        assert!(cache.insert_weighted(2, Arc::new(20), 8));
        assert!(cache.insert_weighted(3, Arc::new(30), 2));
        // Touch 1 so it becomes the most recently used entry.
        assert!(cache.get(&1).is_some());
        let before = cache.stats();
        let exported = cache.export();
        let keys: Vec<u32> = exported.iter().map(|(k, ..)| *k).collect();
        assert_eq!(keys, vec![2, 3, 1], "oldest-first with refreshed recency");
        let weights: Vec<usize> = exported.iter().map(|(.., w)| *w).collect();
        assert_eq!(weights, vec![8, 2, 4]);
        let after = cache.stats();
        assert_eq!(
            (before.hits, before.misses),
            (after.hits, after.misses),
            "export must not perturb hit/miss accounting"
        );
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: Arc<LruCache<u64, u64>> = Arc::new(LruCache::new(8));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = (t * 37 + i) % 16;
                        if let Some(v) = cache.get(&k) {
                            assert_eq!(*v, k * 2);
                        } else {
                            cache.insert(k, Arc::new(k * 2));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic");
        }
        let stats = cache.stats();
        assert!(stats.len <= 8);
        assert_eq!(stats.weight, stats.len, "unit weights track entry count");
    }
}
