//! The recency policy every bounded cache shares ([`Lru`]), and the
//! shift-keyed factorization cache built on it.
//!
//! Symbolic + numeric `M J Mᵀ` factorization is the dominant cost of a
//! reduction, and a session routinely revisits the same expansion point
//! (every adaptive escalation, every batch member at a shared shift).
//! The cache keys on the *concrete matrix factored* — see
//! [`FactorKey`] — and is LRU-bounded so long-lived sessions cannot
//! accumulate factors without bound. Failed factorizations are cached
//! too ([`SympvlError`] is `Clone`): the `Shift::Auto` back-off ladder
//! probes singular candidates, and re-probing them on every request
//! would redo the most expensive failure path.

use std::borrow::Borrow;
use std::sync::Arc;
use sympvl::{FactorTarget, GFactor, SympvlError};

/// A bounded map that evicts its least recently used entry: a `Vec`
/// with the most recently used entry at the back, scanned linearly
/// (every capacity in the workspace is small). [`Lru::insert`] returns
/// the evicted entry, so each cache keeps its own counters.
///
/// ```
/// let mut lru = mpvl_engine::Lru::new(2);
/// lru.insert("a", 1);
/// lru.insert("b", 2);
/// lru.get("a"); // "b" is now least recently used
/// assert_eq!(lru.insert("c", 3), Some(("b", 2)));
/// ```
#[derive(Debug, Clone)]
pub struct Lru<K, V> {
    capacity: usize,
    entries: Vec<(K, V)>,
}

impl<K: PartialEq, V> Lru<K, V> {
    /// An empty map of at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position<Q: PartialEq + ?Sized>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
    {
        self.entries.iter().position(|(k, _)| k.borrow() == key)
    }

    /// The value under `key`, marked most recently used.
    pub fn get<Q: PartialEq + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        let pos = self.position(key)?;
        let entry = self.entries.remove(pos);
        self.entries.push(entry);
        self.entries.last_mut().map(|(_, v)| v)
    }

    /// The value under `key`, leaving its recency alone.
    pub fn peek<Q: PartialEq + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        let pos = self.position(key)?;
        Some(&mut self.entries[pos].1)
    }

    /// Inserts `value` as the most recently used entry, replacing any
    /// entry under the same key. When the map is full, the least
    /// recently used entry is evicted and returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(pos) = self.position(&key) {
            self.entries.remove(pos);
        }
        let evicted = (self.entries.len() >= self.capacity).then(|| self.entries.remove(0));
        self.entries.push((key, value));
        evicted
    }

    /// Removes the entry under `key` and returns its value.
    pub fn remove<Q: PartialEq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let pos = self.position(key)?;
        Some(self.entries.remove(pos).1)
    }
}

/// Cache key: the concrete matrix a factorization attempt targets.
///
/// `Unshifted` (factor `G` on its own pattern) and `Shifted` with
/// `σ = 0` (factor `G + 0·C` on the union pattern) are **distinct
/// keys** — their orderings differ, so the factors are bit-different
/// even though they are numerically equal. Shifts are keyed by exact
/// `f64` bits: bit-identity is the workspace contract, so "nearly the
/// same" shifts must not share a factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactorKey {
    /// `G` alone, on `G`'s own sparsity pattern.
    Unshifted,
    /// `G + σC` on the union pattern, keyed by the bits of `σ`.
    Shifted(u64),
}

impl FactorKey {
    /// The key for a [`FactorTarget`].
    pub fn of(target: FactorTarget) -> Self {
        match target {
            FactorTarget::Unshifted => FactorKey::Unshifted,
            FactorTarget::Shifted(s0) => FactorKey::Shifted(s0.to_bits()),
        }
    }
}

/// Counters exposed through
/// [`ReductionSession::cache_stats`](crate::ReductionSession::cache_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Factorization requests served from the cache.
    pub factor_hits: u64,
    /// Factorization requests that had to factor.
    pub factor_misses: u64,
    /// Cached factors dropped by the LRU bound.
    pub factor_evictions: u64,
    /// Factors currently cached (successes and cached failures).
    pub cached_factors: usize,
    /// Lanczos run states currently retained.
    pub retained_runs: usize,
    /// Reduced models currently retained for [`crate::EvalRequest`]s.
    pub cached_models: usize,
    /// Models dropped from the store — by the
    /// `SessionOptions::max_retained_models` bound or explicit
    /// eviction. Their ids are retired forever.
    pub model_evictions: u64,
}

/// LRU-bounded map from [`FactorKey`] to a factorization result.
pub(crate) struct FactorCache {
    pub(crate) entries: Lru<FactorKey, Result<Arc<GFactor>, SympvlError>>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
}

impl FactorCache {
    pub(crate) fn new(capacity: usize) -> Self {
        FactorCache {
            entries: Lru::new(capacity),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns the cached result for `key`, computing and inserting it
    /// with `factor` on a miss (evicting the least recently used entry
    /// when full). Emits `engine/factor_cache_{hits,misses}` counters.
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: FactorKey,
        factor: impl FnOnce() -> Result<Arc<GFactor>, SympvlError>,
    ) -> Result<Arc<GFactor>, SympvlError> {
        if let Some(result) = self.entries.get(&key) {
            self.hits += 1;
            mpvl_obs::counter_add("engine", "factor_cache_hits", 1);
            return result.clone();
        }
        self.misses += 1;
        mpvl_obs::counter_add("engine", "factor_cache_misses", 1);
        let result = factor();
        if self.entries.insert(key, result.clone()).is_some() {
            self.evictions += 1;
            mpvl_obs::counter_add("engine", "factor_cache_evictions", 1);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_err(tag: &str) -> Result<Arc<GFactor>, SympvlError> {
        Err(SympvlError::Factorization { reason: tag.into() })
    }

    /// The keys in recency order, least recently used first.
    fn order(lru: &Lru<u32, char>) -> Vec<u32> {
        lru.entries.iter().map(|(k, _)| *k).collect()
    }

    fn abc() -> Lru<u32, char> {
        let mut lru = Lru::new(3);
        for (k, v) in [(1, 'a'), (2, 'b'), (3, 'c')] {
            assert_eq!(lru.insert(k, v), None, "room for {k}");
        }
        lru
    }

    #[test]
    fn lru_evicts_from_the_front_at_capacity() {
        let mut lru = abc();
        assert_eq!(lru.insert(4, 'd'), Some((1, 'a')));
        assert_eq!(lru.insert(5, 'e'), Some((2, 'b')));
        // Replacing a held key is not an eviction, and makes it newest.
        assert_eq!(lru.insert(3, 'C'), None);
        assert_eq!(order(&lru), [4, 5, 3]);
    }

    #[test]
    fn lru_get_touches_and_peek_does_not() {
        let mut lru = abc();
        assert_eq!(lru.get(&1), Some(&mut 'a'));
        *lru.peek(&2).expect("held") = 'B';
        assert_eq!(order(&lru), [2, 3, 1]);
        assert_eq!(lru.insert(4, 'd'), Some((2, 'B')));
    }

    #[test]
    fn lru_removes_by_key() {
        let mut lru = abc();
        assert_eq!(lru.remove(&2), Some('b'));
        assert_eq!(lru.remove(&2), None, "already gone");
        assert_eq!(lru.insert(4, 'd'), None, "removal freed a slot");
        assert_eq!(order(&lru), [1, 3, 4]);
    }

    #[test]
    fn lru_capacity_zero_holds_one() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.insert(1, 'a'), None);
        assert_eq!(lru.insert(2, 'b'), Some((1, 'a')));
        assert_eq!(order(&lru), [2]);
    }

    #[test]
    fn keys_distinguish_unshifted_from_zero_shift() {
        assert_ne!(
            FactorKey::of(FactorTarget::Unshifted),
            FactorKey::of(FactorTarget::Shifted(0.0))
        );
        assert_eq!(
            FactorKey::of(FactorTarget::Shifted(1e9)),
            FactorKey::of(FactorTarget::Shifted(1e9))
        );
        assert_ne!(
            FactorKey::of(FactorTarget::Shifted(1e9)),
            FactorKey::of(FactorTarget::Shifted(1e9 + 1.0))
        );
    }

    #[test]
    fn lru_evicts_least_recently_used_and_counts() {
        let mut cache = FactorCache::new(2);
        let k = |s: f64| FactorKey::Shifted(s.to_bits());
        let _ = cache.get_or_insert_with(k(1.0), || dummy_err("a"));
        let _ = cache.get_or_insert_with(k(2.0), || dummy_err("b"));
        // Touch 1.0 so 2.0 becomes least recently used.
        let _ = cache.get_or_insert_with(k(1.0), || unreachable!("cached"));
        let _ = cache.get_or_insert_with(k(3.0), || dummy_err("c"));
        // 2.0 must have been evicted; 1.0 must still be cached.
        let _ = cache.get_or_insert_with(k(1.0), || unreachable!("still cached"));
        let r = cache.get_or_insert_with(k(2.0), || dummy_err("b2"));
        assert_eq!(
            r.unwrap_err(),
            dummy_err("b2").unwrap_err(),
            "2.0 was evicted and refactored"
        );
        assert_eq!((cache.hits, cache.misses, cache.evictions), (2, 4, 2));
        assert_eq!(cache.entries.len(), 2);
    }

    #[test]
    fn failures_are_cached_as_negative_entries() {
        let mut cache = FactorCache::new(4);
        let key = FactorKey::Unshifted;
        let first = cache.get_or_insert_with(key, || dummy_err("singular"));
        assert!(first.is_err());
        let second = cache.get_or_insert_with(key, || unreachable!("failure is cached"));
        assert_eq!(first.unwrap_err(), second.unwrap_err());
    }
}
