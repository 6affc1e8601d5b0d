//! LRU estimate cache keyed by renaming-invariant canonical query hashes.
//!
//! Repeated traffic is dominated by the same (or isomorphic) queries; a
//! warm service should answer those without touching the catalog at all.
//! The cache key is [`QueryGraph::canonical_hash`] (stable under variable
//! renaming), and every hit is verified with the exact
//! [`QueryGraph::is_isomorphic`] check so the rare WL hash collision can
//! never surface a wrong estimate — it just shares a bucket.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use ceg_graph::hash::FxHasher;
use ceg_graph::FxHashMap;
use ceg_query::QueryGraph;

/// A plain LRU map: capacity-bounded, least-recently-*used* eviction.
///
/// Recency is tracked with a monotonically increasing stamp per entry and
/// a queue of `(key, stamp)` observations; stale observations (the entry
/// was touched again later) are skipped during eviction, and the queue is
/// compacted when it grows past four times the capacity, keeping both
/// `get` and `insert` amortized O(1).
pub struct LruCache<K, V> {
    capacity: usize,
    map: FxHashMap<K, (V, u64)>,
    order: VecDeque<(K, u64)>,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries. Capacity 0 is a
    /// valid always-miss cache (used to disable caching in benchmarks).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: FxHashMap::default(),
            order: VecDeque::new(),
            tick: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn touch(&mut self, key: &K) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, stamp)) = self.map.get_mut(key) {
            *stamp = tick;
        }
        self.order.push_back((key.clone(), tick));
        if self.order.len() > 4 * self.capacity.max(1) {
            self.compact();
        }
    }

    /// Drop stale recency observations (entries touched again later, or
    /// already evicted).
    fn compact(&mut self) {
        let map = &self.map;
        self.order
            .retain(|(k, stamp)| map.get(k).is_some_and(|(_, s)| s == stamp));
    }

    /// Look up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if !self.map.contains_key(key) {
            return None;
        }
        self.touch(key);
        self.map.get(key).map(|(v, _)| v)
    }

    /// Look up `key` mutably, marking it most recently used on a hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if !self.map.contains_key(key) {
            return None;
        }
        self.touch(key);
        self.map.get_mut(key).map(|(v, _)| v)
    }

    /// Insert or replace `key`, evicting least-recently-used entries if
    /// the cache is over capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.map.insert(key.clone(), (value, self.tick));
        self.order.push_back((key, self.tick));
        while self.map.len() > self.capacity {
            match self.order.pop_front() {
                Some((k, stamp)) => {
                    if self.map.get(&k).is_some_and(|(_, s)| *s == stamp) {
                        self.map.remove(&k);
                    }
                }
                None => break, // unreachable: map non-empty implies queued stamps
            }
        }
        if self.order.len() > 4 * self.capacity {
            self.compact();
        }
    }
}

/// What a cache probe found — the distinction `EXPLAIN_ESTIMATE` and the
/// metrics surface: a verified hit, a miss caused *only* by a stale epoch
/// (an isomorphic entry exists but was computed before the last commit),
/// or a cold miss (no isomorphic entry at all).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeOutcome {
    /// Verified hit at the current epoch; carries the cached estimate.
    Hit(Option<f64>),
    /// An isomorphic entry exists but at an older epoch — invalidated by
    /// a committed graph update.
    StaleMiss,
    /// No isomorphic entry cached.
    ColdMiss,
}

/// One cached estimate: the dataset it belongs to, the query it answers
/// (kept for exact verification), the dataset **epoch** the estimate was
/// computed against, and the estimator's result — `None` is cached too,
/// so a query the estimator cannot answer does not hammer the catalog on
/// every retry.
struct CachedEstimate {
    dataset: String,
    query: QueryGraph,
    epoch: u64,
    value: Option<f64>,
}

/// The service's estimate cache: LRU over canonical-hash buckets with
/// exact isomorphism verification and hit/miss counters (exposed through
/// the wire protocol so cache behavior is observable end to end).
///
/// Entries are tagged with the dataset epoch they were computed at; a
/// lookup presents the *current* epoch and an entry from an older epoch
/// **misses instead of lying** — committing a graph update invalidates
/// every prior estimate for that dataset without the cache having to
/// enumerate them. Stale entries are replaced in place on the next store
/// and otherwise age out of the LRU.
pub struct EstimateCache {
    lru: LruCache<u64, Vec<CachedEstimate>>,
    hits: u64,
    misses: u64,
    stale_misses: u64,
}

fn bucket_key(dataset: &str, canonical_hash: u64) -> u64 {
    let mut h = FxHasher::default();
    dataset.hash(&mut h);
    h.write_u64(canonical_hash);
    h.finish()
}

impl EstimateCache {
    /// A cache holding at most `capacity` hash buckets.
    pub fn new(capacity: usize) -> Self {
        EstimateCache {
            lru: LruCache::new(capacity),
            hits: 0,
            misses: 0,
            stale_misses: 0,
        }
    }

    /// Probe for an estimate of `query` on `dataset` at the dataset's
    /// current `epoch`, with the query's canonical hash already computed
    /// (callers hash outside the lock they hold around the cache). A
    /// [`ProbeOutcome::Hit`] is verified: the cached query is isomorphic
    /// **and** the cached epoch matches, so the value is exactly what the
    /// estimator would recompute. A [`ProbeOutcome::StaleMiss`] found an
    /// isomorphic entry stranded at an older epoch by a committed graph
    /// update, a [`ProbeOutcome::ColdMiss`] found nothing at all.
    /// Counters are updated either way (stale misses additionally bump
    /// their own).
    pub fn probe_hashed(
        &mut self,
        dataset: &str,
        query: &QueryGraph,
        canonical_hash: u64,
        epoch: u64,
    ) -> ProbeOutcome {
        let key = bucket_key(dataset, canonical_hash);
        let mut stale = false;
        if let Some(bucket) = self.lru.get(&key) {
            for entry in bucket {
                if entry.dataset == dataset && entry.query.is_isomorphic(query) {
                    if entry.epoch == epoch {
                        let value = entry.value;
                        self.hits += 1;
                        return ProbeOutcome::Hit(value);
                    }
                    stale = true;
                }
            }
        }
        self.misses += 1;
        if stale {
            self.stale_misses += 1;
            ProbeOutcome::StaleMiss
        } else {
            ProbeOutcome::ColdMiss
        }
    }

    /// Store an estimate computed at `epoch`. Collision buckets stay tiny
    /// (WL collisions need deliberately adversarial regular graphs), so
    /// the inner scan is a formality. An existing entry for an isomorphic
    /// query is replaced in place — including a stale-epoch entry, which
    /// is how invalidated estimates get refreshed rather than duplicated.
    pub fn store_hashed(
        &mut self,
        dataset: &str,
        query: &QueryGraph,
        canonical_hash: u64,
        epoch: u64,
        value: Option<f64>,
    ) {
        let key = bucket_key(dataset, canonical_hash);
        let entry = CachedEstimate {
            dataset: dataset.to_string(),
            query: query.clone(),
            epoch,
            value,
        };
        if let Some(bucket) = self.lru.get_mut(&key) {
            for existing in bucket.iter_mut() {
                if existing.dataset == dataset && existing.query.is_isomorphic(query) {
                    // A racing slow computation from a pre-commit epoch
                    // must not downgrade a fresher entry.
                    if epoch >= existing.epoch {
                        existing.epoch = epoch;
                        existing.value = value;
                    }
                    return;
                }
            }
            bucket.push(entry);
            return;
        }
        self.lru.insert(key, vec![entry]);
    }

    /// Verified hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The subset of misses caused by a stale-epoch entry (an isomorphic
    /// query was cached, but a commit invalidated it).
    pub fn stale_misses(&self) -> u64 {
        self.stale_misses
    }

    /// Number of cached hash buckets.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_query::templates;
    use ProbeOutcome::{ColdMiss, Hit, StaleMiss};

    fn probe(cache: &mut EstimateCache, dataset: &str, q: &QueryGraph, epoch: u64) -> ProbeOutcome {
        cache.probe_hashed(dataset, q, q.canonical_hash(), epoch)
    }

    fn store(cache: &mut EstimateCache, dataset: &str, q: &QueryGraph, epoch: u64, v: Option<f64>) {
        cache.store_hashed(dataset, q, q.canonical_hash(), epoch, v)
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10)); // 1 is now most recent
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_replaces_in_place() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn lru_zero_capacity_never_stores() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_survives_many_touches() {
        // Exercises queue compaction: far more touches than capacity.
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        for _ in 0..1000 {
            assert_eq!(c.get(&0), Some(&0));
        }
        c.insert(100, 100); // must evict one of 1..=3, never 0
        assert_eq!(c.get(&0), Some(&0));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn estimate_cache_hits_isomorphic_queries() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(3, &[0, 1, 0]);
        assert_eq!(probe(&mut cache, "ds", &q, 0), ColdMiss);
        store(&mut cache, "ds", &q, 0, Some(42.0));
        // Same query: hit.
        assert_eq!(probe(&mut cache, "ds", &q, 0), Hit(Some(42.0)));
        // Renamed (isomorphic) query: still a hit.
        let renamed = {
            use ceg_query::{QueryEdge, QueryGraph};
            let edges = q
                .edges()
                .iter()
                .map(|e| QueryEdge::new(3 - e.src, 3 - e.dst, e.label))
                .collect();
            QueryGraph::new(4, edges)
        };
        assert_eq!(probe(&mut cache, "ds", &renamed, 0), Hit(Some(42.0)));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn estimate_cache_separates_datasets() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(2, &[0, 1]);
        store(&mut cache, "a", &q, 0, Some(1.0));
        assert_eq!(probe(&mut cache, "b", &q, 0), ColdMiss);
        assert_eq!(probe(&mut cache, "a", &q, 0), Hit(Some(1.0)));
    }

    #[test]
    fn estimate_cache_caches_failures() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(2, &[0, 1]);
        store(&mut cache, "ds", &q, 0, None);
        assert_eq!(probe(&mut cache, "ds", &q, 0), Hit(None));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn stale_epoch_misses_instead_of_lying() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(2, &[0, 1]);
        store(&mut cache, "ds", &q, 0, Some(7.0));
        assert_eq!(probe(&mut cache, "ds", &q, 0), Hit(Some(7.0)));
        // The dataset committed an update: epoch 1 probes must miss.
        assert_eq!(probe(&mut cache, "ds", &q, 1), StaleMiss);
        assert_eq!(cache.misses(), 1); // the stale probe is a counted miss
                                       // Recomputing at epoch 1 replaces the entry in place.
        store(&mut cache, "ds", &q, 1, Some(9.0));
        assert_eq!(probe(&mut cache, "ds", &q, 1), Hit(Some(9.0)));
        assert_eq!(cache.len(), 1, "replaced, not duplicated");
        // And the old epoch can no longer hit either.
        assert_eq!(probe(&mut cache, "ds", &q, 0), StaleMiss);
    }

    #[test]
    fn probe_distinguishes_stale_from_cold_misses() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(2, &[0, 1]);
        let h = q.canonical_hash();
        assert_eq!(cache.probe_hashed("ds", &q, h, 0), ProbeOutcome::ColdMiss);
        store(&mut cache, "ds", &q, 0, Some(7.0));
        assert_eq!(
            cache.probe_hashed("ds", &q, h, 0),
            ProbeOutcome::Hit(Some(7.0))
        );
        assert_eq!(cache.probe_hashed("ds", &q, h, 1), ProbeOutcome::StaleMiss);
        let other = templates::path(2, &[5, 6]);
        assert_eq!(
            cache.probe_hashed("ds", &other, other.canonical_hash(), 1),
            ProbeOutcome::ColdMiss
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.stale_misses(), 1);
    }

    #[test]
    fn late_store_from_old_epoch_cannot_downgrade() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(2, &[0, 1]);
        store(&mut cache, "ds", &q, 2, Some(5.0));
        // A straggler that computed against epoch 1 finishes late.
        store(&mut cache, "ds", &q, 1, Some(4.0));
        assert_eq!(probe(&mut cache, "ds", &q, 2), Hit(Some(5.0)));
        assert_eq!(probe(&mut cache, "ds", &q, 1), StaleMiss);
    }
}
