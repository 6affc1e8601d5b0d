//! The service's estimate cache, keyed by [`QueryGraph::canonical_hash`]
//! (renaming-invariant) hashed with the dataset name. Every hit is checked
//! by the exact [`QueryGraph::is_isomorphic`]: a WL collision is two entries.
//!
//! One slab of entries, reserved at capacity so untouched slots are never
//! resident; a store at capacity overwrites the evicted slot, edge buffer
//! included, without allocating. Recency is an intrusive list of `u32` slot
//! ids: a probe that finds an isomorphic entry (hit or stale) and every
//! store move it to the front, eviction takes the back. Lookup is an
//! open-addressing table of slot ids (2 x capacity, a power of two): linear
//! probing, backward-shift deletion. Dataset names are interned (`u16` ids).

use std::hash::{Hash, Hasher};
use std::mem::size_of;

use ceg_graph::hash::FxHasher;
use ceg_query::QueryGraph;

/// Slot 0 holds no entry. It closes the recency list into a ring (`next`
/// most, `prev` least recently used); in the index it marks an empty place.
const SENTINEL: u32 = 0;

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

/// One cached estimate at the dataset **epoch** it was computed against.
/// `None` is cached too, so a query the estimator cannot answer does not
/// hammer the catalog on every retry.
#[derive(Default)]
struct Slot {
    key: u64,
    epoch: u64,
    value: Option<f64>,
    query: QueryGraph,
    dataset: u16,
    prev: u32,
    next: u32,
}

/// LRU over isomorphism classes of queries, with hit/miss counters (the
/// wire exposes them). A probe presents the *current* epoch and an entry
/// from an older one **misses instead of lying**, so a commit invalidates
/// every prior estimate of its dataset without enumerating them; stale
/// entries are refreshed in place by the next store or age out.
pub struct EstimateCache {
    capacity: usize,
    /// The [`SENTINEL`], then one slot per entry.
    slots: Vec<Slot>,
    /// Slot ids by key, [`SENTINEL`] where empty; at most half full.
    index: Vec<u32>,
    names: Vec<Box<str>>,
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
    /// A cache of at most `capacity` entries (0: every probe misses; > 2^30 panics).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity <= 1 << 30, "cache capacity past 2^30");
        let mut slots = Vec::with_capacity(capacity + 1);
        slots.push(Slot::default());
        EstimateCache {
            capacity,
            slots,
            index: vec![SENTINEL; (2 * capacity).next_power_of_two().max(2)],
            names: Vec::new(),
            hits: 0,
            misses: 0,
            stale_misses: 0,
        }
    }

    /// Probe for an estimate of `query` on `dataset` at its current
    /// `epoch`, the canonical hash computed by the caller (outside the
    /// lock it holds around the cache). A [`ProbeOutcome::Hit`] is an
    /// isomorphic query **and** the same epoch, so the value is exactly
    /// what the estimator would recompute; [`ProbeOutcome::StaleMiss`]
    /// found one stranded at another epoch by a commit. Counters are
    /// updated either way.
    pub fn probe_hashed(
        &mut self,
        dataset: &str,
        query: &QueryGraph,
        canonical_hash: u64,
        epoch: u64,
    ) -> ProbeOutcome {
        let key = bucket_key(dataset, canonical_hash);
        let found = self.find(key, dataset, query).and_then(|id| self.touch(id));
        let Some((cached, value)) = found.map(|slot| (slot.epoch, slot.value)) else {
            self.misses += 1;
            return ProbeOutcome::ColdMiss;
        };
        if cached == epoch {
            self.hits += 1;
            return ProbeOutcome::Hit(value);
        }
        self.misses += 1;
        self.stale_misses += 1;
        ProbeOutcome::StaleMiss
    }

    /// Store an estimate computed at `epoch`. An existing entry for an
    /// isomorphic query is updated in place — including a stale-epoch
    /// entry, which is how invalidated estimates get refreshed rather
    /// than duplicated. At capacity the least recently used entry's slot
    /// is reused.
    pub fn store_hashed(
        &mut self,
        dataset: &str,
        query: &QueryGraph,
        canonical_hash: u64,
        epoch: u64,
        value: Option<f64>,
    ) {
        let key = bucket_key(dataset, canonical_hash);
        let slot = match self.find(key, dataset, query) {
            Some(id) => self.touch(id),
            None => self.insert(key, dataset, query),
        };
        // A racing slow computation from a pre-commit epoch must not
        // downgrade a fresher entry.
        if let Some(slot) = slot.filter(|slot| epoch >= slot.epoch) {
            (slot.epoch, slot.value) = (epoch, value);
        }
    }

    /// A slot for a new entry at epoch 0, most recently used: a fresh one
    /// or, at capacity, the least recently used entry's.
    fn insert(&mut self, key: u64, dataset: &str, query: &QueryGraph) -> Option<&mut Slot> {
        if self.capacity == 0 {
            return None;
        }
        let ds = self.intern(dataset)?;
        let id = if self.slots.len() <= self.capacity {
            self.slots.push(Slot::default());
            self.slots.len() as u32 - 1
        } else {
            let id = self.slots.first()?.prev;
            self.unlink(id)?;
            self.unindex(id)?;
            id
        };
        let mask = self.index.len() - 1;
        let mut pos = self.home(key);
        while *self.index.get(pos)? != SENTINEL {
            pos = (pos + 1) & mask;
        }
        *self.index.get_mut(pos)? = id;
        self.push_front(id)?;
        let slot = self.slots.get_mut(id as usize)?;
        slot.query.clone_from(query);
        (slot.key, slot.dataset, slot.epoch) = (key, ds, 0);
        Some(slot)
    }

    /// Where `key`'s probe run starts: its top bits, the ones Fx mixes best.
    fn home(&self, key: u64) -> usize {
        (key >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// The slot of `dataset` holding a query isomorphic to `query` under
    /// `key`, searched up to the empty place that ends `key`'s run.
    fn find(&self, key: u64, dataset: &str, query: &QueryGraph) -> Option<u32> {
        let mask = self.index.len() - 1;
        let mut pos = self.home(key);
        loop {
            let id = *self.index.get(pos)?;
            let slot = self.slots.get(id as usize).filter(|_| id != SENTINEL)?;
            let name = self.names.get(usize::from(slot.dataset))?;
            if slot.key == key && **name == *dataset && slot.query.is_isomorphic(query) {
                return Some(id);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Take `id` out of the index, shifting the rest of its probe run
    /// back over the hole so every id stays reachable from its home.
    fn unindex(&mut self, id: u32) -> Option<()> {
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.slots.get(id as usize)?.key);
        while *self.index.get(hole)? != id {
            hole = (hole + 1) & mask;
        }
        let mut pos = (hole + 1) & mask;
        while let Some(&moved) = self.index.get(pos).filter(|&&id| id != SENTINEL) {
            // `moved` may fill the hole iff the hole is on its way from home.
            let home = self.home(self.slots.get(moved as usize)?.key);
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                *self.index.get_mut(hole)? = moved;
                hole = pos;
            }
            pos = (pos + 1) & mask;
        }
        *self.index.get_mut(hole)? = SENTINEL;
        Some(())
    }

    /// Make `id` the most recently used entry.
    fn touch(&mut self, id: u32) -> Option<&mut Slot> {
        self.unlink(id)?;
        self.push_front(id)?;
        self.slots.get_mut(id as usize)
    }

    fn unlink(&mut self, id: u32) -> Option<()> {
        let &Slot { prev, next, .. } = self.slots.get(id as usize)?;
        self.slots.get_mut(prev as usize)?.next = next;
        self.slots.get_mut(next as usize)?.prev = prev;
        Some(())
    }

    fn push_front(&mut self, id: u32) -> Option<()> {
        let first = self.slots.first()?.next;
        let slot = self.slots.get_mut(id as usize)?;
        (slot.prev, slot.next) = (SENTINEL, first);
        self.slots.get_mut(first as usize)?.prev = id;
        self.slots.first_mut()?.next = id;
        Some(())
    }

    /// `name`'s id, interned on first sight; `None` once 2^16 names are.
    fn intern(&mut self, name: &str) -> Option<u16> {
        if let Some(id) = self.names.iter().position(|n| **n == *name) {
            return Some(id as u16);
        }
        let id = u16::try_from(self.names.len()).ok()?;
        self.names.push(name.into());
        Some(id)
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

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.slots.len() - 1
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the cache holds on the heap: the slab and the index at their
    /// reserved size, every cached query's edges, the interned names.
    pub fn heap_bytes(&self) -> usize {
        let reserve = self.slots.capacity() - self.slots.len();
        self.written_bytes() + reserve * size_of::<Slot>()
    }

    /// The part of [`EstimateCache::heap_bytes`] the cache has written:
    /// the slab's filled slots, not its untouched (and so not resident)
    /// reserve, plus the index, every cached query's edges and the names.
    pub(crate) fn written_bytes(&self) -> usize {
        let edges: usize = self.slots.iter().map(|s| s.query.heap_bytes()).sum();
        let names: usize = self.names.iter().map(|n| n.len()).sum();
        let table = self.slots.len() * size_of::<Slot>() + self.index.capacity() * 4;
        table + self.names.capacity() * size_of::<Box<str>>() + edges + names
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

    /// Distinct (non-isomorphic) queries: paths over distinct labels.
    fn q(i: u16) -> QueryGraph {
        templates::path(2, &[i, i + 100])
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = EstimateCache::new(2);
        store(&mut c, "ds", &q(1), 0, Some(10.0));
        store(&mut c, "ds", &q(2), 0, Some(20.0));
        assert_eq!(probe(&mut c, "ds", &q(1), 0), Hit(Some(10.0))); // 1 is now most recent
        store(&mut c, "ds", &q(3), 0, Some(30.0)); // evicts 2
        assert_eq!(probe(&mut c, "ds", &q(2), 0), ColdMiss);
        assert_eq!(probe(&mut c, "ds", &q(1), 0), Hit(Some(10.0)));
        assert_eq!(probe(&mut c, "ds", &q(3), 0), Hit(Some(30.0)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_replaces_in_place() {
        let mut c = EstimateCache::new(2);
        store(&mut c, "ds", &q(1), 0, Some(10.0));
        store(&mut c, "ds", &q(1), 0, Some(11.0));
        assert_eq!(c.len(), 1);
        assert_eq!(probe(&mut c, "ds", &q(1), 0), Hit(Some(11.0)));
    }

    #[test]
    fn lru_zero_capacity_never_stores() {
        let mut c = EstimateCache::new(0);
        store(&mut c, "ds", &q(1), 0, Some(10.0));
        assert_eq!(probe(&mut c, "ds", &q(1), 0), ColdMiss);
        assert!(c.is_empty());
        assert_eq!(c.misses(), 1);
    }

    /// Far more touches than capacity, then an eviction: the touched
    /// entry is the most recent, never the one evicted. A stale probe
    /// touches too.
    #[test]
    fn lru_survives_many_touches() {
        let mut c = EstimateCache::new(4);
        for i in 0..4 {
            store(&mut c, "ds", &q(i), 0, Some(f64::from(i)));
        }
        for _ in 0..1000 {
            assert_eq!(probe(&mut c, "ds", &q(0), 0), Hit(Some(0.0)));
        }
        assert_eq!(probe(&mut c, "ds", &q(1), 1), StaleMiss);
        store(&mut c, "ds", &q(100), 0, Some(100.0)); // evicts 2, the least recent
        assert_eq!(probe(&mut c, "ds", &q(0), 0), Hit(Some(0.0)));
        assert_eq!(probe(&mut c, "ds", &q(1), 0), Hit(Some(1.0)));
        assert_eq!(probe(&mut c, "ds", &q(2), 0), ColdMiss);
        assert_eq!(c.len(), 4);
    }

    /// Two non-isomorphic queries under one key (a WL collision, here
    /// forced) are two entries, counted against capacity as two, in one
    /// probe run; evicting the first leaves the second reachable.
    #[test]
    fn colliding_keys_share_a_run_and_survive_eviction() {
        let mut c = EstimateCache::new(2);
        c.store_hashed("ds", &q(1), 7, 0, Some(1.0));
        c.store_hashed("ds", &q(2), 7, 0, Some(2.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.probe_hashed("ds", &q(2), 7, 0), Hit(Some(2.0)));
        c.store_hashed("ds", &q(3), 8, 0, Some(3.0)); // evicts q(1)
        assert_eq!(c.probe_hashed("ds", &q(2), 7, 0), Hit(Some(2.0)));
        assert_eq!(c.probe_hashed("ds", &q(1), 7, 0), ColdMiss);
        assert_eq!(c.probe_hashed("ds", &q(3), 8, 0), Hit(Some(3.0)));
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
