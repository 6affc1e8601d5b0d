//! The service's estimate cache, keyed by a query's [`Certificate`] (its
//! canonical form up to variable renaming). A hit is a hash probe and a
//! byte compare of certificates: isomorphic queries share an entry, and a
//! WL hash collision (two triangles vs a 6-cycle) is two entries under
//! one key.
//!
//! One slab of 80 B slots, reserved at capacity so untouched slots are
//! never resident. A slot holds its certificate's edges inline up to 12
//! (the paper's largest query); a longer certificate spills to one boxed
//! slice beside the slab. A store at capacity overwrites the evicted slot
//! without allocating. Recency is an intrusive list of `u32` slot ids: a
//! probe that finds an entry (hit or stale) and every store move it to
//! the front, eviction takes the back. Lookup is an open-addressing table
//! of slot ids (2 x capacity, a power of two): linear probing,
//! backward-shift deletion.

use std::hash::Hasher;
use std::mem::size_of;

use ceg_graph::hash::FxHasher;
use ceg_query::{Certificate, QueryEdge, QueryGraph, VarId};

/// Slot 0 holds no entry. It closes the recency list into a ring (`next`
/// most, `prev` least recently used); in the index it marks an empty place.
const SENTINEL: u32 = 0;

/// Certificate edges a slot holds without allocating: the paper's largest
/// query has 12.
const INLINE_EDGES: usize = 12;

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

/// Marks a slot whose value is an estimate; a failed estimate is cached
/// too, so a query the estimator cannot answer does not hammer the
/// catalog on every retry.
const ANSWERED: u8 = 0x80;

/// One cached estimate at the dataset **epoch** it was computed against,
/// in 80 B.
#[derive(Default)]
struct Slot {
    epoch: u64,
    value: f64,
    /// The certificate's edges, if it has at most [`INLINE_EDGES`]; a
    /// longer one's are in [`EstimateCache::long`].
    edges: [QueryEdge; INLINE_EDGES],
    /// The top half of the entry's key, which holds the bits the index
    /// reads.
    key: u32,
    prev: u32,
    next: u32,
    num_vars: VarId,
    /// The certificate's edge count, with [`ANSWERED`] set if `value` is
    /// an estimate.
    len: u8,
}

impl Slot {
    fn value(&self) -> Option<f64> {
        (self.len & ANSWERED != 0).then_some(self.value)
    }

    fn answer(&mut self, epoch: u64, value: Option<f64>) {
        self.epoch = epoch;
        self.value = value.unwrap_or_default();
        self.len = self.len & !ANSWERED | if value.is_some() { ANSWERED } else { 0 };
    }
}

/// LRU over isomorphism classes of queries. A probe presents the
/// *current* epoch and an entry
/// from an older one **misses instead of lying**, so a commit invalidates
/// every prior estimate without enumerating them; stale entries are
/// refreshed in place by the next store or age out.
pub struct EstimateCache {
    capacity: usize,
    /// The [`SENTINEL`], then one slot per entry.
    slots: Vec<Slot>,
    /// Slot ids by key, [`SENTINEL`] where empty; at most half full.
    index: Vec<u32>,
    /// The edges of certificates longer than [`INLINE_EDGES`], by slot
    /// id; empty until the first one is stored.
    long: Vec<Option<Box<[QueryEdge]>>>,
}

/// An entry's key: the top half of the query's hash, mixed. It picks the
/// probe run; the certificate decides the hit.
fn bucket_key(hash: u64) -> u32 {
    let mut h = FxHasher::default();
    h.write_u64(hash);
    (h.finish() >> 32) as u32
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
            long: Vec::new(),
        }
    }

    /// Probe for an estimate of the query with `certificate` at the
    /// dataset's current `epoch`, the certificate computed by the caller
    /// (outside the lock it holds around the cache). A
    /// [`ProbeOutcome::Hit`] is an isomorphic query **and** the same
    /// epoch, so the value is exactly what the estimator would recompute;
    /// [`ProbeOutcome::StaleMiss`] found one stranded at another epoch by
    /// a commit.
    pub fn probe(&mut self, certificate: &Certificate, epoch: u64) -> ProbeOutcome {
        self.probe_keyed(bucket_key(certificate.hash()), certificate, epoch)
    }

    /// Store an estimate computed at `epoch`. An existing entry for an
    /// isomorphic query is updated in place — including a stale-epoch
    /// entry, which is how invalidated estimates get refreshed rather
    /// than duplicated. At capacity the least recently used entry's slot
    /// is reused.
    pub fn store(&mut self, certificate: &Certificate, epoch: u64, value: Option<f64>) {
        self.store_keyed(bucket_key(certificate.hash()), certificate, epoch, value);
    }

    /// [`EstimateCache::probe`] of `query` under `canonical_hash`, which
    /// need not be the query's own: it picks the key, and a hit is an
    /// isomorphic query stored under the same key. The leading `&str` is
    /// ignored; it stays only because `bench/src/layers.rs` passes a
    /// dataset name.
    pub fn probe_hashed(
        &mut self,
        _: &str,
        query: &QueryGraph,
        canonical_hash: u64,
        epoch: u64,
    ) -> ProbeOutcome {
        self.probe_keyed(bucket_key(canonical_hash), &query.certificate(), epoch)
    }

    /// [`EstimateCache::store`] of `query` under `canonical_hash` (see
    /// [`EstimateCache::probe_hashed`], also for the ignored `&str`).
    pub fn store_hashed(
        &mut self,
        _: &str,
        query: &QueryGraph,
        canonical_hash: u64,
        epoch: u64,
        value: Option<f64>,
    ) {
        let key = bucket_key(canonical_hash);
        self.store_keyed(key, &query.certificate(), epoch, value);
    }

    fn probe_keyed(&mut self, key: u32, certificate: &Certificate, epoch: u64) -> ProbeOutcome {
        let found = self.find(key, certificate).and_then(|id| self.touch(id));
        match found.map(|slot| (slot.epoch, slot.value())) {
            None => ProbeOutcome::ColdMiss,
            Some((cached, value)) if cached == epoch => ProbeOutcome::Hit(value),
            Some(_) => ProbeOutcome::StaleMiss,
        }
    }

    fn store_keyed(&mut self, key: u32, certificate: &Certificate, epoch: u64, value: Option<f64>) {
        let slot = match self.find(key, certificate) {
            Some(id) => self.touch(id),
            None => self.insert(key, certificate),
        };
        // A racing slow computation from a pre-commit epoch must not
        // downgrade a fresher entry.
        if let Some(slot) = slot.filter(|slot| epoch >= slot.epoch) {
            slot.answer(epoch, value);
        }
    }

    /// A slot for a new entry at epoch 0, most recently used: a fresh one
    /// or, at capacity, the least recently used entry's.
    fn insert(&mut self, key: u32, certificate: &Certificate) -> Option<&mut Slot> {
        if self.capacity == 0 {
            return None;
        }
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
        let edges = certificate.edges();
        let slot = self.slots.get_mut(id as usize)?;
        let long = match slot.edges.get_mut(..edges.len()) {
            Some(inline) => {
                inline.copy_from_slice(edges);
                None
            }
            None => Some(Box::from(edges)),
        };
        (slot.key, slot.epoch) = (key, 0);
        (slot.num_vars, slot.len) = (certificate.num_vars(), edges.len() as u8);
        if long.is_some() && self.long.is_empty() {
            self.long.resize_with(self.capacity + 1, || None);
        }
        if let Some(place) = self.long.get_mut(id as usize) {
            *place = long;
        }
        self.slots.get_mut(id as usize)
    }

    /// Where `key`'s probe run starts: its top bits, the ones Fx mixes best.
    fn home(&self, key: u32) -> usize {
        (key >> (32 - self.index.len().trailing_zeros())) as usize
    }

    /// The slot holding `certificate` under `key`, searched up to the
    /// empty place that ends `key`'s run.
    fn find(&self, key: u32, certificate: &Certificate) -> Option<u32> {
        let mask = self.index.len() - 1;
        let mut pos = self.home(key);
        loop {
            let id = *self.index.get(pos)?;
            let slot = self.slots.get(id as usize).filter(|_| id != SENTINEL)?;
            if slot.key == key
                && slot.num_vars == certificate.num_vars()
                && self.edges_of(id, slot) == Some(certificate.edges())
            {
                return Some(id);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The certificate edges slot `id` holds.
    fn edges_of<'a>(&'a self, id: u32, slot: &'a Slot) -> Option<&'a [QueryEdge]> {
        match slot.edges.get(..usize::from(slot.len & !ANSWERED)) {
            Some(inline) => Some(inline),
            None => self.long.get(id as usize)?.as_deref(),
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

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.slots.len() - 1
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the cache holds on the heap: the slab and the index at their
    /// reserved size, and the spilled certificates.
    pub fn heap_bytes(&self) -> usize {
        let reserve = self.slots.capacity() - self.slots.len();
        self.written_bytes() + reserve * size_of::<Slot>()
    }

    /// The part of [`EstimateCache::heap_bytes`] the cache has written:
    /// the slab's filled slots, not its untouched (and so not resident)
    /// reserve, plus the index and the spilled certificates.
    pub(crate) fn written_bytes(&self) -> usize {
        let long: usize = self.long.iter().flatten().map(|e| size_of_val(&**e)).sum();
        let long = long + self.long.capacity() * size_of::<Option<Box<[QueryEdge]>>>();
        let table = self.slots.len() * size_of::<Slot>() + self.index.capacity() * 4;
        table + long
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_query::templates;
    use ProbeOutcome::{ColdMiss, Hit, StaleMiss};

    fn probe(cache: &mut EstimateCache, q: &QueryGraph, epoch: u64) -> ProbeOutcome {
        cache.probe(&q.certificate(), epoch)
    }

    fn store(cache: &mut EstimateCache, q: &QueryGraph, epoch: u64, v: Option<f64>) {
        cache.store(&q.certificate(), epoch, v)
    }

    /// `q` with every variable `v` renamed `n - 1 - v`.
    fn reversed(q: &QueryGraph) -> QueryGraph {
        let n = q.num_vars();
        let edges = q
            .edges()
            .iter()
            .map(|e| QueryEdge::new(n - 1 - e.src, n - 1 - e.dst, e.label))
            .collect();
        QueryGraph::new(n, edges)
    }

    #[test]
    fn a_slot_is_at_most_96_bytes() {
        assert!(size_of::<Slot>() <= 96, "{} B", size_of::<Slot>());
        assert_eq!(
            size_of::<Slot>(),
            80,
            "the `cache_bytes` golden_wire records"
        );
    }

    /// A certificate longer than [`INLINE_EDGES`] spills to the heap and
    /// is still cached exactly; one that fits takes no heap.
    #[test]
    fn a_query_longer_than_twelve_edges_is_cached() {
        let star = |k: usize| templates::star(k, &vec![0; k]);
        let mut c = EstimateCache::new(4);
        let inline = c.heap_bytes();
        store(&mut c, &star(16), 0, Some(16.0));
        let spilled = c.heap_bytes();
        assert!(spilled >= inline + 16 * size_of::<QueryEdge>());
        assert_eq!(probe(&mut c, &reversed(&star(16)), 0), Hit(Some(16.0)));
        assert_eq!(probe(&mut c, &star(15), 0), ColdMiss);
        store(&mut c, &star(12), 0, Some(12.0));
        assert_eq!(c.heap_bytes(), spilled, "12 edges fit inline");
        assert_eq!(probe(&mut c, &reversed(&star(12)), 0), Hit(Some(12.0)));
        assert_eq!(probe(&mut c, &star(16), 0), Hit(Some(16.0)));
    }

    /// Distinct (non-isomorphic) queries: paths over distinct labels.
    fn q(i: u16) -> QueryGraph {
        templates::path(2, &[i, i + 100])
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = EstimateCache::new(2);
        store(&mut c, &q(1), 0, Some(10.0));
        store(&mut c, &q(2), 0, Some(20.0));
        assert_eq!(probe(&mut c, &q(1), 0), Hit(Some(10.0))); // 1 is now most recent
        store(&mut c, &q(3), 0, Some(30.0)); // evicts 2
        assert_eq!(probe(&mut c, &q(2), 0), ColdMiss);
        assert_eq!(probe(&mut c, &q(1), 0), Hit(Some(10.0)));
        assert_eq!(probe(&mut c, &q(3), 0), Hit(Some(30.0)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_replaces_in_place() {
        let mut c = EstimateCache::new(2);
        store(&mut c, &q(1), 0, Some(10.0));
        store(&mut c, &q(1), 0, Some(11.0));
        assert_eq!(c.len(), 1);
        assert_eq!(probe(&mut c, &q(1), 0), Hit(Some(11.0)));
    }

    #[test]
    fn lru_zero_capacity_never_stores() {
        let mut c = EstimateCache::new(0);
        store(&mut c, &q(1), 0, Some(10.0));
        assert_eq!(probe(&mut c, &q(1), 0), ColdMiss);
        assert!(c.is_empty());
    }

    /// Far more touches than capacity, then an eviction: the touched
    /// entry is the most recent, never the one evicted. A stale probe
    /// touches too.
    #[test]
    fn lru_survives_many_touches() {
        let mut c = EstimateCache::new(4);
        for i in 0..4 {
            store(&mut c, &q(i), 0, Some(f64::from(i)));
        }
        for _ in 0..1000 {
            assert_eq!(probe(&mut c, &q(0), 0), Hit(Some(0.0)));
        }
        assert_eq!(probe(&mut c, &q(1), 1), StaleMiss);
        store(&mut c, &q(100), 0, Some(100.0)); // evicts 2, the least recent
        assert_eq!(probe(&mut c, &q(0), 0), Hit(Some(0.0)));
        assert_eq!(probe(&mut c, &q(1), 0), Hit(Some(1.0)));
        assert_eq!(probe(&mut c, &q(2), 0), ColdMiss);
        assert_eq!(c.len(), 4);
    }

    /// Two non-isomorphic queries under one key (a WL collision, here
    /// forced) are two entries, counted against capacity as two, in one
    /// probe run; evicting the first leaves the second reachable.
    #[test]
    fn colliding_keys_share_a_run_and_survive_eviction() {
        let mut c = EstimateCache::new(2);
        c.store_hashed("", &q(1), 7, 0, Some(1.0));
        c.store_hashed("", &q(2), 7, 0, Some(2.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.probe_hashed("", &q(2), 7, 0), Hit(Some(2.0)));
        c.store_hashed("", &q(3), 8, 0, Some(3.0)); // evicts q(1)
        assert_eq!(c.probe_hashed("", &q(2), 7, 0), Hit(Some(2.0)));
        assert_eq!(c.probe_hashed("", &q(1), 7, 0), ColdMiss);
        assert_eq!(c.probe_hashed("", &q(3), 8, 0), Hit(Some(3.0)));
    }

    #[test]
    fn estimate_cache_hits_isomorphic_queries() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(3, &[0, 1, 0]);
        assert_eq!(probe(&mut cache, &q, 0), ColdMiss);
        store(&mut cache, &q, 0, Some(42.0));
        // Same query: hit.
        assert_eq!(probe(&mut cache, &q, 0), Hit(Some(42.0)));
        // Renamed (isomorphic) query: still a hit.
        assert_eq!(probe(&mut cache, &reversed(&q), 0), Hit(Some(42.0)));
    }

    #[test]
    fn estimate_cache_caches_failures() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(2, &[0, 1]);
        store(&mut cache, &q, 0, None);
        assert_eq!(probe(&mut cache, &q, 0), Hit(None));
    }

    #[test]
    fn stale_epoch_misses_instead_of_lying() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(2, &[0, 1]);
        store(&mut cache, &q, 0, Some(7.0));
        assert_eq!(probe(&mut cache, &q, 0), Hit(Some(7.0)));
        // The dataset committed an update: epoch 1 probes must miss.
        assert_eq!(probe(&mut cache, &q, 1), StaleMiss);
        // Recomputing at epoch 1 replaces the entry in place.
        store(&mut cache, &q, 1, Some(9.0));
        assert_eq!(probe(&mut cache, &q, 1), Hit(Some(9.0)));
        assert_eq!(cache.len(), 1, "replaced, not duplicated");
        // And the old epoch can no longer hit either.
        assert_eq!(probe(&mut cache, &q, 0), StaleMiss);
    }

    #[test]
    fn probe_distinguishes_stale_from_cold_misses() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(2, &[0, 1]);
        let h = q.canonical_hash();
        assert_eq!(cache.probe_hashed("", &q, h, 0), ProbeOutcome::ColdMiss);
        store(&mut cache, &q, 0, Some(7.0));
        assert_eq!(
            cache.probe_hashed("", &q, h, 0),
            ProbeOutcome::Hit(Some(7.0))
        );
        assert_eq!(cache.probe_hashed("", &q, h, 1), ProbeOutcome::StaleMiss);
        let other = templates::path(2, &[5, 6]);
        assert_eq!(
            cache.probe_hashed("", &other, other.canonical_hash(), 1),
            ProbeOutcome::ColdMiss
        );
    }

    #[test]
    fn late_store_from_old_epoch_cannot_downgrade() {
        let mut cache = EstimateCache::new(16);
        let q = templates::path(2, &[0, 1]);
        store(&mut cache, &q, 2, Some(5.0));
        // A straggler that computed against epoch 1 finishes late.
        store(&mut cache, &q, 1, Some(4.0));
        assert_eq!(probe(&mut cache, &q, 2), Hit(Some(5.0)));
        assert_eq!(probe(&mut cache, &q, 1), StaleMiss);
    }
}
