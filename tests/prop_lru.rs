//! Model-based property test of the service's `EstimateCache`.
//!
//! The cache keeps its entries in one slab, recency as an intrusive list
//! of slot ids and lookup as an open-addressing index with backward-shift
//! deletion. The reference model below is the textbook LRU: a vector
//! ordered least to most recently used, holding `(query, epoch, value)`,
//! where a query matches by `is_isomorphic` and nothing else.
//! Random scripts of probes and stores drive both, and every step compares
//! the `ProbeOutcome` and `len`.
//!
//! The scripts force what a hash table gets wrong: renamed isomorphic
//! copies (one entry, two spellings), non-isomorphic queries stored under
//! one canonical hash (as the wire benchmark does with fresh `u64`s), and
//! the WL pair of two triangles vs a 6-cycle, whose real hashes collide.
//! Such keys share a probe run, so eviction must close the run's hole: an
//! index removal that only clears the evicted id's place instead of
//! shifting the rest of the run back strands later entries, and this test
//! fails on it within its first cases.

use cegraph::query::{templates, QueryEdge, QueryGraph};
use cegraph::service::{EstimateCache, ProbeOutcome};
use proptest::prelude::*;

/// The canonical hash every "forced" shape is stored and probed under.
const FORCED: u64 = 0x5eed;

/// The query shapes a script draws from, each with the hash it is always
/// presented under. Isomorphic shapes share a hash (the real one), forced
/// ones share [`FORCED`] and are pairwise non-isomorphic.
fn shapes() -> Vec<(QueryGraph, u64)> {
    let rename = |q: &QueryGraph, perm: &[u8]| {
        let edges = q
            .edges()
            .iter()
            .map(|e| QueryEdge::new(perm[e.src as usize], perm[e.dst as usize], e.label))
            .collect();
        QueryGraph::new(q.num_vars(), edges)
    };
    let path = templates::path(3, &[0, 1, 0]);
    let two_triangles = QueryGraph::new(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
            .iter()
            .map(|&(s, d)| QueryEdge::new(s, d, 0))
            .collect(),
    );
    let hexagon = templates::cycle(6, &[0; 6]);
    let real = |q: QueryGraph| {
        let h = q.canonical_hash();
        (q, h)
    };
    vec![
        real(path.clone()),
        real(rename(&path, &[3, 2, 1, 0])),
        real(two_triangles.clone()),
        real(hexagon.clone()),
        real(rename(&hexagon, &[2, 3, 4, 5, 0, 1])),
        (templates::path(2, &[0, 1]), FORCED),
        (templates::path(2, &[1, 0]), FORCED),
        (templates::star(2, &[0, 1]), FORCED),
    ]
}

/// Textbook reference: a vector ordered least → most recently used.
struct Model {
    capacity: usize,
    entries: Vec<(QueryGraph, u64, Option<f64>)>,
}

impl Model {
    /// Move the entry isomorphic to `query` to the back and return it.
    fn touch(&mut self, query: &QueryGraph) -> Option<&mut (QueryGraph, u64, Option<f64>)> {
        let i = self
            .entries
            .iter()
            .position(|(q, ..)| q.is_isomorphic(query))?;
        let entry = self.entries.remove(i);
        self.entries.push(entry);
        self.entries.last_mut()
    }

    fn probe(&mut self, query: &QueryGraph, epoch: u64) -> ProbeOutcome {
        match self.touch(query) {
            Some((_, e, value)) if *e == epoch => ProbeOutcome::Hit(*value),
            Some(_) => ProbeOutcome::StaleMiss,
            None => ProbeOutcome::ColdMiss,
        }
    }

    fn store(&mut self, query: &QueryGraph, epoch: u64, value: Option<f64>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(entry) = self.touch(query) {
            if epoch >= entry.1 {
                (entry.1, entry.2) = (epoch, value);
            }
            return;
        }
        self.entries.push((query.clone(), epoch, value));
        if self.entries.len() > self.capacity {
            self.entries.remove(0);
        }
    }
}

/// One scripted operation: probe or store `(shape, epoch)`.
#[derive(Debug, Clone, Copy)]
struct Op {
    store: bool,
    shape: usize,
    epoch: u64,
}

fn arb_ops(shapes: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..2, 0..shapes, 0u64..4), 0..200).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, shape, epoch)| Op {
                store: kind == 0,
                shape,
                epoch,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any script, the cache and the model agree on every probe's
    /// outcome and on the entry count.
    #[test]
    fn lru_matches_reference_model(
        (capacity, ops) in (0usize..7, arb_ops(8))
    ) {
        let shapes = shapes();
        let mut real = EstimateCache::new(capacity);
        let mut model = Model { capacity, entries: Vec::new() };
        // Values are a running counter (every 5th a cached failure), so a
        // value served from the wrong entry or epoch is caught.
        for (step, op) in ops.iter().enumerate() {
            let (query, hash) = &shapes[op.shape];
            if op.store {
                let value = (step % 5 != 0).then_some(step as f64);
                real.store_hashed("", query, *hash, op.epoch, value);
                model.store(query, op.epoch, value);
            } else {
                prop_assert_eq!(
                    real.probe_hashed("", query, *hash, op.epoch),
                    model.probe(query, op.epoch),
                    "step {}: {:?} diverged (capacity {})", step, op, capacity
                );
            }
            prop_assert_eq!(real.len(), model.entries.len(), "step {}: len", step);
        }
    }
}

/// The shapes mean what the script relies on: renamed copies are
/// isomorphic with equal real hashes, the WL pair collides without being
/// isomorphic, and the forced shapes are pairwise distinct.
#[test]
fn shapes_collide_as_intended() {
    let s = shapes();
    assert!(s[0].0.is_isomorphic(&s[1].0) && s[0].1 == s[1].1);
    assert!(s[3].0.is_isomorphic(&s[4].0) && s[3].1 == s[4].1);
    assert_eq!(
        s[2].1, s[3].1,
        "two triangles and the hexagon share a WL hash"
    );
    assert!(!s[2].0.is_isomorphic(&s[3].0));
    for i in 5..8 {
        for j in 5..8 {
            assert_eq!(s[i].0.is_isomorphic(&s[j].0), i == j, "{i} vs {j}");
        }
    }
}
