//! Allocation guard, by bytes, for counting acyclic Markov patterns.
//!
//! The sparse tree DP (`ceg_exec::tree_count`) holds one sorted vector of
//! at most a relation's rows per message, so what a catalog fill
//! allocates per pattern follows the relations the pattern names and not
//! the vertex domain: the same 2,000 edges spread over 2^16 and over 2^20
//! vertices must fit the same bound. Before the DP every pattern went
//! through the backtracking kernel's plan, which allocated a suffix memo
//! of 16 bytes per vertex for each eligible depth — 16 MiB per depth per
//! pattern at 2^20.
//!
//! A single test lives here so no concurrent test case can pollute the
//! counter (see `tests/alloc_guard.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use cegraph::catalog::markov::count_patterns;
use cegraph::exec::CountBudget;
use cegraph::graph::GraphBuilder;
use cegraph::query::{Pattern, QueryEdge, QueryGraph};

struct ByteCountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

const LABELS: u16 = 4;
const EDGES: u32 = 2_000;

/// Bytes one pattern's count may request from the allocator, whatever
/// the graph's vertex domain (5,763 measured at both sizes: the first
/// message of a 2-edge pattern is at most 500 rows of 12 bytes; the
/// kernel's plans took 1.5 MiB per pattern at 2^16).
const MAX_BYTES_PER_PATTERN: u64 = 64 * 1024;

/// Every connected pattern of one or two edges over the four labels:
/// single edges, paths, out-stars and in-stars.
fn patterns() -> Vec<Pattern> {
    let mut seen = BTreeSet::new();
    for l1 in 0..LABELS {
        for l2 in 0..LABELS {
            for (a, b) in [((0, 1), (1, 2)), ((0, 1), (0, 2)), ((1, 0), (2, 0))] {
                let q = QueryGraph::new(
                    3,
                    vec![QueryEdge::new(a.0, a.1, l1), QueryEdge::new(b.0, b.1, l2)],
                );
                for mask in q.connected_subsets_up_to(2) {
                    seen.insert(Pattern::of_subquery(&q, mask));
                }
            }
        }
    }
    seen.into_iter().collect()
}

#[test]
fn counting_acyclic_patterns_allocates_by_relation_not_by_domain() {
    let pats = patterns();
    assert_eq!(pats.len(), 4 + 16 + 10 + 10);
    for domain_bits in [16u32, 20] {
        let domain = 1u32 << domain_bits;
        let mut b = GraphBuilder::with_labels(domain as usize, LABELS as usize);
        // A multiplicative walk over the whole domain; every vertex it
        // lands on is both a source and a target of some relation.
        let mut v = 1u32;
        for i in 0..EDGES {
            let next = v.wrapping_mul(2_654_435_761).wrapping_add(i) % domain;
            b.add_edge(v, next, (i % LABELS as u32) as u16);
            v = next;
        }
        let g = b.build();

        let before = BYTES.load(Ordering::SeqCst);
        let (counts, _) = count_patterns(&g, &pats, 1, CountBudget::UNLIMITED);
        let bytes = BYTES.load(Ordering::SeqCst) - before;

        assert!(counts.iter().any(|&c| c > Some(0)));
        let per_pattern = bytes / pats.len() as u64;
        assert!(
            per_pattern <= MAX_BYTES_PER_PATTERN,
            "{per_pattern} bytes per pattern over a domain of 2^{domain_bits}"
        );
    }
}
