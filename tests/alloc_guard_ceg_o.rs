//! Allocation guard for CEG_O construction.
//!
//! `CegO::build` resolves the query's sub-patterns through one reused
//! canonicalization buffer and builds flat arrays: the node set, the
//! cards beside it, the pattern-by-query-edge index (and one cyclomatic
//! number per node for a cyclic query), the edge and metadata lists, and
//! the CEG's offset + index adjacency. None of that is per node or per
//! sub-pattern, so the number of allocator calls is a small constant
//! (plus the doublings of the growing lists) — the same bound holds for a
//! 64-node and a 1,024-node CEG. Before the rewrite a build made two
//! `Vec`s per node and several per canonicalization: more than 50,000
//! calls on `star(8)`.
//!
//! Choosing a path over the built CEG is one forward pass with one
//! `(hops, aggregate)` slot per node: `Ceg::estimate` makes exactly one
//! allocator call, again whatever the node count (a hop pre-pass or a
//! `(node, depth)` table would each be one more). The server skips the
//! build: `CegO::estimate_resolved` folds each node's edges as they are
//! generated, in a fixed number of allocator calls.
//!
//! A single test lives here so no concurrent test case can pollute the
//! counter (see `tests/alloc_guard.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cegraph::catalog::MarkovTable;
use cegraph::core::{CegO, Heuristic};
use cegraph::graph::GraphBuilder;
use cegraph::query::templates;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls one `CegO::build` may make, whatever the node count
/// (36, 44 and 53 on the three stars below: the difference is `Vec`
/// doublings of the node, edge and metadata lists).
const MAX_ALLOCS_PER_BUILD: u64 = 64;

/// Allocator calls of the streamed pass the server runs, exactly, on
/// every star: the pattern index, the per-node edge buffer (sized once to
/// the pattern count) and the slots. No edge list, so no doublings.
const ALLOCS_PER_STREAMED_PASS: u64 = 3;

#[test]
fn ceg_o_build_allocates_a_constant_number_of_times() {
    // Two labels out of one hub, so every star sub-pattern is non-empty.
    let mut b = GraphBuilder::new(8);
    for leaf in 1..8u32 {
        b.add_edge(0, leaf, (leaf % 2) as u16);
    }
    let g = b.build();
    for (k, nodes, edges) in [(6, 64, 495), (8, 256, 3_612), (10, 1_024, 23_085)] {
        let labels: Vec<u16> = (0..k).map(|i| (i % 2) as u16).collect();
        let q = templates::star(k, &labels);
        let table = MarkovTable::build_for_query(&g, &q, 2);

        let before = ALLOCS.load(Ordering::SeqCst);
        let ceg = CegO::build(&q, &table);
        let calls = ALLOCS.load(Ordering::SeqCst) - before;

        assert_eq!(ceg.ceg().num_nodes(), nodes, "star({k})");
        assert_eq!(ceg.ceg().num_edges(), edges, "star({k})");
        assert!(
            calls <= MAX_ALLOCS_PER_BUILD,
            "CegO::build on star({k}) made {calls} allocator calls"
        );

        let before = ALLOCS.load(Ordering::SeqCst);
        let estimate = ceg.ceg().estimate(Heuristic::RECOMMENDED);
        let calls = ALLOCS.load(Ordering::SeqCst) - before;
        assert!(estimate.is_some(), "star({k})");
        assert_eq!(calls, 1, "Ceg::estimate on star({k})");

        let resolved = table.resolve(&q).expect("far below the subset limit");
        let before = ALLOCS.load(Ordering::SeqCst);
        let streamed = CegO::estimate_resolved(&q, &resolved, Heuristic::RECOMMENDED, None);
        let calls = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(streamed, Ok(estimate), "star({k})");
        assert_eq!(
            calls, ALLOCS_PER_STREAMED_PASS,
            "CegO::estimate_resolved on star({k})"
        );
    }
}
