//! Allocation guard for the counting kernel.
//!
//! A [`CountPlan`] does all of its allocation up front (extension plans,
//! root candidate lists, per-depth buffers sized from cached maximum
//! degrees); the recursion itself must never touch the allocator. This
//! binary installs a counting global allocator and asserts exactly that
//! on a 6-edge cycle query — the satellite criterion for the kernel
//! rewrite. A single test lives here so no concurrent test case can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cegraph::exec::{CountBudget, CountPlan, IntersectStrategy, VarConstraints};
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

#[test]
fn six_edge_cycle_counts_without_post_setup_allocations() {
    // Two 6-rings: label 0 closes six 6-cycles, label 1 is a decoy ring,
    // plus chords so intersections see non-trivial lists.
    let mut b = GraphBuilder::new(12);
    for i in 0..6u32 {
        b.add_edge(i, (i + 1) % 6, 0);
        b.add_edge(6 + i, 6 + (i + 1) % 6, 1);
        b.add_edge(i, 6 + i, 0);
    }
    let g = b.build();
    let q = templates::cycle(6, &[0; 6]);
    let cons = VarConstraints::none(q.num_vars());

    // Setup (allocates: plans, root list, buffers) …
    let mut plan = CountPlan::new(&g, &q, &cons, IntersectStrategy::Adaptive);

    // … then counting runs allocation-free, to completion or to a trip.
    let before = ALLOCS.load(Ordering::SeqCst);
    let (total, _) = plan.count(CountBudget::UNLIMITED);
    let (budgeted, _) = plan.count(CountBudget::new(3));
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "counting a 6-edge cycle allocated post-setup"
    );
    assert_eq!(total, Some(6), "each rotation of the label-0 ring matches");
    assert_eq!(budgeted, None, "budget of 3 must exhaust");

    // The bitset path must hold the same invariant: its per-depth
    // bitsets are plan-time allocations, lazily reset (never reallocated)
    // as the stable binding moves, so a forced-bitset counting plan also
    // runs allocation-free — across repeated reuses of the same plan.
    let mut bitset_plan = CountPlan::new(&g, &q, &cons, IntersectStrategy::Bitset);
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..3 {
        let (count, _) = bitset_plan.count(CountBudget::UNLIMITED);
        assert_eq!(count, Some(6), "bitset path agrees with merge");
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "the bitset intersection path allocated post-setup"
    );
}
