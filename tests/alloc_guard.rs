//! Allocation guard for the counting kernel: the `kernel` scenario of
//! [`cost`], alone, held to its lines of the ledger.

mod cost;

#[test]
fn six_edge_cycle_counts_without_post_setup_allocations() {
    cost::check(&["kernel"]);
}
