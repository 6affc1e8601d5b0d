//! Allocation and size guard for the estimate cache: the `cache` scenario
//! of [`cost`], alone, held to its lines of the ledger.

mod cost;

#[test]
fn a_full_wide_cache_is_small_and_stores_at_capacity_allocate_nothing() {
    cost::check(&["cache"]);
}
