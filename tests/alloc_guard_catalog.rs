//! Exactness guard for `MarkovTable::heap_bytes`: the `catalog` scenario
//! of [`cost`], alone, held to its lines of the ledger.

mod cost;

#[test]
fn catalog_heap_bytes_are_exactly_what_the_table_holds() {
    cost::check(&["catalog"]);
}
