//! Allocation guard, by peak live bytes, for writing and reading a
//! snapshot: the `snapshot` scenario of [`cost`], alone, held to its lines
//! of the ledger.

mod cost;

#[test]
fn snapshot_write_and_read_hold_a_buffer_not_a_section() {
    cost::check(&["snapshot"]);
}
