//! Allocation guard, by peak live bytes, for one commit on the served
//! graph: the `commit` scenario of [`cost`], alone, held to its lines of
//! the ledger.

mod cost;

#[test]
fn a_commit_holds_its_touched_pages_not_its_touched_relations() {
    cost::check(&["commit"]);
}
