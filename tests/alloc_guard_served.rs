//! Allocation guard for the served path: the `served` scenario of
//! [`cost`], alone, held to its lines of the ledger. Run alone, its
//! first ranked lock is the first the test thread takes.

mod cost;

#[test]
fn the_served_path_costs_what_the_ledger_says() {
    cost::check(&["served"]);
}
