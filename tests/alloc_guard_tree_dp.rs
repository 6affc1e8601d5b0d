//! Allocation guard, by bytes, for counting acyclic Markov patterns: the
//! `tree_dp` scenario of [`cost`], alone, held to its lines of the ledger.

mod cost;

#[test]
fn counting_acyclic_patterns_allocates_by_relation_not_by_domain() {
    cost::check(&["tree_dp"]);
}
