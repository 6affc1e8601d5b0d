//! Allocation guard for CEG_O construction: the `ceg_o` scenario of
//! [`cost`], alone, held to its lines of the ledger.

mod cost;

#[test]
fn ceg_o_build_allocates_a_constant_number_of_times() {
    cost::check(&["ceg_o"]);
}
