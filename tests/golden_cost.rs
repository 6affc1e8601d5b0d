//! The cost ledger, whole: every scenario of [`cost`] in sequence, held
//! to every line of `tests/fixtures/golden_cost.txt`.
//!
//! Re-record (only when a cost is *meant* to change, saying why) with
//! `GOLDEN_COST_WRITE=1 cargo test --release --test golden_cost`.

mod cost;

#[test]
fn every_guarded_path_costs_what_the_ledger_says() {
    cost::check(&cost::SCENARIOS.map(|(name, _)| name));
}
