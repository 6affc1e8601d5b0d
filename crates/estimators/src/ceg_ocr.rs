//! CEG_OCR — the optimistic CEG with cycle-closing rates (Section 4.3).
//!
//! CEG_O breaks cycles longer than the Markov-table size `h` into paths,
//! which makes its estimates badly pessimistic on real graphs (paths vastly
//! outnumber cycles). CEG_OCR keeps CEG_O's vertices and edges but, when an
//! extension closes a cycle longer than `h`, replaces the average-degree
//! rate with the sampled closing probability `P(E_{i-1} * E_{i+1} | E_i)`
//! from a [`CcrTable`].

use ceg_catalog::MarkovTable;
use ceg_core::ceg_o::CegO;
use ceg_query::cycles::simple_cycles;
use ceg_query::QueryGraph;

use crate::CcrTable;

/// Build the CEG_OCR of `query`. Cycle-closing single-edge extensions that
/// close a cycle longer than `table.h()` take their rate from `ccr`;
/// everything else keeps the CEG_O rate.
pub fn build_ceg_ocr(query: &QueryGraph, table: &MarkovTable, ccr: &CcrTable) -> CegO {
    let h = table.h();
    let cycles = simple_cycles(query);
    CegO::build_with_weights(query, table, |s, info| {
        if !info.closes_cycle {
            return None;
        }
        let d = info.ext.difference(s);
        if d.len() != 1 {
            // multi-edge extensions that close cycles keep the CEG_O rate;
            // the paper's construction replaces only the final closing hop
            return None;
        }
        let close_idx = d.iter().next().unwrap();
        let s_next = s.union(d);
        // the cycles closed by this hop, fully contained in S ∪ {d}
        let mut rate: Option<f64> = None;
        for cyc in &cycles {
            if cyc.len() <= h || !cyc.contains(close_idx) {
                continue;
            }
            if !cyc.is_subset_of(s_next) {
                continue;
            }
            if !cyc.remove(close_idx).is_subset_of(s) {
                continue;
            }
            if let Some(key) = CcrTable::key_for_closing(query, *cyc, close_idx) {
                if let Some(r) = ccr.rate(&key) {
                    // if several long cycles close simultaneously, assume
                    // independence and multiply their closing probabilities
                    rate = Some(rate.unwrap_or(1.0) * r);
                }
            }
        }
        rate
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_core::ceg::{Aggr, Heuristic, PathLen};
    use ceg_core::ceg_o::CegO;
    use ceg_exec::count;
    use ceg_graph::{GraphBuilder, LabeledGraph};
    use ceg_query::templates;

    /// Sparse 4-cycle structure: many 4-paths, few 4-cycles.
    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(64);
        // a grid of 4-paths 0→1→2→3 with labels 0..=3, only some closing
        for i in 0..12u32 {
            let base = 4 * i;
            b.add_edge(base, base + 1, 0);
            b.add_edge(base + 1, base + 2, 1);
            b.add_edge(base + 2, base + 3, 2);
            if i % 3 == 0 {
                b.add_edge(base + 3, base, 3); // closes the cycle sometimes
            } else {
                b.add_edge(base + 3, 48 + i, 3); // dangling, breaks the cycle
            }
        }
        b.build()
    }

    fn four_cycle() -> ceg_query::QueryGraph {
        templates::cycle(4, &[0, 1, 2, 3])
    }

    #[test]
    fn ocr_reduces_overestimation_on_large_cycles() {
        let g = toy();
        let q = four_cycle();
        let qs = [q.clone()];
        let table = MarkovTable::build(&g, &qs, 2);
        let ccr = CcrTable::build(&g, &qs, 2000, 11);

        let ceg_o = CegO::build(&q, &table);
        let ceg_ocr = build_ceg_ocr(&q, &table, &ccr);
        let h = Heuristic::new(PathLen::MaxHop, Aggr::Max);
        let est_o = ceg_o.ceg().estimate(h).unwrap();
        let est_ocr = ceg_ocr.ceg().estimate(h).unwrap();
        let truth = count(&g, &q) as f64;
        assert!(truth > 0.0);
        // CEG_O estimates the broken 4-path and overestimates; the CCR
        // correction must bring the estimate closer to the truth.
        assert!(
            est_o > truth,
            "CEG_O should overestimate: {est_o} vs {truth}"
        );
        assert!(
            (est_ocr.max(1e-12).ln() - truth.ln()).abs() < (est_o.ln() - truth.ln()).abs(),
            "OCR {est_ocr} not closer to {truth} than O {est_o}"
        );
    }

    #[test]
    fn ocr_equals_o_on_acyclic_queries() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let qs = [q.clone()];
        let table = MarkovTable::build(&g, &qs, 2);
        let ccr = CcrTable::build(&g, &qs, 100, 3);
        let o = CegO::build(&q, &table);
        let ocr = build_ceg_ocr(&q, &table, &ccr);
        for h in Heuristic::all() {
            assert_eq!(o.ceg().estimate(h), ocr.ceg().estimate(h), "{}", h.name());
        }
    }

    #[test]
    fn ocr_rates_are_at_most_one_on_closing_hops() {
        let g = toy();
        let q = four_cycle();
        let qs = [q.clone()];
        let table = MarkovTable::build(&g, &qs, 2);
        let ccr = CcrTable::build(&g, &qs, 500, 5);
        let ocr = build_ceg_ocr(&q, &table, &ccr);
        for e in ocr.ceg().edges() {
            let info = ocr.ext_info(e.tag);
            if info.closes_cycle && e.to == ocr.ceg().top() {
                assert!(e.rate <= 1.0 + 1e-9, "closing rate {} > 1", e.rate);
            }
        }
    }
}
