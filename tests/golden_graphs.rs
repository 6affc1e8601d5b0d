//! Golden generated graphs, recorded on the build before the Zipf
//! sampler searched its cdf through a guide table.
//!
//! `DatasetSpec::generate` draws every edge from one seeded RNG, so a
//! generator that makes the same draws and maps each to the same vertex
//! builds the same graph. `tests/fixtures/golden_graphs.txt` holds, per
//! graph, its edge count and an FNV-1a-64 of its `write_edge_list` bytes:
//! every `Dataset::ALL` at seeds 1 and 42, and the benchmark's two IMDb
//! rung shapes (9k vertices / 22k edge draws and 90k / 220k) at seed
//! 2022. One edge more, fewer or moved changes a line.
//!
//! Regenerate (only when the graphs are *meant* to change) with
//! `GOLDEN_GRAPHS_WRITE=1 cargo test --release --test golden_graphs`.

use std::fmt::Write as _;

use cegraph::graph::io::write_edge_list;
use cegraph::graph::LabeledGraph;
use cegraph::workload::{Dataset, Rung};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_graphs.txt"
);

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn line(out: &mut String, name: &str, seed: u64, graph: &LabeledGraph) {
    let mut bytes = Vec::new();
    write_edge_list(graph, &mut bytes).expect("write to a Vec");
    writeln!(
        out,
        "{name} seed={seed} edges={} fnv1a64={:016x}",
        graph.num_edges(),
        fnv1a64(&bytes)
    )
    .unwrap();
}

/// One line per (graph, seed).
fn render() -> String {
    let mut out = String::new();
    for dataset in Dataset::ALL {
        for seed in [1u64, 42] {
            line(&mut out, dataset.name(), seed, &dataset.generate(seed));
        }
    }
    for k in [1usize, 10] {
        let spec = Rung { k }.spec();
        let name = format!("IMDb-{}v-{}e", spec.num_vertices, spec.num_edges);
        line(&mut out, &name, 2022, &spec.generate(2022));
    }
    out
}

#[test]
fn generated_graphs_match_the_recorded_bytes() {
    let got = render();
    if std::env::var_os("GOLDEN_GRAPHS_WRITE").is_some() {
        std::fs::write(FIXTURE, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("golden fixture is checked in");
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "graph count moved"
    );
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "a generated graph moved");
    }
}
