//! The bytes a snapshot costs. A fixed seeded h = 2 catalog — the IMDb
//! stand-in at the benchmark's `g10k` shape, over a small Job + Acyclic
//! pool — is written to a `.cegsnap`, and the payload length of each
//! section is read back from the container and held against the layouts
//! it replaced. The exact bytes of this cell repeat per seed and are
//! pinned once, by the cost ledger's `snapshot.sections.g10k` line
//! (`tests/cost/mod.rs`); `-- --nocapture` prints them here.

use cegraph::catalog::io::write_snapshot;
use cegraph::catalog::MarkovTable;
use cegraph::graph::snapshot::{SnapshotReader, TAG_GRAPH, TAG_MARKOV};
use cegraph::graph::LabeledGraph;
use cegraph::query::QueryGraph;
use cegraph::workload::{Rung, Workload};

/// Bits of the Elias-γ code of `x >= 1`.
fn gamma_bits(x: u64) -> u64 {
    2 * u64::from(x.ilog2()) + 1
}

/// Bits of the Rice code of `v` with parameter `k`.
fn rice_bits(v: u64, k: u32) -> u64 {
    (v >> k) + 1 + u64::from(k)
}

/// Bytes of `g`'s `GRPH` payload in format version 5: the two graph
/// counts, then per label two counts and a byte-padded bit stream of,
/// per row, the γ of its id's gap plus one and of its degree, and the
/// Rice codes of its target-id gaps with `k = ⌊log2(num_vertices /
/// degree)⌋`.
fn v5_graph_payload_len(g: &LabeledGraph) -> u64 {
    let n = g.num_vertices() as u64;
    let relation = |l: u16| {
        let mut bits = 0;
        let mut next_row = 0;
        for (v, row) in g.rows(l, false) {
            let (v, degree) = (u64::from(v), row.len() as u64);
            bits += gamma_bits(v - next_row + 1) + gamma_bits(degree);
            next_row = v + 1;
            let k = (n / degree).ilog2();
            let mut next = 0;
            for &t in row {
                bits += rice_bits(u64::from(t) - next, k);
                next = u64::from(t) + 1;
            }
        }
        16 + u64::div_ceil(bits, 8)
    };
    16 + (0..g.num_labels() as u16).map(relation).sum::<u64>()
}

#[test]
fn catalog_section_of_a_seeded_h2_catalog_is_pinned() {
    let graph = Rung { k: 1 }.graph(2022);
    let queries: Vec<QueryGraph> = [Workload::Job, Workload::Acyclic]
        .iter()
        .flat_map(|w| w.build(&graph, 12, 2022))
        .map(|q| q.query)
        .collect();
    let table = MarkovTable::build(&graph, &queries, 2);

    let path = std::env::temp_dir().join(format!("ceg-bytes-{}.cegsnap", std::process::id()));
    write_snapshot(&path, &graph, &table, 0).unwrap();
    let len = std::fs::metadata(&path).unwrap().len();
    let mut r = SnapshotReader::new(std::fs::File::open(&path).unwrap(), len).unwrap();
    let mut sections = Vec::new();
    while let Some(section) = r
        .next_section(|tag, body| Ok((tag, body.remaining())))
        .unwrap()
    {
        sections.push(section);
    }
    std::fs::remove_file(&path).unwrap();
    let payload = |tag| sections.iter().find(|s| s.0 == tag).unwrap().1;

    let edges = graph.num_edges() as f64;
    let (grph, mrkv) = (payload(TAG_GRAPH), payload(TAG_MARKOV));
    // The layout before: `u64 h, u64 count`, then per entry a `u64`
    // cardinality, a `u16` edge count and four bytes per edge.
    let fixed_width: u64 = 16
        + table
            .iter()
            .map(|(p, _)| 10 + 4 * p.num_edges() as u64)
            .sum::<u64>();
    let v5 = v5_graph_payload_len(&graph);
    println!(
        "{} entries over {} edges: GRPH {grph} B ({:.3} B/edge), v5 GRPH {v5} B ({:.3} B/edge), \
         MRKV {mrkv} B ({:.3} B/edge), fixed-width MRKV {fixed_width} B ({:.3} B/edge), \
         file {len} B ({:.3} B/edge)",
        table.len(),
        graph.num_edges(),
        grph as f64 / edges,
        v5 as f64 / edges,
        mrkv as f64 / edges,
        fixed_width as f64 / edges,
        len as f64 / edges,
    );
    // 0.176 B/edge of catalog where the fixed-width layout took 0.628;
    // 1.554 B/edge of graph where format version 5's domain-wide Rice
    // codes took 1.899 and version 4's LEB128 gaps 2.517.
    assert_eq!(
        (table.len(), graph.num_edges()),
        (657, 18_660),
        "the seeded graph or pool moved"
    );
    assert_eq!(v5, 35_442, "the v5 layout's length is what v5 wrote");
    assert!(
        100 * grph <= 85 * v5,
        "GRPH is {grph} B, more than 85 % of format version 5's {v5} B"
    );
    assert!(
        10 * mrkv <= 4 * fixed_width,
        "MRKV is {mrkv} B, more than 40 % of the fixed-width {fixed_width} B"
    );
}
