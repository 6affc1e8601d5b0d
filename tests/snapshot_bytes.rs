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
use cegraph::query::QueryGraph;
use cegraph::workload::{Rung, Workload};

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
    println!(
        "{} entries over {} edges: GRPH {grph} B ({:.3} B/edge), MRKV {mrkv} B ({:.3} B/edge), \
         fixed-width MRKV {fixed_width} B ({:.3} B/edge), file {len} B ({:.3} B/edge)",
        table.len(),
        graph.num_edges(),
        grph as f64 / edges,
        mrkv as f64 / edges,
        fixed_width as f64 / edges,
        len as f64 / edges,
    );
    // 0.176 B/edge of catalog where the fixed-width layout took 0.628;
    // 1.899 B/edge of graph where format version 4's LEB128 gaps took
    // 2.517.
    assert_eq!(
        (table.len(), graph.num_edges()),
        (657, 18_660),
        "the seeded graph or pool moved"
    );
    const V4_GRPH: u64 = 46_959;
    assert!(
        5 * grph <= 4 * V4_GRPH,
        "GRPH is {grph} B, more than 80 % of format version 4's {V4_GRPH} B"
    );
    assert!(
        10 * mrkv <= 4 * fixed_width,
        "MRKV is {mrkv} B, more than 40 % of the fixed-width {fixed_width} B"
    );
}
