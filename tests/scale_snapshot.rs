//! Nightly scale check of the snapshot paths (`cargo test --release --
//! --ignored`): at 10^6 edges — the scale ROADMAP item 3(a) asks for and
//! twice the paper's smallest graph — a snapshot write holds no copy of
//! the graph and a read holds one, by the process's own peak resident
//! set. Alone in its file: the peak is the process's, and no other test
//! may move it.

#![cfg(target_os = "linux")]

use cegraph::graph::io::{read_snapshot, write_snapshot};
use cegraph::workload::{Dataset, DatasetSpec};

/// A `VmHWM` / `VmRSS` line of `/proc/self/status`, in bytes.
fn status_bytes(key: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: usize = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("the status line parses");
    kb * 1024
}

/// Peak resident bytes `f` adds to what is resident when it starts: the
/// high-water mark is reset to the current resident set first
/// (`clear_refs` 5), so an earlier, higher peak cannot hide `f`'s.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, usize) {
    std::fs::write("/proc/self/clear_refs", "5").expect("the peak resets (Linux >= 4.0)");
    let before = status_bytes("VmHWM:");
    assert!(
        before <= status_bytes("VmRSS:") + (1 << 20),
        "the reset took"
    );
    let r = f();
    (r, status_bytes("VmHWM:").saturating_sub(before))
}

#[test]
#[ignore = "nightly: a 10^6-edge graph, ~100 MB resident"]
fn million_edge_snapshot_roundtrip_holds_one_graph() {
    // The bench rungs' shape (the IMDb stand-in, 32 labels), 64 times
    // g10k: 576k vertices, 1.41M edge draws.
    let graph = DatasetSpec {
        num_vertices: 64 * 9_000,
        num_edges: 64 * 22_000,
        ..Dataset::Imdb.spec()
    }
    .generate(2022);
    assert!(graph.num_edges() >= 1_000_000, "{}", graph.num_edges());
    assert_eq!(graph.num_labels(), 32);
    let heap = graph.heap_bytes();

    let path = std::env::temp_dir().join(format!("ceg-scale-{}.cegsnap", std::process::id()));
    let (written, grew) = peak_growth(|| write_snapshot(&path, &graph, 3));
    written.unwrap();
    eprintln!(
        "{} edges, {heap} heap bytes: the write raised the peak by {grew} bytes",
        graph.num_edges()
    );
    assert!(
        grew <= 1 << 20,
        "writing a graph of {heap} bytes raised the peak by {grew}"
    );

    let (read, grew) = peak_growth(|| read_snapshot(&path));
    std::fs::remove_file(&path).unwrap();
    let (back, epoch) = read.unwrap();
    assert_eq!(epoch, 3);
    eprintln!(
        "the read raised the peak by {grew} bytes ({:.3} x heap)",
        grew as f64 / heap as f64
    );
    assert!(
        grew as f64 <= 1.15 * heap as f64,
        "reading a graph of {heap} bytes raised the peak by {grew}"
    );

    assert_eq!(back.num_vertices(), graph.num_vertices());
    assert_eq!(back.num_labels(), graph.num_labels());
    assert_eq!(back.heap_bytes(), heap);
    for l in 0..graph.num_labels() as u16 {
        for backward in [false, true] {
            assert!(
                graph.rows(l, backward).eq(back.rows(l, backward)),
                "label {l} backward={backward}"
            );
        }
    }
}
