//! Plain-text edge-list persistence.
//!
//! Format: one edge per line, `src dst label`, whitespace separated; `#`
//! starts a comment. This mirrors the format used by the paper's public
//! artifact repositories for their datasets.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::{GraphBuilder, LabeledGraph};

/// Parse a graph from a reader in `src dst label` format.
pub fn read_edge_list<R: BufRead>(reader: R) -> io::Result<LabeledGraph> {
    let mut b = GraphBuilder::new(0);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> io::Result<u64> {
            tok.ok_or_else(|| bad_line(lineno, what, "missing"))?
                .parse::<u64>()
                .map_err(|_| bad_line(lineno, what, "not an integer"))
        };
        let src = parse(it.next(), "src")? as u32;
        let dst = parse(it.next(), "dst")? as u32;
        let label = parse(it.next(), "label")? as u16;
        b.add_edge(src, dst, label);
    }
    Ok(b.build())
}

fn bad_line(lineno: usize, field: &str, why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {}: field `{field}` {why}", lineno + 1),
    )
}

/// Load a graph from a file path.
pub fn load_graph(path: impl AsRef<Path>) -> io::Result<LabeledGraph> {
    let f = std::fs::File::open(path)?;
    read_edge_list(io::BufReader::new(f))
}

/// Write a graph as an edge list.
pub fn write_edge_list<W: Write>(graph: &LabeledGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for e in graph.all_edges() {
        writeln!(w, "{} {} {}", e.src, e.dst, e.label)?;
    }
    w.flush()
}

/// Save a graph to a file path.
pub fn save_graph(graph: &LabeledGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_edge_list(graph, f)
}

/// Write a graph-only `.cegsnap` binary snapshot: the raw CSR relations
/// plus an epoch, in the checksummed section container of
/// [`crate::snapshot`]. Restoring skips text parsing and CSR
/// construction entirely. The full service snapshot (graph + Markov
/// catalog + epoch) is written by `ceg-catalog::io::write_snapshot` in
/// the same container.
pub fn write_snapshot(path: impl AsRef<Path>, graph: &LabeledGraph, epoch: u64) -> io::Result<()> {
    use crate::snapshot::{atomic_write, write_graph_sections, SnapshotWriter};
    atomic_write(path.as_ref(), |f| {
        let mut w = SnapshotWriter::new(f)?;
        write_graph_sections(&mut w, graph, epoch)?;
        w.finish()?;
        Ok(())
    })
}

/// Read the graph and epoch out of any `.cegsnap` snapshot: the full
/// reader ([`crate::snapshot::read_sections`]) with nothing made of the
/// catalog section, which is skipped like the sections this crate does
/// not know. Corrupt or truncated files are rejected with errors, never
/// panics.
pub fn read_snapshot(path: impl AsRef<Path>) -> io::Result<(LabeledGraph, u64)> {
    let (graph, epoch, _) =
        crate::snapshot::read_sections(&crate::vfs::OsStorage, path.as_ref(), |_| Ok(()))?;
    Ok((graph, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_text() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 0, 0);
        let g = b.build();

        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(g2.num_edges(), 3);
        assert!(g2.has_edge(0, 1, 0));
        assert!(g2.has_edge(1, 2, 1));
        assert!(g2.has_edge(3, 0, 0));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n0 1 0 # trailing comment\n1 2 0\n";
        let g = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_is_an_error() {
        let text = "0 1\n";
        let err = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("label"));
    }

    #[test]
    fn non_integer_is_an_error() {
        let text = "0 x 1\n";
        let err = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("dst"));
    }

    #[test]
    fn binary_snapshot_roundtrips_through_a_file() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 0, 0);
        let g = b.build();
        let path = std::env::temp_dir().join(format!("ceg-io-snap-{}.cegsnap", std::process::id()));
        write_snapshot(&path, &g, 9).unwrap();
        let (g2, epoch) = read_snapshot(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for e in g.all_edges() {
            assert!(g2.has_edge(e.src, e.dst, e.label), "{e:?}");
        }
    }

    #[test]
    fn snapshot_of_garbage_file_is_an_error() {
        let path = std::env::temp_dir().join(format!("ceg-io-junk-{}.cegsnap", std::process::id()));
        std::fs::write(&path, b"this is not a snapshot").unwrap();
        let err = read_snapshot(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
