//! Plain-text edge-list persistence.
//!
//! Format: one edge per line, `src dst label`, whitespace separated; `#`
//! starts a comment. This mirrors the format used by the paper's public
//! artifact repositories for their datasets.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::{GraphBuilder, LabelId, LabeledGraph, VertexId};

/// Parse a graph from a reader in `src dst label` format.
pub fn read_edge_list<R: BufRead>(reader: R) -> io::Result<LabeledGraph> {
    let mut b = GraphBuilder::new(0);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (src, dst, label) = parse_edge(lineno, line)?;
        b.add_edge(src, dst, label);
    }
    Ok(b.build())
}

/// The edge on line `lineno` (0-based) of an edge list, comments
/// stripped: each field an integer that fits its id type.
fn parse_edge(lineno: usize, line: &str) -> io::Result<(VertexId, VertexId, LabelId)> {
    let mut it = line.split_whitespace();
    let mut parse = |what: &str, max: u64| -> io::Result<u64> {
        let n = it
            .next()
            .ok_or_else(|| bad_line(lineno, what, "missing"))?
            .parse::<u64>()
            .map_err(|_| bad_line(lineno, what, "not an integer"))?;
        if n > max {
            return Err(bad_line(lineno, what, "out of range"));
        }
        Ok(n)
    };
    let src = parse("src", VertexId::MAX as u64)? as VertexId;
    let dst = parse("dst", VertexId::MAX as u64)? as VertexId;
    let label = parse("label", LabelId::MAX as u64)? as LabelId;
    Ok((src, dst, label))
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

/// Write a graph as an edge list: `src dst label` per line, in
/// [`LabeledGraph::all_edges`] order. Each line is formatted by hand into
/// one buffer and written at once, the bytes being those of
/// `writeln!(w, "{} {} {}", ..)` in about half its time.
pub fn write_edge_list<W: Write>(graph: &LabeledGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    // Two `u32` ids and a `u16` label, at most 10 + 10 + 5 digits, three
    // separators.
    let mut line = [0u8; 28];
    for e in graph.all_edges() {
        let mut end = 0;
        for (value, sep) in [(e.src, b' '), (e.dst, b' '), (u32::from(e.label), b'\n')] {
            end += write_decimal(value, &mut line[end..]);
            line[end] = sep;
            end += 1;
        }
        w.write_all(&line[..end])?;
    }
    w.flush()
}

/// `n` in decimal at the start of `out`; returns the digit count.
fn write_decimal(mut n: u32, out: &mut [u8]) -> usize {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let len = digits.len() - i;
    out[..len].copy_from_slice(&digits[i..]);
    len
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

    /// The hand-formatted lines are `writeln!`'s bytes.
    #[test]
    fn edge_list_bytes_are_the_formatted_lines() {
        let mut buf = [0u8; 10];
        for n in [0, 7, 9, 10, 99, 100, 65_535, 1_000_000_000, u32::MAX] {
            let len = write_decimal(n, &mut buf);
            assert_eq!(&buf[..len], n.to_string().as_bytes());
        }
        let mut b = GraphBuilder::new(0);
        for (s, d, l) in [(0, 0, 0), (9, 10, 300), (123_456, 7, 99), (5, 100_000, 1)] {
            b.add_edge(s, d, l);
        }
        let g = b.build();
        let mut got = Vec::new();
        write_edge_list(&g, &mut got).unwrap();
        let mut want = Vec::new();
        for e in g.all_edges() {
            writeln!(want, "{} {} {}", e.src, e.dst, e.label).unwrap();
        }
        assert_eq!(
            String::from_utf8(got).unwrap(),
            String::from_utf8(want).unwrap()
        );
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

    /// Ids are checked against their type, never truncated into it: the
    /// largest vertex id parses (a graph over that domain is not built
    /// here, it would need gigabytes), one past it and label 65536 are
    /// refused by the reader with the field named.
    #[test]
    fn ids_past_their_type_are_out_of_range() {
        let max = u32::MAX;
        assert_eq!(
            parse_edge(0, &format!("{max} {max} 65535")).unwrap(),
            (max, max, 65535)
        );
        for (text, field) in [
            ("0 1 0\n4294967296 1 0\n", "src"),
            ("0 4294967296 0\n", "dst"),
            ("0 1 65536\n", "label"),
        ] {
            let err = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            let line = text.lines().count();
            assert_eq!(
                err.to_string(),
                format!("line {line}: field `{field}` out of range")
            );
        }
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
