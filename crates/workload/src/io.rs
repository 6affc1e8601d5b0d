//! Plain-text persistence for workloads.
//!
//! Instantiated workloads (queries + exact cardinalities) are expensive
//! to produce; persisting them makes experiment runs reproducible and
//! lets external tools consume the same query sets. One query per line:
//!
//! ```text
//! <template> <truth> <num_vars> <num_edges> <src> <dst> <label> …
//! ```

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use ceg_graph::LabelId;
use ceg_query::{QueryEdge, QueryGraph, VarId};

use crate::workloads::WorkloadQuery;

/// Serialize a workload.
fn write_workload<W: Write>(queries: &[WorkloadQuery], writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# ceg workload v1: template truth num_vars num_edges (src dst label)*"
    )?;
    for wq in queries {
        write!(
            w,
            "{} {} {} {}",
            wq.template,
            wq.truth,
            wq.query.num_vars(),
            wq.query.num_edges()
        )?;
        for e in wq.query.edges() {
            write!(w, " {} {} {}", e.src, e.dst, e.label)?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Parse a workload written by [`write_workload`]. A field that does not
/// parse or fit its type, a query past [`QueryGraph::MAX_VARS`] variables
/// or [`QueryGraph::MAX_EDGES`] edges, an edge naming a variable outside
/// `0..num_vars`, and tokens after a query's last edge are `InvalidData`
/// errors naming the line.
fn read_workload<R: BufRead>(reader: R) -> io::Result<Vec<WorkloadQuery>> {
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_query(i + 1, line)?);
    }
    Ok(out)
}

/// The query on line `lineno` of a workload file.
fn parse_query(lineno: usize, line: &str) -> io::Result<WorkloadQuery> {
    let bad =
        |why: String| io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {why}"));
    let mut it = line.split_whitespace();
    let template = it
        .next()
        .ok_or_else(|| bad("missing template".into()))?
        .to_string();
    let truth: f64 = it
        .next()
        .ok_or_else(|| bad("missing truth".into()))?
        .parse()
        .map_err(|_| bad("bad truth".into()))?;
    let mut field = |what: &str, max: u64| -> io::Result<u64> {
        let n = it
            .next()
            .ok_or_else(|| bad(format!("field `{what}` missing")))?
            .parse::<u64>()
            .map_err(|_| bad(format!("field `{what}` not an integer")))?;
        if n > max {
            return Err(bad(format!("field `{what}` out of range")));
        }
        Ok(n)
    };
    let num_vars = field("num_vars", u64::MAX)?;
    if num_vars > u64::from(QueryGraph::MAX_VARS) {
        let limit = QueryGraph::MAX_VARS;
        return Err(bad(format!(
            "query has {num_vars} variables (limit {limit})"
        )));
    }
    let num_vars = num_vars as VarId;
    let m = field("num_edges", u64::MAX)?;
    if m > QueryGraph::MAX_EDGES as u64 {
        let limit = QueryGraph::MAX_EDGES;
        return Err(bad(format!("query has {m} edges (limit {limit})")));
    }
    // Grown edge by edge: a count the line cannot back runs out of
    // fields before it runs up an allocation.
    let mut edges = Vec::new();
    for _ in 0..m {
        let src = field("src", VarId::MAX.into())? as VarId;
        let dst = field("dst", VarId::MAX.into())? as VarId;
        let label = field("label", LabelId::MAX.into())? as LabelId;
        if let Some(v) = [src, dst].into_iter().find(|&v| v >= num_vars) {
            return Err(bad(format!("variable {v} outside 0..{num_vars}")));
        }
        edges.push(QueryEdge::new(src, dst, label));
    }
    if it.next().is_some() {
        return Err(bad("tokens after the last edge".into()));
    }
    Ok(WorkloadQuery {
        query: QueryGraph::new(num_vars, edges),
        template,
        truth,
    })
}

/// Save to a file path.
pub fn save_workload(queries: &[WorkloadQuery], path: impl AsRef<Path>) -> io::Result<()> {
    write_workload(queries, std::fs::File::create(path)?)
}

/// Load from a file path.
pub fn load_workload(path: impl AsRef<Path>) -> io::Result<Vec<WorkloadQuery>> {
    read_workload(io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;
    use crate::workloads::Workload;

    #[test]
    fn roundtrip() {
        let g = Dataset::Hetionet.generate(4);
        let w = Workload::Job.build(&g, 1, 4);
        assert!(!w.is_empty());
        let mut buf = Vec::new();
        write_workload(&w, &mut buf).unwrap();
        let w2 = read_workload(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(w.len(), w2.len());
        for (a, b) in w.iter().zip(&w2) {
            assert_eq!(a.query, b.query);
            assert_eq!(a.truth, b.truth);
            assert_eq!(a.template, b.template);
        }
    }

    #[test]
    fn comments_skipped() {
        let text = "# hello\npath-2 5 3 2 0 1 0 1 2 1\n";
        let w = read_workload(io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].truth, 5.0);
        assert_eq!(w[0].query.num_edges(), 2);
    }

    #[test]
    fn truncated_line_is_error() {
        let text = "t 5 3 2 0 1\n";
        assert!(read_workload(io::BufReader::new(text.as_bytes())).is_err());
    }

    /// `line` is refused with an `InvalidData` error reading
    /// `line 2: {why}` (line 1 is a well-formed query).
    fn rejected(line: &str, why: &str) {
        let text = format!("ok 1 2 1 0 1 0\n{line}\n");
        let err = read_workload(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), format!("line 2: {why}"));
    }

    #[test]
    fn too_many_variables_is_error() {
        rejected("t 5 33 1 0 1 0", "query has 33 variables (limit 32)");
        rejected("t 5 256 1 0 1 0", "query has 256 variables (limit 32)");
    }

    #[test]
    fn too_many_edges_is_error() {
        let edges = " 0 1 0".repeat(33);
        rejected(&format!("t 5 2 33{edges}"), "query has 33 edges (limit 32)");
    }

    #[test]
    fn endpoint_outside_the_variables_is_error() {
        rejected("t 5 2 1 0 7 0", "variable 7 outside 0..2");
        rejected("t 5 2 1 2 0 0", "variable 2 outside 0..2");
        rejected("t 5 2 1 0 300 0", "field `dst` out of range");
    }

    /// An edge count the line cannot back fails at its first missing
    /// field or at the limit, never at an allocation.
    #[test]
    fn edge_count_is_checked_before_it_is_trusted() {
        rejected("t 5 2 3 0 1 0", "field `src` missing");
        rejected(
            "t 5 2 18446744073709551615 0 1 0",
            "query has 18446744073709551615 edges (limit 32)",
        );
        rejected(
            "t 5 2 18446744073709551616 0 1 0",
            "field `num_edges` not an integer",
        );
    }

    #[test]
    fn tokens_after_the_last_edge_are_error() {
        rejected("t 5 2 1 0 1 0 7", "tokens after the last edge");
        rejected("t 5 2 0 x", "tokens after the last edge");
    }
}
