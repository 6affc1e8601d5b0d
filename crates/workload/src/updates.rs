//! Update-stream workloads: scripted edge insertions/deletions for the
//! live-update path.
//!
//! A stream is a flat list of [`UpdateOp`]s — `add`/`del` edge operations
//! punctuated by `commit` barriers — exactly mirroring the service's
//! `ADD_EDGE`/`DEL_EDGE`/`COMMIT` wire commands. [`generate_update_stream`]
//! produces a seeded random stream against a concrete graph (deletions
//! sample real edges, insertions sample the existing domain and label
//! set, so a realistic fraction of operations is effective rather than
//! no-op); the `.upd` text format persists streams for `cegtool update`
//! and the CI smoke script:
//!
//! ```text
//! # comments and blank lines are ignored
//! add <src> <dst> <label>
//! del <src> <dst> <label>
//! commit
//! ```

use std::io::{self, BufRead};
use std::path::Path;

use ceg_graph::{GraphDelta, LabelId, LabeledGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted update operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert `src -label-> dst`.
    Add {
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    },
    /// Delete `src -label-> dst`.
    Del {
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    },
    /// Apply everything buffered since the previous commit.
    Commit,
}

/// Generate a seeded random update stream against `graph`: `ops` edge
/// operations with a `COMMIT` barrier every `commit_every` of them (and a
/// final one), roughly balanced between insertions of new edges and
/// deletions of edges present at generation time.
///
/// The stream is deterministic in `(graph, ops, commit_every, seed)`.
/// Deletions are sampled from the *initial* edge set, so a later deletion
/// can be a no-op if an earlier one already removed the edge — real
/// client streams have exactly this property, and the service's
/// normalization is expected to absorb it.
pub fn generate_update_stream(
    graph: &LabeledGraph,
    ops: usize,
    commit_every: usize,
    seed: u64,
) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let commit_every = commit_every.max(1);
    let num_labels = graph.num_labels().max(1) as LabelId;
    let num_vertices = graph.num_vertices().max(1) as VertexId;
    let all_edges: Vec<(VertexId, VertexId, LabelId)> = (0..num_labels)
        .flat_map(|l| graph.edges(l).map(move |(s, d)| (s, d, l)))
        .collect();
    let mut stream = Vec::with_capacity(ops + ops / commit_every + 1);
    let mut since_commit = 0usize;
    for _ in 0..ops {
        let delete = !all_edges.is_empty() && rng.random_range(0..2) == 0;
        if delete {
            let (src, dst, label) = all_edges[rng.random_range(0..all_edges.len())];
            stream.push(UpdateOp::Del { src, dst, label });
        } else {
            stream.push(UpdateOp::Add {
                src: rng.random_range(0..num_vertices),
                dst: rng.random_range(0..num_vertices),
                label: rng.random_range(0..num_labels),
            });
        }
        since_commit += 1;
        if since_commit == commit_every {
            stream.push(UpdateOp::Commit);
            since_commit = 0;
        }
    }
    if since_commit > 0 {
        stream.push(UpdateOp::Commit);
    }
    stream
}

/// The graph a stream leaves behind: every operation folded into `base`
/// in order (commit barriers only matter for epoch accounting, not for
/// the final edge set). Tests compare a live server against a cold one
/// loaded with this.
pub fn final_graph(base: &LabeledGraph, stream: &[UpdateOp]) -> LabeledGraph {
    let mut delta = GraphDelta::new();
    for op in stream {
        match *op {
            UpdateOp::Add { src, dst, label } => delta.add_edge(src, dst, label),
            UpdateOp::Del { src, dst, label } => delta.del_edge(src, dst, label),
            UpdateOp::Commit => {}
        }
    }
    base.rebase(&delta)
}

/// Parse a stream in the `.upd` text format: one `add|del <src> <dst>
/// <label>` or `commit` per line; `#` comments and blank lines are
/// ignored.
fn read_updates<R: BufRead>(reader: R) -> io::Result<Vec<UpdateOp>> {
    let mut stream = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let op = it.next().expect("non-empty line has a first token");
        let parsed = match op {
            "commit" => {
                if it.next().is_some() {
                    return Err(bad(lineno, "commit takes no arguments"));
                }
                UpdateOp::Commit
            }
            "add" | "del" => {
                let mut num = |what: &str, max: u64| -> io::Result<u64> {
                    let n: u64 = it
                        .next()
                        .ok_or_else(|| bad(lineno, &format!("missing {what}")))?
                        .parse()
                        .map_err(|_| bad(lineno, &format!("bad {what}")))?;
                    if n > max {
                        return Err(bad(lineno, &format!("{what} out of range")));
                    }
                    Ok(n)
                };
                let src = num("src", VertexId::MAX as u64)? as VertexId;
                let dst = num("dst", VertexId::MAX as u64)? as VertexId;
                let label = num("label", LabelId::MAX as u64)? as LabelId;
                if it.next().is_some() {
                    return Err(bad(lineno, "trailing tokens"));
                }
                if op == "add" {
                    UpdateOp::Add { src, dst, label }
                } else {
                    UpdateOp::Del { src, dst, label }
                }
            }
            other => return Err(bad(lineno, &format!("unknown operation `{other}`"))),
        };
        stream.push(parsed);
    }
    Ok(stream)
}

fn bad(lineno: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {}: {msg}", lineno + 1),
    )
}

/// Load a stream from a file path.
pub fn load_updates(path: impl AsRef<Path>) -> io::Result<Vec<UpdateOp>> {
    read_updates(io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_graph::GraphBuilder;

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 3, 1);
        b.add_edge(3, 4, 1);
        b.build()
    }

    #[test]
    fn generation_is_deterministic_and_commit_punctuated() {
        let g = toy();
        let a = generate_update_stream(&g, 10, 3, 42);
        let b = generate_update_stream(&g, 10, 3, 42);
        assert_eq!(a, b);
        let c = generate_update_stream(&g, 10, 3, 43);
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.iter().filter(|op| **op == UpdateOp::Commit).count(), 4);
        assert_eq!(a.last(), Some(&UpdateOp::Commit));
        assert_eq!(a.len(), 14);
    }

    #[test]
    fn hand_written_files_parse() {
        let text = "# header\n\nadd 0 5 1\ndel 1 2 0\ncommit\n";
        let stream = read_updates(io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(
            stream,
            vec![
                UpdateOp::Add {
                    src: 0,
                    dst: 5,
                    label: 1
                },
                UpdateOp::Del {
                    src: 1,
                    dst: 2,
                    label: 0
                },
                UpdateOp::Commit,
            ]
        );
    }

    #[test]
    fn malformed_files_are_rejected() {
        for text in [
            "bogus 1 2 3\n",
            "add 1 2\n",
            "add 1 2 x\n",
            "add 1 2 3 4\n",
            "del 1 2 99999\n",          // label out of range
            "add 4294967296 7 0\n",     // src wider than a VertexId
            "add 7 99999999999999 0\n", // dst wider than a VertexId
            "commit now\n",
        ] {
            assert!(
                read_updates(io::BufReader::new(text.as_bytes())).is_err(),
                "should reject {text:?}"
            );
        }
    }

    #[test]
    fn final_graph_folds_the_whole_stream() {
        let g = toy();
        let stream = vec![
            UpdateOp::Add {
                src: 4,
                dst: 5,
                label: 0,
            },
            UpdateOp::Commit,
            UpdateOp::Del {
                src: 0,
                dst: 1,
                label: 0,
            },
            UpdateOp::Add {
                src: 4,
                dst: 5,
                label: 0,
            }, // duplicate add
            UpdateOp::Commit,
        ];
        let f = final_graph(&g, &stream);
        assert!(f.has_edge(4, 5, 0));
        assert!(!f.has_edge(0, 1, 0));
        assert_eq!(f.num_edges(), g.num_edges()); // +1 -1
    }
}
