//! # ceg-graph
//!
//! Storage substrate for the CEG cardinality-estimation library.
//!
//! A dataset is an edge-labeled directed graph, equivalently a set of binary
//! relations — one relation per edge label, holding `(source, destination)`
//! pairs (Section 2 of the paper). The [`LabeledGraph`] type stores each
//! label's relation as a pair of CSR indexes (forward and backward) so that
//! degree lookups are O(1), neighbour scans are cache-friendly, and edge
//! membership tests are O(log deg).
//!
//! The crate also provides:
//! * [`GraphBuilder`] — incremental construction with duplicate removal,
//! * [`GraphDelta`] / [`OverlayGraph`] / [`LabeledGraph::rebase`] — the
//!   live-update layer: batched edge insertions/deletions overlaid on the
//!   immutable CSR, folded into a fresh graph once a delta grows large,
//! * [`GraphView`] — the read-access trait the counting kernel is generic
//!   over, implemented by both the CSR graph and the overlay,
//! * [`hash`] — a small FxHash-style hasher used throughout the workspace,
//! * [`io`] — plain-text edge-list persistence,
//! * [`stats`] — per-label summary statistics used by estimators,
//! * [`vfs`] — the [`vfs::Storage`] seam durable I/O routes through,
//!   with the fault-injecting [`vfs::FaultStorage`] for crash testing,
//! * [`wal`] — the append-only `.cegwal` commit log with torn-tail
//!   prefix recovery.
//!
//! # Example
//!
//! ```
//! use ceg_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 0); // src, dst, label
//! b.add_edge(1, 2, 0);
//! b.add_edge(1, 2, 1);
//! let g = b.build();
//!
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.label_count(0), 2);           // |R_0|
//! assert_eq!(g.out_neighbors(1, 0), &[2]);   // forward index
//! assert_eq!(g.in_neighbors(2, 1), &[1]);    // backward index
//! assert_eq!(g.max_out_degree(0), 1);
//! ```

pub mod builder;
pub mod csr;
pub mod delta;
pub mod graph;
pub mod hash;
pub mod intersect;
pub mod io;
pub mod overlay;
pub mod snapshot;
pub mod stats;
pub mod sync;
pub mod vfs;
pub mod view;
pub mod wal;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use delta::GraphDelta;
pub use graph::{Edge, LabeledGraph};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use intersect::{gallop, intersect_into, refine_in_place, VertexBitset};
pub use overlay::OverlayGraph;
pub use stats::LabelStats;
pub use view::GraphView;

/// Identifier of a data vertex. Kept at 32 bits: the paper's largest dataset
/// has 45M vertices and our simulated stand-ins are far smaller.
pub type VertexId = u32;

/// Identifier of an edge label (= one binary relation). The paper's datasets
/// have 24–127 labels, so 16 bits is ample.
pub type LabelId = u16;
