//! # ceg-service
//!
//! A long-running, concurrent cardinality-estimation service on top of
//! the CEG estimators. `cegtool estimate` reloads the graph and rebuilds
//! the catalog (or reads a `cegtool stats` snapshot) on every call; this
//! crate keeps both warm and shares them:
//!
//! * [`registry`] — the process's one dataset, loaded once into a
//!   [`DatasetRegistry`] and served from one pinned epoch per request.
//!   Its Markov catalog grows as unseen patterns arrive. `ADD_EDGE` /
//!   `DEL_EDGE` buffer a pending delta; `COMMIT` logs its effective part, folds it into a fresh CSR,
//!   recounts the touched catalog entries and publishes the next epoch
//!   (`registry/commit.rs`). `registry/durability.rs` owns the WAL, the
//!   `.cegsnap` snapshot it replays onto, boot-time recovery and the fold;
//!   `SNAPSHOT` writes a snapshot to any other `.cegsnap` path, and
//!   `cegcli serve --snapshot` restores one,
//! * [`cache`] — an [`EstimateCache`] (LRU) keyed by each query's
//!   canonical [`ceg_query::Certificate`], tagged with the epoch it was
//!   computed at,
//! * [`engine`] — the one estimate path, [`Engine::estimate_batch`]: one
//!   cache probe per query, then per miss an admission permit (`BUSY`
//!   past [`ServerConfig::queue_cap`]), a run slot, the catalog fill
//!   under the request's deadline (`TIMEOUT`), the estimate and the
//!   store — on the calling thread, and for a batch with several misses
//!   also on scoped helpers that end with the request,
//! * [`protocol`] / [`server`] / [`client`] — a line-delimited text
//!   protocol over `std::net::TcpListener`, served by `cegcli serve` and
//!   spoken by `cegtool query` ([`Client`]) or netcat. Every accepted
//!   request gets exactly one typed reply, and carries an `id=<n>` that
//!   the slow-query log and the drain report (`SHUTDOWN`: final
//!   snapshots, exit 0) name too,
//! * [`metrics`] — the lock-free registry behind `METRICS` and
//!   `METRICS_PROM`; `EXPLAIN_ESTIMATE` adds one request's
//!   [`ceg_core::trace::Trace`] to its answer,
//! * [`memory`] — the process's resident set from `/proc/self/status`,
//!   and the release of the heap a commit freed once it is acked.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ceg_graph::GraphBuilder;
//! use ceg_query::templates;
//! use ceg_service::{Client, DatasetRegistry, Server, ServerConfig};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 0);
//! b.add_edge(1, 2, 1);
//! b.add_edge(1, 3, 1);
//! let registry = Arc::new(DatasetRegistry::new());
//! registry.insert_graph("default", b.build(), 2);
//!
//! let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client.estimate("default", &templates::path(2, &[0, 1])).unwrap();
//! assert_eq!(reply.value, Some(2.0));
//! assert!(!reply.cached);
//! let again = client.estimate("default", &templates::path(2, &[0, 1])).unwrap();
//! assert!(again.cached);
//! drop(server);
//! ```

// The panic-path rule: a request is answered with a typed reply, never
// a panic. Tests are exempt (the root clippy.toml's `allow-*-in-tests`);
// any other exception is an `#[expect(.., reason = "..")]` at its site.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod memory;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;

pub use cache::{EstimateCache, ProbeOutcome};
pub use client::{Client, EstimateReply, ExplainReply, QueryReply};
pub use engine::{
    Engine, EstimateOutcome, QueryOutcome, RequestCtx, SlowQueryEntry, SnapshotAck, UpdateAck,
    DEFAULT_SLOW_QUERY_THRESHOLD_MS,
};
pub use memory::proc_status;
pub use metrics::{Histogram, Metrics, Series};
pub use protocol::{Command, ExplainItem, Request, Response, MAX_BATCH_QUERIES};
pub use registry::{
    CommitOutcome, DatasetEntry, DatasetRegistry, RecoveryReport, RotateOutcome, MAX_PENDING_OPS,
    MAX_UPDATE_LABEL, MAX_UPDATE_VERTEX,
};
pub use server::{DrainReport, Server, ServerConfig};
