//! # ceg-service
//!
//! A long-running, concurrent cardinality-estimation service on top of the
//! CEG estimators — the layer that turns the batch reproduction into a
//! system that can serve sustained traffic. The batch front door
//! (`cegcli estimate`) reloads the graph and rebuilds catalogs on every
//! invocation; this crate keeps that state warm and shares it:
//!
//! * [`registry`] — a [`DatasetRegistry`] loads each graph once, builds or
//!   loads its Markov catalog once, and shares both across requests via
//!   `Arc`; catalogs grow incrementally as unseen query patterns arrive.
//!   Datasets are **live**: `ADD_EDGE`/`DEL_EDGE` buffer into a pending
//!   [`ceg_graph::GraphDelta`], `COMMIT` folds it into a fresh CSR
//!   graph (touched relations rebuilt, the rest shared) published as
//!   the next epoch, with incremental catalog maintenance (only
//!   touched-label entries recount) — one committed graph per epoch,
//! * [`cache`] — an [`EstimateCache`] (LRU) keyed by the renaming-invariant
//!   [`canonical hash`](ceg_query::canon) from `ceg-query`, verified by
//!   exact isomorphism so hash collisions can never return a wrong
//!   estimate; entries are epoch-tagged so estimates cached before a
//!   committed update miss instead of lying; hit/miss counters are
//!   exposed through the wire protocol,
//! * [`engine`] — the transport-independent core and its one estimate
//!   path, [`Engine::estimate_batch`]: hash and probe the cache once
//!   (hits end there), take a per-dataset admission permit and one of a
//!   fixed number of run slots for each miss, then fill the catalog,
//!   estimate and store — all on the calling thread,
//! * [`protocol`] / [`server`] / [`client`] — a line-delimited text
//!   protocol over `std::net::TcpListener`, served by `cegcli serve` and
//!   spoken by `cegcli query` (or a 5-line netcat script). `ESTIMATE`
//!   answers one query per round-trip; `ESTIMATE_BATCH` ships a whole
//!   ordered batch in one round-trip and streams the answers back
//!   ([`Client::estimate_batch`]). There are no worker threads: the
//!   connection's own thread runs the engine,
//! * **durability** — `SNAPSHOT <ds> <path>` persists a dataset's
//!   committed graph, Markov catalog and epoch as a versioned,
//!   checksummed binary `.cegsnap` file
//!   ([`DatasetEntry::write_snapshot`]); `cegcli serve --snapshot`
//!   restores one at boot ([`DatasetRegistry::load_snapshot`]), skipping
//!   text parsing and catalog construction, and continues the epoch
//!   sequence so a restarted server answers exactly like the one that
//!   wrote the snapshot,
//! * **multi-tenant hardening** — per-dataset admission control (typed
//!   `BUSY` beyond [`ServerConfig::queue_cap`] admitted misses),
//!   per-request deadlines (`DEADLINE_MS` or the server default) enforced
//!   inside the counting kernel with typed `TIMEOUT` replies, a
//!   lock-free [`metrics`] registry behind the `METRICS` command, and a
//!   graceful drain (`SHUTDOWN` / SIGTERM → final snapshot per dataset,
//!   typed rejections for in-flight clients, exit 0). Every accepted
//!   request is answered with an estimate, `BUSY`, `TIMEOUT`, or `ERR` —
//!   never silently dropped,
//! * **observability** — every accepted request gets a monotonic id,
//!   echoed as an `id=<n>` tail on its reply lines so a slow or failed
//!   request can be correlated across the wire, the slow-query log and
//!   the drain report; `EXPLAIN_ESTIMATE` answers like `ESTIMATE` and
//!   appends the span/counter trace that produced the estimate
//!   ([`Client::explain`]) via the zero-alloc-when-disabled
//!   [`ceg_core::trace::Trace`] recorder; a ring-buffer slow-query log
//!   (`SLOWLOG`, threshold [`ServerConfig::slow_query_threshold_ms`])
//!   captures over-threshold misses; `METRICS_PROM` exports the whole
//!   metrics registry in Prometheus text exposition format.
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
//! server.shutdown();
//! ```

// The compiler-side mirror of ceg-lint's panic-path pass: `.unwrap()`
// warns in non-test code (clippy.toml additionally *disallows* it with
// a pointer at the typed-error idiom), while test modules may assert
// freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod cache;
pub mod client;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;

pub use cache::{EstimateCache, LruCache, ProbeOutcome};
pub use client::{Client, ClientConfig, EstimateReply, ExplainReply, QueryReply};
pub use engine::{
    Engine, EngineStats, EstimateOutcome, QueryOutcome, RequestCtx, SlowQueryEntry, SnapshotAck,
    UpdateAck, DEFAULT_SLOW_QUERY_THRESHOLD_MS,
};
pub use metrics::{Histogram, Metrics, Series};
pub use protocol::{Command, ExplainItem, Request, Response, MAX_BATCH_QUERIES};
pub use registry::{
    CommitOutcome, DatasetEntry, DatasetRegistry, RecoveryReport, RotateOutcome, MAX_PENDING_OPS,
    MAX_UPDATE_LABEL, MAX_UPDATE_VERTEX,
};
pub use server::{DrainReport, Server, ServerConfig};
