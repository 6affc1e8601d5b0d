//! Resident memory across commits: what a commit frees goes back to the
//! OS.
//!
//! A `churn`-shaped commit on the `g100k` bench graph makes thousands of
//! allocations — the successor's pages, the catalog clone, the recount's
//! scratch — but holds ~0.2 MiB at its peak, and frees the predecessor
//! epoch's pages and catalog once the new epoch is published. glibc keeps
//! freed pages of the committing thread's arena resident; over 24 commits
//! on one fresh connection that is ~1.05 MiB of anonymous resident set
//! that no live data backs. The server hands it back after each acked
//! `COMMIT` (`malloc_trim`), and the growth stays ~0.2 MiB.
//!
//! The mutation this catches: a server without the release call grows
//! `RssAnon` past the bound. The check needs `/proc/self/status` and
//! glibc, and skips with a message without either.
//!
//! A single test lives here: the resident set is the process's, and no
//! other test may move it.

use std::sync::Arc;

use cegraph::catalog::MarkovTable;
use cegraph::query::QueryGraph;
use cegraph::service::{proc_status, Client, DatasetEntry, DatasetRegistry, Server, ServerConfig};
use cegraph::workload::{Rung, Workload};

/// Anonymous resident growth the 24 commits may leave behind.
const BOUND_KIB: u64 = 512;

/// The labels `cegbench`'s `churn` commits touch, one op each.
const COMMIT_LABELS: [u16; 4] = [0, 3, 7, 15];

#[test]
fn commits_give_back_what_they_free() {
    if !cfg!(all(target_os = "linux", target_env = "gnu")) {
        eprintln!("skipping: the heap release is glibc's");
        return;
    }
    if proc_status("RssAnon").is_none() {
        eprintln!("skipping: /proc/self/status has no RssAnon");
        return;
    }
    let seed = 2022;
    let graph = Rung { k: 10 }.graph(seed);
    // Like the bench, the queries are instantiated on the small rung of
    // the same seed; the catalog is counted on the served graph.
    let small = Rung { k: 1 }.graph(seed);
    let queries: Vec<QueryGraph> = [Workload::Job, Workload::Acyclic]
        .iter()
        .flat_map(|w| w.build(&small, 4, seed))
        .map(|q| q.query)
        .collect();
    let table = MarkovTable::build(&graph, &queries, 2);

    // `churn`'s commit shape: per commit one op on each label, additions
    // and deletions of present edges alternating.
    let commits: Vec<Vec<(bool, u32, u32, u16)>> = (0..24usize)
        .map(|commit| {
            let ops = COMMIT_LABELS.iter().enumerate().map(|(i, &label)| {
                if (commit + i) % 2 == 0 {
                    let src = (1_000 + 31 * commit + 7 * i) as u32;
                    (true, src, (2_000 + commit) as u32, label)
                } else {
                    let n = graph.label_count(label);
                    let (src, dst) = graph.nth_edge(label, (commit * n) / 24).unwrap();
                    (false, src, dst, label)
                }
            });
            ops.collect()
        })
        .collect();

    let registry = Arc::new(DatasetRegistry::new());
    registry.insert(DatasetEntry::new("default", graph, table));
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // The connection's thread is up before the baseline.
    client.ping().unwrap();
    let before = proc_status("RssAnon").unwrap();
    for ops in &commits {
        for &(add, src, dst, label) in ops {
            if add {
                client.add_edge("default", src, dst, label).unwrap();
            } else {
                client.del_edge("default", src, dst, label).unwrap();
            }
        }
        let outcome = client.commit("default").unwrap();
        assert!(outcome.rebased);
    }
    // The release runs after the last ack, on the connection's thread:
    // one more round trip on it and it has finished.
    client.ping().unwrap();
    let after = proc_status("RssAnon").unwrap();
    let grew = after.saturating_sub(before);
    eprintln!("RssAnon {before} -> {after} KiB over 24 commits");
    assert!(
        grew <= BOUND_KIB,
        "24 commits left {grew} KiB of anonymous resident set (bound {BOUND_KIB} KiB)"
    );
    drop(server);
}
