//! The subset-limit refusal of a too-wide star, alone in its process: it
//! bounds this process's peak resident set, which other tests running
//! beside it in one binary would also raise.

use cegraph::service::proc_status;

mod raw_conn;
use raw_conn::{start_server, RawConn};

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    proc_status("VmHWM").expect("procfs has a VmHWM line")
}

/// CEG_O has one node per connected subset, and a star's subsets are all
/// of its 2^k - 1 edge subsets: a 24-edge star is a valid 25-variable
/// query whose CEG would hold 16.7 M nodes. The enumeration gives up as
/// it passes `QueryGraph::MAX_CONNECTED_SUBSETS`, so every command that
/// carries the query answers one typed `ERR` naming the limit — at once,
/// in flat memory, with the connection still serving.
#[test]
fn a_star_too_wide_for_ceg_o_gets_one_typed_err() {
    let star = |k: usize| -> String {
        let edges: String = (1..=k).map(|i| format!(" 0 {i} 0")).collect();
        format!("{} {k}{edges}", k + 1)
    };
    let limit = cegraph::query::QueryGraph::MAX_CONNECTED_SUBSETS.to_string();
    let server = start_server();
    let mut conn = RawConn::connect(server.local_addr());
    let rss_before = peak_rss_kib();
    for (request, header) in [
        (format!("ESTIMATE default {}", star(24)), None),
        (format!("EXPLAIN_ESTIMATE default {}", star(24)), None),
        (
            format!("ESTIMATE_BATCH default 2\n2 1 0 1 0\n{}", star(24)),
            Some("BATCH 2"),
        ),
    ] {
        let started = std::time::Instant::now();
        conn.send(format!("{request}\n").as_bytes());
        if let Some(header) = header {
            // Per slot: the batch's other query is answered as usual.
            assert_eq!(conn.read_line().as_deref(), Some(header));
            let first = conn.read_line().expect("slot 0");
            assert!(first.starts_with("EST "), "{first:?}");
        }
        let reply = conn.read_line().expect("server must answer, not drop");
        assert!(
            reply.starts_with("ERR ") && reply.contains(&limit),
            "{request:?} should earn the subset-limit ERR, got {reply:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "the rejection took {:?}",
            started.elapsed()
        );
        conn.send(b"PING\n");
        assert_eq!(conn.read_line().as_deref(), Some("PONG"));
    }
    let grown_kib = peak_rss_kib().saturating_sub(rss_before);
    assert!(grown_kib < 16 * 1024, "peak RSS grew {grown_kib} KiB");
    // The paper's widest shape — a 12-edge star, 4,096 CEG_O nodes — is
    // still answered.
    conn.send(format!("ESTIMATE default {}\n", star(12)).as_bytes());
    let reply = conn.read_line().expect("server must answer");
    assert!(reply.starts_with("EST "), "{reply:?}");
    drop(server);
}
