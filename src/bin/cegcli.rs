//! `cegcli` — the cegraph estimation server: `cegcli serve` and nothing
//! else. Every other command (generating graphs and workloads, offline
//! estimates, the wire clients, `wal`) is in `cegtool`, so this
//! image links only the served crates; `cargo xtask lint` holds it to
//! them (`service-closure`).
//!
//! `serve` drains gracefully on SIGTERM or a wire `SHUTDOWN`: it stops
//! accepting, lets in-flight work resolve to typed replies, writes the
//! dataset's final snapshot into `--drain-dir` (if given), and exits 0.
//!
//! `serve --data-dir <dir>` makes commits crash-safe: every `COMMIT` is
//! fsynced to `<dir>/default.cegwal` before it is acked, and the log is
//! folded into `<dir>/default.cegsnap` once it has grown as large as
//! that snapshot. When the directory already holds a snapshot, boot
//! recovers from snapshot + WAL instead of the graph arguments — a
//! restart after `kill -9` resumes exactly where the last acked commit
//! left off. `cegtool wal` prints what a log file holds without needing
//! a server.
//!
//! Exit discipline: argument errors print the usage on stderr and exit
//! 2; runtime failures print only the message and exit 1; a drained
//! server exits 0.

mod cli;

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use cegraph::graph::io::load_graph;
use cegraph::service::{DatasetRegistry, Server, ServerConfig};

use cli::{arg, parse_h, take_opt, Bin, CmdError, CmdResult, Row};

fn main() -> ExitCode {
    cli::main(&CEGCLI)
}

const CEGCLI: Bin = Bin {
    name: "cegcli",
    commands: COMMANDS,
    hint: |_| Some("`cegcli` only serves; every other command is in `cegtool`"),
};

#[rustfmt::skip]
const COMMANDS: &[Row] = &[
    ("serve", "<addr> [<graph.edges> [h]]",
     &["--snapshot <file.cegsnap>", "--data-dir <dir>", "--drain-dir <dir>"],
     3, serve),
];

/// SIGTERM (and nothing else) flips this; the serve loop notices and
/// starts a graceful drain. A signal handler may only do async-signal-safe
/// work, which a relaxed store into a static atomic is.
static SIGTERM_RECEIVED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    SIGTERM_RECEIVED.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Install the SIGTERM handler via the raw libc `signal(2)` symbol — the
/// build environment has no crates-registry access, so no `libc`/`signal-hook`.
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Run the estimation server until a drain is requested (SIGTERM or the
/// wire `SHUTDOWN` command), then exit 0 after writing the dataset's
/// final snapshot into `--drain-dir` (if given). The graph is
/// loaded once and registered as dataset `default` with an empty catalog
/// whose statistics are counted on demand at hop depth `h` (default 2)
/// as requests arrive and kept warm; `--snapshot` boots from a `.cegsnap`
/// instead (a `cegtool stats` output file is one, with a pre-warmed
/// catalog). A miss counts its patterns on the thread that runs it, so
/// the run slots bound how many count at once.
fn serve(args: &[String]) -> CmdResult {
    let (args, snapshot_path) = take_opt(args, "snapshot")?;
    let (args, drain_dir) = take_opt(&args, "drain-dir")?;
    let (args, data_dir) = take_opt(&args, "data-dir")?;
    let args = &args[..];
    let h = args.get(2).map(|s| parse_h(s)).transpose()?.unwrap_or(2);
    if data_dir.is_some() && snapshot_path.is_some() {
        return Err(CmdError::usage(
            "--data-dir and --snapshot both pick the boot state; use one",
        ));
    }
    let addr = arg(args, 0, "listen address")?;
    let registry = Arc::new(DatasetRegistry::new());
    // Load the graph/h positional arguments — the cold-boot path, shared
    // by plain serving and the first boot of a durable data dir.
    let load_from_files =
        |args: &[String]| -> Result<Arc<cegraph::service::DatasetEntry>, CmdError> {
            let graph = load_graph(arg(args, 1, "graph path")?).map_err(CmdError::runtime)?;
            Ok(registry.insert_graph("default", graph, h))
        };
    let mut recovery: Option<cegraph::service::RecoveryReport> = None;
    let mut boot_note = "";
    let entry = if let Some(dir) = &data_dir {
        use cegraph::graph::snapshot::sweep_orphan_temps;
        use cegraph::graph::vfs::OsStorage;
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)?;
        // A hard crash mid-rotation can leave half-written temp files
        // behind; sweep them before any writer is live.
        let swept = sweep_orphan_temps(&OsStorage, dir)?;
        for path in &swept {
            println!("swept orphaned temp file {}", path.display());
        }
        let snap = dir.join("default.cegsnap");
        let wal = dir.join("default.cegwal");
        if snap.exists() {
            // The data dir is authoritative once initialized: the graph
            // arguments were its seed and are ignored on restart, so the
            // exact same command line survives a crash loop.
            if args.len() > 1 {
                println!(
                    "data dir {} is already initialized; recovering from it and \
                     ignoring the graph arguments",
                    dir.display()
                );
            }
            let (entry, report) = registry
                .recover("default", Arc::new(OsStorage), &snap, &wal)
                .map_err(CmdError::runtime)?;
            println!(
                "recovered `default` from {}: snapshot epoch {}, replayed {} commits \
                 ({} ops) -> epoch {}{}",
                dir.display(),
                report.snapshot_epoch,
                report.replayed_commits,
                report.replayed_ops,
                report.epoch,
                report
                    .torn_tail
                    .as_deref()
                    .map(|d| format!(", torn tail truncated ({d})"))
                    .unwrap_or_default(),
            );
            recovery = Some(report);
            boot_note = ", recovered from data dir";
            entry
        } else {
            let entry = load_from_files(args)?;
            entry
                .attach_durability(Arc::new(OsStorage), &snap, &wal)
                .map_err(CmdError::runtime)?;
            boot_note = ", durable commits";
            entry
        }
    } else if let Some(snap) = &snapshot_path {
        // Boot-time restore: the snapshot carries graph, catalog and
        // epoch, so a graph/h argument would contradict it.
        if args.len() > 1 {
            return Err(CmdError::usage("--snapshot replaces the graph/h arguments"));
        }
        boot_note = ", restored from snapshot";
        registry
            .load_snapshot("default", snap)
            .map_err(CmdError::runtime)?
    } else {
        load_from_files(args)?
    };
    let config = ServerConfig {
        drain_snapshot_dir: drain_dir.map(std::path::PathBuf::from),
        ..ServerConfig::default()
    };
    let server = Server::start(registry, addr, config.clone()).map_err(CmdError::runtime)?;
    if let Some(report) = &recovery {
        server.engine().record_recovery(report);
    }
    let (num_vertices, num_edges) = entry.graph_summary();
    println!(
        "serving `default` ({} vertices, {} edges, {} catalog entries, epoch {}) on {} \
         [cache {} entries{}]",
        num_vertices,
        num_edges,
        entry.catalog_len(),
        entry.epoch(),
        server.local_addr(),
        config.cache_capacity,
        boot_note,
    );
    // Serve until a drain is requested: SIGTERM flips the static flag
    // (checked every wakeup), the wire SHUTDOWN command trips the
    // server's own condvar directly.
    install_sigterm_handler();
    loop {
        if SIGTERM_RECEIVED.load(std::sync::atomic::Ordering::Relaxed) {
            server.request_drain();
        }
        if server.wait_drain_requested(std::time::Duration::from_millis(200)) {
            break;
        }
    }
    // Status lines from here on go to a reader that may have left (a
    // closed pipe): losing them must not turn a clean drain into a panic.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "drain requested, shutting down...");
    let report = server.drain().map_err(CmdError::runtime)?;
    for (name, path, bytes) in &report.snapshots {
        let _ = writeln!(
            out,
            "final snapshot of `{name}` -> {} ({bytes} bytes)",
            path.display()
        );
    }
    if report.abandoned > 0 {
        let n = report.abandoned;
        let _ = writeln!(out, "{n} in-flight requests abandoned at drain");
    }
    let _ = writeln!(out, "drained, exiting");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::cli::{self, take_flag, take_opt, usage_for, CmdError, ErrorKind};
    use super::{CEGCLI, COMMANDS};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    // --- the flag plumbing both binaries share ---------------------------

    #[test]
    fn take_flag_strips_every_occurrence() {
        let (rest, on) = take_flag(&strs(&["a", "--batch", "b"]), "batch");
        assert_eq!(rest, strs(&["a", "b"]));
        assert!(on);
        let (rest, on) = take_flag(&strs(&["a", "b"]), "batch");
        assert_eq!(rest, strs(&["a", "b"]));
        assert!(!on);
        let (rest, on) = take_flag(&strs(&["--batch", "--batch"]), "batch");
        assert!(rest.is_empty());
        assert!(on);
    }

    #[test]
    fn take_opt_accepts_both_spellings_and_rejects_abuse() {
        let (rest, v) =
            take_opt(&strs(&["a", "--snapshot", "s.cegsnap", "b"]), "snapshot").unwrap();
        assert_eq!(rest, strs(&["a", "b"]));
        assert_eq!(v.as_deref(), Some("s.cegsnap"));
        let (rest, v) = take_opt(&strs(&["--snapshot=s.cegsnap"]), "snapshot").unwrap();
        assert!(rest.is_empty());
        assert_eq!(v.as_deref(), Some("s.cegsnap"));
        let (_, v) = take_opt(&strs(&["a"]), "snapshot").unwrap();
        assert_eq!(v, None);
        assert!(take_opt(&strs(&["--snapshot"]), "snapshot").is_err());
        assert!(take_opt(&strs(&["--snapshot", "--x"]), "snapshot").is_err());
        assert!(take_opt(&strs(&["--snapshot=-2"]), "snapshot").is_err());
        for twice in [
            ["--snapshot=a", "--snapshot", "b"].as_slice(),
            &["--snapshot=a", "--snapshot=b"],
            &["--snapshot", "a", "--snapshot", "b"],
        ] {
            let err = take_opt(&strs(twice), "snapshot").unwrap_err();
            assert!(err.contains("duplicate"), "{err}");
        }
    }

    // --- exit-path normalization -----------------------------------------
    //
    // The contract `cli::main` builds on: argument mistakes are Usage
    // errors (usage block on stderr, exit 2), failures doing the work are
    // Runtime errors (message only, exit 1) — never mixed.

    fn fail(args: &[&str]) -> CmdError {
        cli::run(&CEGCLI, &strs(args)).expect_err("should fail")
    }

    #[test]
    fn missing_and_unknown_commands_are_usage_errors() {
        let err = fail(&[]);
        assert_eq!(err.kind, ErrorKind::Usage);
        assert_eq!(err.cmd, None);
        assert_eq!(err.exit_code(), 2);
        let err = fail(&["frobnicate"]);
        assert_eq!(err.kind, ErrorKind::Usage);
        assert_eq!(err.cmd, None);
        // A command of the other binary: refused before any I/O (nothing
        // listens on the address), with the binary that has it named.
        let err = fail(&["query", "127.0.0.1:1", "w.wl"]);
        assert_eq!(err.kind, ErrorKind::Usage);
        assert!(
            err.msg.starts_with("unknown command `query`"),
            "{}",
            err.msg
        );
        assert!(err.msg.contains("`cegtool`"), "{}", err.msg);
    }

    #[test]
    fn missing_arguments_are_usage_errors_tagged_with_the_subcommand() {
        for &(name, ..) in COMMANDS {
            let err = fail(&[name]);
            assert_eq!(err.kind, ErrorKind::Usage, "{name}: {}", err.msg);
            assert_eq!(err.cmd, Some(name));
            assert_eq!(err.exit_code(), 2);
            let usage = usage_for(&CEGCLI, name).expect("every row has a usage line");
            assert!(usage.starts_with(&format!("cegcli {name} ")), "{usage}");
        }
    }

    #[test]
    fn one_positional_too_many_is_a_usage_error_before_any_io() {
        // Flags and all: nothing listens on the address and no path
        // exists, so an error of the other kind means the handler ran.
        for &(name, _, flags, max, _) in COMMANDS {
            let mut args = vec![name.to_string()];
            args.extend(vec!["127.0.0.1:1".to_string(); max + 1]);
            args.extend(flags.iter().map(|flag| match flag.split_once(' ') {
                Some((valued, _)) => format!("{valued}=1"),
                None => flag.to_string(),
            }));
            let err = cli::run(&CEGCLI, &args).expect_err("should fail");
            assert_eq!(err.kind, ErrorKind::Usage, "{args:?}: {}", err.msg);
            assert_eq!(err.msg, "unexpected extra arguments", "{args:?}");
            assert_eq!(err.cmd, Some(name), "{args:?}");
        }
    }

    #[test]
    fn bad_argument_values_are_usage_errors() {
        let err = fail(&["serve", "addr", "graph", "--snapshot", "s", "extra"]);
        assert_eq!(err.kind, ErrorKind::Usage);
        // No worker count: served counting runs inside the run slots.
        let err = fail(&["serve", "addr", "graph", "--jobs", "2"]);
        assert_eq!(err.kind, ErrorKind::Usage);
        assert_eq!(err.cmd, Some("serve"));
        assert_eq!(err.msg, "unknown flag `--jobs`");
    }

    #[test]
    fn durability_flags_are_validated_before_any_io() {
        // `serve` has no WAL tuning flags (the log folds itself once it
        // outgrows its snapshot), so those are unknown flags; and two
        // boot-state sources contradict each other. Both must fail as
        // usage errors without touching the filesystem or network.
        for args in [
            vec!["serve", "addr", "g", "--wal-rotate-bytes", "4096"],
            vec!["serve", "addr", "g", "--snapshot-every", "8"],
            vec!["serve", "addr", "--snapshot", "s", "--data-dir", "d"],
            vec![
                "serve",
                "addr",
                "g",
                "--data-dir",
                "d",
                "--wal-rotate-bytes",
                "nope",
            ],
        ] {
            let err = fail(&args);
            assert_eq!(err.kind, ErrorKind::Usage, "{args:?}: {}", err.msg);
            assert_eq!(err.cmd, Some("serve"), "{args:?}");
        }
    }

    #[test]
    fn io_failures_are_runtime_errors_without_usage_dump() {
        let args = [
            "serve",
            "127.0.0.1:0",
            "--snapshot",
            "/no/such/file.cegsnap",
        ];
        let err = fail(&args);
        assert_eq!(err.kind, ErrorKind::Runtime, "{args:?}: {}", err.msg);
        assert_eq!(err.exit_code(), 1, "{args:?}");
    }
}
