//! # ceg-lint
//!
//! Project-specific static analysis for the CEG workspace, run as
//! `cargo xtask lint`. Seven lints, each enforcing an invariant the code
//! or its docs would otherwise keep by convention:
//!
//! | lint | invariant |
//! |---|---|
//! | `lock-discipline` | no raw `std::sync::{Mutex,RwLock}` outside `vendor` — all locks carry a `ceg_graph::sync::LockRank` |
//! | `panic-path` | no `unwrap`/`expect`/panic macros/indexing in non-test request-path code |
//! | `typed-reply` | connection handlers write only through `protocol::` constructors |
//! | `durability-seam` | no direct `File::create`/`OpenOptions` in `ceg-graph`/`ceg-catalog`/`ceg-service` — writes go through `vfs::Storage` |
//! | `service-closure` | `ceg-service` and the server binary `cegcli` link only the served crates (see [`closure`]) |
//! | `unused-pub` | a `pub fn` of any crate under `crates/` is named by some other file of the workspace (see [`unused_pub`]) |
//! | `doc-refs` | every path, command, flag, ROADMAP item and ARCHITECTURE section the docs name exists, and no doc cites a PR by number (see [`doc_refs`]) |
//!
//! Exceptions live in `ceg-lint.allow` at the repo root; every entry
//! needs a justification comment and entries that stop suppressing
//! anything are reported as stale (see [`allowlist`]).
//!
//! The scanner is a token-stream pass over a purpose-built lexer
//! ([`lexer`]) — no `syn`, no registry dependencies, so the tool builds
//! offline with the rest of the workspace.
//!
//! The crate also holds `cargo xtask ab` ([`ab`]), the paired benchmark
//! comparison of two revisions, with the small JSON reader ([`json`]) its
//! records need.

pub mod ab;
pub mod allowlist;
pub mod closure;
pub mod doc_refs;
pub mod json;
pub mod lexer;
pub mod lints;
pub mod unused_pub;

use std::path::{Path, PathBuf};

pub use lints::{Diagnostic, LintSet};

/// Name of the allowlist file at the repo root.
pub const ALLOW_FILE: &str = "ceg-lint.allow";

/// Which lints apply to a repo-relative (forward-slash) path.
///
/// * `lock-discipline` — everywhere except the vendored stand-ins (the
///   `sync` module that wraps the std primitives is allowlisted);
/// * `panic-path` — the service crate (handlers, protocol/client
///   parsers) plus the WAL and snapshot codecs that parse on-disk
///   bytes;
/// * `typed-reply` — the connection handlers in `server.rs`;
/// * `durability-seam` — everything in `ceg-graph`/`ceg-catalog`/`ceg-service`.
fn classify(rel: &str) -> LintSet {
    if !rel.ends_with(".rs") {
        return LintSet::default();
    }
    LintSet {
        lock: !rel.starts_with("vendor/"),
        panic: rel.starts_with("crates/service/src/")
            || rel == "crates/graph/src/wal.rs"
            || rel == "crates/graph/src/snapshot.rs",
        typed_reply: rel == "crates/service/src/server.rs",
        durability: rel.starts_with("crates/graph/src/")
            || rel.starts_with("crates/catalog/src/")
            || rel.starts_with("crates/service/src/"),
    }
}

/// Lint one source text as if it lived at `rel` (repo-relative path),
/// with no allowlist. The fixture tests drive this directly.
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    lints::lint_source(rel, src, classify(rel))
}

/// Run the whole-tree lint from `root`. Returns the surviving
/// diagnostics (empty = clean) and the number of files scanned. The
/// per-file lints run file by file; `unused-pub` runs once over the
/// whole walk, and `doc-refs` once over the walk plus the docs and
/// `ROADMAP.md`; all three go through the allowlist. The
/// `service-closure` diagnostics bypass it: the boundary has no
/// exceptions.
pub fn run(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let allow_text = std::fs::read_to_string(root.join(ALLOW_FILE)).unwrap_or_default();
    let allow = allowlist::parse(ALLOW_FILE, &allow_text);
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(path)?));
    }
    for rel in doc_refs::DOCS.iter().chain(&["ROADMAP.md"]) {
        if let Ok(text) = std::fs::read_to_string(root.join(rel)) {
            sources.push((rel.to_string(), text));
        }
    }
    let mut raw = Vec::new();
    let mut scanned = 0usize;
    for (rel, src) in &sources {
        let set = classify(rel);
        if set.any() {
            scanned += 1;
            raw.extend(lints::lint_source(rel, src, set));
        }
    }
    let pairs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    raw.extend(unused_pub::check(&pairs));
    raw.extend(doc_refs::check(&pairs));
    let mut out = allowlist::apply(ALLOW_FILE, &allow, raw, true);
    out.extend(closure::check(root)?);
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok((out, scanned))
}

/// Directories never scanned: build output, VCS metadata, the vendored
/// stand-ins (reference code we do not own), and the lint's own
/// deliberately-bad fixture corpus.
fn skip_dir(rel: &str) -> bool {
    matches!(rel, "target" | ".git" | ".claude" | "vendor") || rel == "crates/lint/tests/fixtures"
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if !skip_dir(&rel) {
                walk(root, &path, out)?;
            }
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// CLI entry point of `cargo xtask lint`: prints diagnostics to stderr
/// and returns the process exit code (0 = clean, 1 = diagnostics, 2 =
/// could not run).
pub fn lint_main() -> i32 {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ceg-lint: cannot determine current directory: {e}");
            return 2;
        }
    };
    let Some(root) = find_repo_root(&cwd) else {
        eprintln!("ceg-lint: no workspace root found above {}", cwd.display());
        return 2;
    };
    match run(&root) {
        Ok((diags, scanned)) if diags.is_empty() => {
            println!("ceg-lint: {scanned} files clean");
            0
        }
        Ok((diags, _)) => {
            for d in &diags {
                eprintln!("{d}");
            }
            eprintln!("ceg-lint: {} diagnostic(s)", diags.len());
            1
        }
        Err(e) => {
            eprintln!("ceg-lint: {e}");
            2
        }
    }
}
