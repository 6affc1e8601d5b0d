//! # ceg-lint
//!
//! Project-specific static analysis for the CEG workspace, run as
//! `cargo xtask lint`. Three lints, each enforcing an invariant the code
//! or its docs would otherwise keep by convention:
//!
//! | lint | invariant |
//! |---|---|
//! | `service-closure` | `ceg-service` and the server binary `cegcli` link only the served crates (see [`closure`]) |
//! | `unused-pub` | a `pub fn` of any crate under `crates/` is named by some other file of the workspace (see [`unused_pub`]) |
//! | `doc-refs` | every path, command, flag, ROADMAP item and ARCHITECTURE section the docs name exists, and no doc cites a PR by number (see [`doc_refs`]) |
//!
//! The request path's own rules are clippy's, in the `-D warnings` step:
//! ranked locks and writes through `vfs::Storage` in the root
//! `clippy.toml`, no panics in a `#![deny(...)]` at the top of each
//! request-path scope, and typed replies are the only thing the
//! connection's `ReplyWriter` can send. None of the three lints here has
//! exceptions.
//!
//! The scanners run over a purpose-built lexer ([`lexer`]) — no `syn`,
//! no registry dependencies, so the tool builds offline with the rest of
//! the workspace.
//!
//! The crate also holds `cargo xtask ab` ([`ab`]), the paired benchmark
//! comparison of two revisions, with the small JSON reader ([`json`]) its
//! records need.

pub mod ab;
pub mod closure;
pub mod doc_refs;
pub mod json;
pub mod lexer;
pub mod unused_pub;

use std::path::{Path, PathBuf};

/// One finding: which lint fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint identifier: `service-closure`, `unused-pub` or `doc-refs`.
    pub lint: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The function the finding is about (`unused-pub`), else empty.
    pub func: String,
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.msg
        )?;
        if !self.func.is_empty() {
            write!(f, " (in fn `{}`)", self.func)?;
        }
        Ok(())
    }
}

/// Run the whole-tree lint from `root`. Returns the diagnostics (empty =
/// clean) and the number of `.rs` files walked. `unused-pub` runs once
/// over the walk, `doc-refs` once over the walk plus the docs and
/// `ROADMAP.md`, and `service-closure` over the service's manifests and
/// the server binary's sources.
pub fn run(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
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
    let pairs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    let mut out = unused_pub::check(&pairs);
    out.extend(doc_refs::check(&pairs));
    out.extend(closure::check(root)?);
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok((out, files.len()))
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
