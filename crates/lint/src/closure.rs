//! `service-closure`: the estimation service compiles only what it
//! serves. `crates/service/Cargo.toml`, and the manifest of every
//! workspace crate it names, may list under `[dependencies]` only the
//! served crates (`ceg-graph`, `ceg-query`, `ceg-catalog`, `ceg-core`,
//! `ceg-exec`); any other `ceg-*` key there (`ceg-estimators`, the
//! paper's offline evaluation, above all) is a diagnostic naming the
//! manifest and the line. The crate boundary does the rest: what a served
//! crate contains is served. Dev-dependencies are not linked into the
//! service and are not read.

use std::path::Path;

use crate::lints::{Diagnostic, SERVICE_CLOSURE};

/// The workspace crates `ceg-service` may link.
const SERVED: &[&str] = &[
    "ceg-graph",
    "ceg-query",
    "ceg-catalog",
    "ceg-core",
    "ceg-exec",
];

/// Where the walk starts.
const SERVICE_MANIFEST: &str = "crates/service/Cargo.toml";

/// Check the service's manifest and, transitively, the manifest of each
/// served crate it names (`ceg-x` lives in `crates/x`).
pub(crate) fn check(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    let mut todo = vec![SERVICE_MANIFEST.to_string()];
    let mut seen: Vec<String> = Vec::new();
    while let Some(rel) = todo.pop() {
        if seen.contains(&rel) {
            continue;
        }
        let text = std::fs::read_to_string(root.join(&rel))?;
        out.extend(lint_manifest(&rel, &text));
        for (name, _) in ceg_dependencies(&text) {
            if SERVED.contains(&name) {
                todo.push(format!("crates/{}/Cargo.toml", &name["ceg-".len()..]));
            }
        }
        seen.push(rel);
    }
    Ok(out)
}

/// The diagnostics of one manifest text, reported against `rel`.
pub fn lint_manifest(rel: &str, text: &str) -> Vec<Diagnostic> {
    ceg_dependencies(text)
        .into_iter()
        .filter(|(name, _)| !SERVED.contains(name))
        .map(|(name, line)| Diagnostic {
            lint: SERVICE_CLOSURE,
            path: rel.to_string(),
            line,
            func: String::new(),
            msg: format!(
                "`{name}` joins `ceg-service`'s compile closure, which may link only {}",
                SERVED.join(", ")
            ),
        })
        .collect()
}

/// `(crate, line)` of every `ceg-*` key under a manifest's
/// `[dependencies]` table.
fn ceg_dependencies(text: &str) -> Vec<(&str, u32)> {
    let mut out = Vec::new();
    let mut in_dependencies = false;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            in_dependencies = line == "[dependencies]";
            continue;
        }
        // `ceg-x = { .. }` or `ceg-x.workspace = true`.
        let key = line.split(['=', '.']).next().unwrap_or_default().trim();
        if in_dependencies && key.starts_with("ceg-") {
            out.push((key, i as u32 + 1));
        }
    }
    out
}
