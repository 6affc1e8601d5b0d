//! `service-closure`: the estimation service compiles only what it
//! serves. `crates/service/Cargo.toml`, and the manifest of every
//! workspace crate it names, may list under `[dependencies]` only the
//! served crates (`ceg-graph`, `ceg-query`, `ceg-catalog`, `ceg-core`,
//! `ceg-exec`); any other `ceg-*` key there (`ceg-estimators`, the
//! paper's offline evaluation, above all) is a diagnostic naming the
//! manifest and the line. The crate boundary does the rest: what a served
//! crate contains is served. Dev-dependencies are not linked into the
//! service and are not read.
//!
//! The server binary, `src/bin/cegcli.rs`, shares its package (and so
//! its dependency list) with `cegtool`, which links the offline crates;
//! there the boundary is the source. It and every module it declares
//! (`mod x;`) may name only `cegraph::service` and the served crates'
//! modules (`cegraph::graph`, ..., or `ceg_graph`, ...): a path into
//! `cegraph::estimators`, `cegraph::workload` or any other workspace
//! crate is a diagnostic naming the file and the line, and so is a
//! module the walk cannot follow (`#[path]`, `include!`).

use std::path::Path;

use crate::lexer::{lex, Spanned, Tok};
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

/// The server binary's crate root, where the source walk starts.
const SERVER_BIN: &str = "src/bin/cegcli.rs";

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
    let mut todo = vec![SERVER_BIN.to_string()];
    while let Some(rel) = todo.pop() {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let (diags, mods) = scan_server_source(&rel, &text);
        out.extend(diags);
        // `mod x;` is `x.rs` or `x/mod.rs` beside a crate root or a
        // `mod.rs`, in the directory named after any other file.
        let dir = match rel.strip_suffix(".rs") {
            Some(stem) if rel != SERVER_BIN && !rel.ends_with("/mod.rs") => format!("{stem}/"),
            _ => rel[..rel.rfind('/').map_or(0, |i| i + 1)].to_string(),
        };
        for name in mods {
            let file = format!("{dir}{name}.rs");
            todo.push(match root.join(&file).is_file() {
                true => file,
                false => format!("{dir}{name}/mod.rs"),
            });
        }
    }
    Ok(out)
}

/// The diagnostics of one source file of the server binary, reported
/// against `rel`.
pub fn lint_server_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    scan_server_source(rel, src).0
}

/// The facade modules (`cegraph::graph`) and crates (`ceg_graph`), named
/// without their prefix, that the server binary may name.
fn served_modules() -> impl Iterator<Item = &'static str> {
    std::iter::once("service").chain(SERVED.iter().map(|krate| &krate["ceg-".len()..]))
}

fn is_served(name: &str) -> bool {
    served_modules().any(|module| module == name)
}

/// The diagnostics of one server source file and the modules it declares
/// in files of their own.
fn scan_server_source(rel: &str, src: &str) -> (Vec<Diagnostic>, Vec<String>) {
    let toks = lex(src);
    let tok = |i: usize| toks.get(i).map(|s: &Spanned| &s.tok);
    let ident = |i: usize| match tok(i) {
        Some(Tok::Ident(name)) => Some(name.as_str()),
        _ => None,
    };
    let path_sep =
        |i: usize| tok(i) == Some(&Tok::Punct(':')) && tok(i + 1) == Some(&Tok::Punct(':'));
    let mut diags = Vec::new();
    let mut mods = Vec::new();
    let mut flag = |line: u32, msg: String| {
        diags.push(Diagnostic {
            lint: SERVICE_CLOSURE,
            path: rel.to_string(),
            line,
            func: String::new(),
            msg,
        })
    };
    let offline = |path: &str| {
        format!(
            "`{path}` is not served: the server binary may name only cegraph::{{{}}} \
             (or their `ceg_*` crates)",
            served_modules().collect::<Vec<_>>().join(", ")
        )
    };
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else {
            if t.tok == Tok::Punct('#')
                && tok(i + 1) == Some(&Tok::Punct('['))
                && ident(i + 2) == Some("path")
            {
                flag(
                    t.line,
                    "a `#[path]` module of the server binary is one the closure walk cannot follow"
                        .into(),
                );
            }
            continue;
        };
        match name.as_str() {
            "mod" => {
                if let (Some(m), Some(Tok::Punct(';'))) = (ident(i + 1), tok(i + 2)) {
                    mods.push(m.to_string());
                }
            }
            "include" if tok(i + 1) == Some(&Tok::Punct('!')) => {
                flag(
                    t.line,
                    "`include!` in the server binary is source the closure walk cannot follow"
                        .into(),
                );
            }
            "cegraph" if path_sep(i + 1) => {
                // `cegraph::x`, `cegraph::{x, y::z}` or `cegraph::*`.
                let mut segments = Vec::new();
                match tok(i + 3) {
                    Some(Tok::Ident(x)) => segments.push((x.as_str(), toks[i + 3].line)),
                    Some(Tok::Punct('{')) => {
                        // A top-level segment follows the `{` or a `,`.
                        let mut depth = 0;
                        for pair in toks[i + 2..].windows(2) {
                            match (&pair[0].tok, &pair[1].tok) {
                                (_, Tok::Punct('{')) => depth += 1,
                                (_, Tok::Punct('}')) if depth == 1 => break,
                                (_, Tok::Punct('}')) => depth -= 1,
                                (Tok::Punct('{' | ','), Tok::Ident(x)) if depth == 1 => {
                                    segments.push((x.as_str(), pair[1].line))
                                }
                                _ => {}
                            }
                        }
                    }
                    _ => segments.push(("*", t.line)),
                }
                for (x, line) in segments {
                    if x != "self" && !is_served(x) {
                        flag(line, offline(&format!("cegraph::{x}")));
                    }
                }
            }
            krate
                if krate.starts_with("ceg_")
                    && (path_sep(i + 1)
                        || matches!(ident(i.wrapping_sub(1)), Some("use" | "crate")))
                    && !is_served(&krate["ceg_".len()..]) =>
            {
                flag(t.line, offline(krate));
            }
            _ => {}
        }
    }
    (diags, mods)
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
