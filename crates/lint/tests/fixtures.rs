//! The lint acceptance corpus: every file in `tests/fixtures/` is a
//! known-bad (or deliberately mixed) snippet that must fire **exactly
//! one** diagnostic of a specific lint (`unused-pub` scans a group of
//! files together) — plus the guard on the rules clippy holds and the
//! whole-repo clean run.
//!
//! The fixtures are excluded from the real tree walk (see
//! `ceg_lint::run`), so they never dirty `cargo xtask lint` itself.

use ceg_lint::lexer::{lex, Tok};
use ceg_lint::Diagnostic;

#[test]
fn service_closure_catches_an_offline_dependency() {
    // Served keys in both spellings pass; the offline crate in a comment
    // and under `[dev-dependencies]` does not fire, under
    // `[dependencies]` it does, once.
    let diags = ceg_lint::closure::lint_manifest(
        "crates/service/Cargo.toml",
        include_str!("fixtures/service_closure.toml"),
    );
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].lint, "service-closure");
    assert_eq!(diags[0].line, 9, "{}", diags[0]);
    assert!(diags[0].msg.contains("`ceg-estimators`"), "{}", diags[0]);
}

#[test]
fn service_closure_catches_an_offline_path_in_the_server_binary() {
    // The server binary shares a package with `cegtool`, so its source,
    // not a manifest, is the boundary: served paths pass, the offline
    // module named inside a grouped import fires, once.
    let diags = ceg_lint::closure::lint_server_source(
        "src/bin/cegcli.rs",
        include_str!("fixtures/server_binary.rs"),
    );
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].lint, "service-closure");
    assert_eq!(diags[0].path, "src/bin/cegcli.rs");
    assert_eq!(diags[0].line, 11, "{}", diags[0]);
    assert!(
        diags[0].msg.contains("`cegraph::estimators`"),
        "{}",
        diags[0]
    );
}

#[test]
fn unused_pub_fires_on_the_fn_no_other_file_names() {
    // Silent on the `pub fn` the other file calls, on `pub(crate)` and on
    // a `pub fn` under `#[cfg(test)]`; the defining file's own test and
    // the other file's comment and string do not count as mentions.
    let files = [
        (
            "crates/graph/src/fixture.rs",
            include_str!("fixtures/unused_pub_lib.rs"),
        ),
        (
            "tests/fixture.rs",
            include_str!("fixtures/unused_pub_caller.rs"),
        ),
    ];
    let diags = ceg_lint::unused_pub::check(&files);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].lint, "unused-pub");
    assert_eq!(diags[0].func, "only_in_comment", "{}", diags[0]);
    assert_eq!(diags[0].line, 8, "{}", diags[0]);
}

#[test]
fn unused_pub_scans_every_crate_but_not_vendor() {
    let lib = include_str!("fixtures/unused_pub_lib.rs");
    let caller = (
        "tests/fixture.rs",
        include_str!("fixtures/unused_pub_caller.rs"),
    );
    // An offline crate's `src/` is scanned like a served one.
    let offline = [("crates/estimators/src/fixture.rs", lib), caller];
    let diags = ceg_lint::unused_pub::check(&offline);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].func, "only_in_comment", "{}", diags[0]);
    // The vendored stand-ins are not.
    let vendored = [("vendor/rand/src/fixture.rs", lib), caller];
    assert!(ceg_lint::unused_pub::check(&vendored).is_empty());
    // A reproduction binary's call is a mention.
    let binary = (
        "crates/bench/src/bin/fixture.rs",
        "fn main() { fixture::only_in_comment(); }",
    );
    let called = [("crates/estimators/src/fixture.rs", lib), caller, binary];
    assert!(ceg_lint::unused_pub::check(&called).is_empty());
}

#[test]
fn unused_pub_does_not_count_a_use_declaration_as_a_mention() {
    // A re-export is not a caller: the fn another file only `pub use`s
    // fires; the one it also calls does not.
    let files = [
        (
            "crates/graph/src/fixture.rs",
            include_str!("fixtures/unused_pub_reexported.rs"),
        ),
        (
            "crates/exec/src/fixture.rs",
            include_str!("fixtures/unused_pub_reexporter.rs"),
        ),
    ];
    let diags = ceg_lint::unused_pub::check(&files);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].func, "reexported_only", "{}", diags[0]);
    assert_eq!(diags[0].path, "crates/graph/src/fixture.rs", "{}", diags[0]);
}

// ---- the rules clippy holds -------------------------------------------

/// The panic lints each request-path scope denies.
const PANIC_PATH: [&str; 8] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "indexing_slicing",
    "string_slice",
];

/// The lints of the `#![deny(...)]` inner attributes of `src`, comments
/// dropped: `clippy::x` reads as `x`.
fn denied(src: &str) -> Vec<String> {
    let toks: Vec<Tok> = lex(src).into_iter().map(|s| s.tok).collect();
    let mut out = Vec::new();
    for (i, window) in toks.windows(5).enumerate() {
        let head = [Tok::Punct('#'), Tok::Punct('!'), Tok::Punct('[')];
        if window[..3] != head || window[3] != Tok::Ident("deny".into()) {
            continue;
        }
        for tok in toks[i + 5..].iter().take_while(|t| **t != Tok::Punct(')')) {
            match tok {
                Tok::Ident(name) if name != "clippy" => out.push(name.clone()),
                _ => {}
            }
        }
    }
    out
}

/// The `path = "..."` entries of the `key = [...]` array of a clippy.toml.
fn config_paths(toml: &str, key: &str) -> Vec<String> {
    let lines: Vec<&str> = toml
        .lines()
        .map(|l| l.trim())
        .filter(|l| !l.starts_with('#'))
        .collect();
    let body = lines
        .iter()
        .skip_while(|l| !l.starts_with(&format!("{key} = [")))
        .skip(1)
        .take_while(|l| **l != "]");
    body.filter_map(|l| l.split('"').nth(1).map(String::from))
        .collect()
}

#[test]
fn clippy_holds_the_lock_panic_path_and_durability_rules() {
    // CI's clippy step passes just as well with a rule's declaration
    // deleted, so the declarations themselves are pinned here.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    for rel in [
        "crates/service/src/lib.rs",
        "crates/graph/src/wal.rs",
        "crates/graph/src/snapshot.rs",
    ] {
        let lints = denied(&read(rel));
        for lint in PANIC_PATH {
            assert!(
                lints.iter().any(|l| l == lint),
                "{rel} must `#![deny(clippy::{lint})]`: it denies {lints:?}"
            );
        }
    }
    let config = read("clippy.toml");
    let types = config_paths(&config, "disallowed-types");
    assert!(
        types.contains(&"std::sync::Mutex".into()) && types.contains(&"std::sync::RwLock".into()),
        "clippy.toml must disallow the raw std locks: {types:?}"
    );
    let methods = config_paths(&config, "disallowed-methods");
    assert!(
        methods.contains(&"std::fs::File::create".into())
            && methods.contains(&"std::fs::OpenOptions::new".into()),
        "clippy.toml must disallow creating files outside `vfs::Storage`: {methods:?}"
    );
}

// ---- doc-refs ---------------------------------------------------------

#[test]
fn doc_refs_fires_once_per_bad_reference_kind() {
    // The fixture plays the README of a tree that holds these files.
    let roadmap = "# ROADMAP\n\n## Open items\n\n1. **Open.**\n   (a) *A part.*\n\
                   3. *(Retired: done.)*\n\n## Recent\n";
    let architecture = "# Architecture\n\n## The pipeline\n\n### §D.1 Datasets\n";
    let cegtool = "const COMMANDS: &[Row] = &[\n\
                   (\"query\", \"<addr> <queries.wl>\", &[\"--batch\", \"--deadline-ms N\"], 3, q),\n\
                   ];\n";
    let cegcli = "const COMMANDS: &[Row] = &[\n\
                  (\"serve\", \"<addr>\",\n &[\"--jobs N\"],\n 3, serve),\n];\n";
    let files = [
        ("README.md", include_str!("fixtures/doc_refs.md")),
        ("ROADMAP.md", roadmap),
        ("docs/ARCHITECTURE.md", architecture),
        ("src/bin/cegtool.rs", cegtool),
        ("src/bin/cegcli.rs", cegcli),
        ("crates/graph/src/snapshot.rs", "//! Two\n//! lines.\n"),
        ("tests/snapshot.rs", "fn main() {}\n"),
        ("tests/prop_count.rs", "fn main() {}\n"),
    ];
    let diags = ceg_lint::doc_refs::check(&files);
    let kinds = [
        "`crates/graph/src/nowhere.rs` names no file",
        "`snapshot.rs` names 2 files",
        "`crates/graph/src/snapshot.rs:999` is past the end",
        "`cegtool frobnicate` is no row",
        "`--turbo` is not a flag of `cegtool query`",
        "ROADMAP item 3 is not an open item",
        "`PR 12` cites history",
        "has no section \"Nonexistent section\"",
    ];
    for kind in kinds {
        let hits: Vec<&Diagnostic> = diags.iter().filter(|d| d.msg.contains(kind)).collect();
        assert_eq!(
            hits.len(),
            1,
            "`{kind}` fired {} times: {diags:#?}",
            hits.len()
        );
        assert_eq!(
            (hits[0].lint, hits[0].path.as_str()),
            ("doc-refs", "README.md")
        );
    }
    assert_eq!(diags.len(), kinds.len(), "{diags:#?}");
}

// ---- the acceptance bar ------------------------------------------------

#[test]
fn whole_repo_is_clean() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = ceg_lint::find_repo_root(here).expect("workspace root above crates/lint");
    let (diags, scanned) = ceg_lint::run(&root).expect("lint run");
    assert!(
        diags.is_empty(),
        "`cargo xtask lint` must exit clean on the tree:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        scanned > 50,
        "walk found only {scanned} files — wrong root?"
    );
}
