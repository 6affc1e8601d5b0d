//! The lint acceptance corpus: every file in `tests/fixtures/` is a
//! known-bad (or deliberately mixed) snippet that must fire **exactly
//! one** diagnostic of a specific lint when scanned as if it lived at a
//! request-path location (`unused-pub` scans a pair of files together)
//! — plus allowlist-hygiene cases and the whole-repo clean run.
//!
//! The fixtures are excluded from the real tree walk (see
//! `ceg_lint::run`), so they never dirty `cargo xtask lint` itself.

use ceg_lint::allowlist;
use ceg_lint::{lint_source, Diagnostic};

/// Assert `src` fires exactly one diagnostic, of lint `want`, when
/// scanned at the pretend repo-relative path `rel`.
fn expect_one(rel: &str, src: &str, want: &str) -> Diagnostic {
    let diags = lint_source(rel, src);
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one `{want}` diagnostic at {rel}, got {}: {:#?}",
        diags.len(),
        diags
    );
    assert_eq!(diags[0].lint, want, "wrong lint fired: {}", diags[0]);
    diags[0].clone()
}

// A pretend path per lint scope (see `ceg_lint::classify`):
// core = lock only; service = lock+panic+durability;
// server.rs = all of those plus typed-reply; graph and catalog =
// lock+durability.
const LOCK_ONLY: &str = "crates/core/src/fixture.rs";
const SERVICE: &str = "crates/service/src/fixture.rs";
const SERVER: &str = "crates/service/src/server.rs";
const GRAPH: &str = "crates/graph/src/fixture.rs";
const CATALOG: &str = "crates/catalog/src/fixture.rs";

#[test]
fn lock_discipline_catches_raw_imports() {
    let d = expect_one(
        LOCK_ONLY,
        include_str!("fixtures/lock_use.rs"),
        "lock-discipline",
    );
    assert!(
        d.msg.contains("OrderedMutex"),
        "diagnostic names the fix: {d}"
    );
}

#[test]
fn lock_discipline_catches_qualified_construction() {
    let d = expect_one(
        LOCK_ONLY,
        include_str!("fixtures/lock_construct.rs"),
        "lock-discipline",
    );
    assert_eq!(d.func, "make", "finding is attributed to its function: {d}");
}

#[test]
fn lock_discipline_has_no_test_exemption() {
    expect_one(
        LOCK_ONLY,
        include_str!("fixtures/lock_rwlock_in_test.rs"),
        "lock-discipline",
    );
}

#[test]
fn panic_path_catches_unwrap() {
    let d = expect_one(
        SERVICE,
        include_str!("fixtures/panic_unwrap.rs"),
        "panic-path",
    );
    assert_eq!(d.func, "handle");
}

#[test]
fn panic_path_catches_expect_and_ignores_strings() {
    // The expect message itself says `unwrap()`; only the call fires.
    expect_one(
        SERVICE,
        include_str!("fixtures/panic_expect.rs"),
        "panic-path",
    );
}

#[test]
fn panic_path_catches_panic_macros() {
    let d = expect_one(
        SERVICE,
        include_str!("fixtures/panic_macro.rs"),
        "panic-path",
    );
    assert!(d.msg.contains("unreachable!"), "{d}");
}

#[test]
fn panic_path_catches_indexing_not_array_types() {
    let d = expect_one(
        SERVICE,
        include_str!("fixtures/panic_index.rs"),
        "panic-path",
    );
    assert!(d.msg.contains("indexing"), "{d}");
}

#[test]
fn panic_path_exempts_cfg_test_items() {
    // Two identical unwraps; only the non-test one fires.
    let d = expect_one(
        SERVICE,
        include_str!("fixtures/panic_cfg_test.rs"),
        "panic-path",
    );
    assert_eq!(
        d.func, "lookup",
        "the test-module unwrap must stay exempt: {d}"
    );
}

#[test]
fn typed_reply_catches_raw_writes() {
    expect_one(
        SERVER,
        include_str!("fixtures/typed_reply.rs"),
        "typed-reply",
    );
}

#[test]
fn typed_reply_accepts_protocol_constructors() {
    // One funneled write, one raw: exactly the raw one fires.
    let d = expect_one(
        SERVER,
        include_str!("fixtures/typed_reply_mixed.rs"),
        "typed-reply",
    );
    assert_eq!(
        d.line, 6,
        "the protocol-funneled write on line 5 must pass: {d}"
    );
}

#[test]
fn durability_seam_catches_file_create() {
    for rel in [GRAPH, CATALOG] {
        expect_one(
            rel,
            include_str!("fixtures/durability_create.rs"),
            "durability-seam",
        );
    }
}

#[test]
fn durability_seam_catches_open_options() {
    expect_one(
        GRAPH,
        include_str!("fixtures/durability_openoptions.rs"),
        "durability-seam",
    );
}

#[test]
fn typed_reply_only_applies_to_connection_handlers() {
    // The same raw write outside server.rs is not a reply; nothing fires.
    let diags = lint_source(SERVICE, include_str!("fixtures/typed_reply.rs"));
    assert!(
        diags.is_empty(),
        "typed-reply leaked outside server.rs: {diags:#?}"
    );
}

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

// ---- allowlist hygiene -------------------------------------------------

#[test]
fn allowlist_suppresses_justified_entries() {
    let list = allowlist::parse(
        "ceg-lint.allow",
        "# unwrap is fine here because reasons\npanic-path fixture.rs handle\n",
    );
    let raw = lint_source(SERVICE, include_str!("fixtures/panic_unwrap.rs"));
    let out = allowlist::apply("ceg-lint.allow", &list, raw, true);
    assert!(
        out.is_empty(),
        "justified entry must suppress cleanly: {out:#?}"
    );
}

#[test]
fn allowlist_unjustified_entry_is_itself_a_diagnostic() {
    // The suppression still applies — but the missing comment fires
    // exactly one `allowlist` diagnostic, so the run cannot go green.
    let list = allowlist::parse("ceg-lint.allow", "panic-path fixture.rs handle\n");
    let raw = lint_source(SERVICE, include_str!("fixtures/panic_unwrap.rs"));
    let out = allowlist::apply("ceg-lint.allow", &list, raw, true);
    assert_eq!(out.len(), 1, "{out:#?}");
    assert_eq!(out[0].lint, "allowlist");
    assert!(out[0].msg.contains("no justification"), "{}", out[0]);
}

#[test]
fn allowlist_stale_entry_is_reported() {
    let list = allowlist::parse(
        "ceg-lint.allow",
        "# this code was fixed long ago\npanic-path nonexistent.rs gone\n",
    );
    let out = allowlist::apply("ceg-lint.allow", &list, Vec::new(), true);
    assert_eq!(out.len(), 1, "{out:#?}");
    assert!(out[0].msg.contains("stale"), "{}", out[0]);
}

#[test]
fn allowlist_comment_justifies_its_contiguous_block_only() {
    let text = "# covers both lines below\n\
                panic-path a.rs f\n\
                panic-path b.rs g\n\
                \n\
                panic-path c.rs h\n";
    let list = allowlist::parse("ceg-lint.allow", text);
    let justified: Vec<bool> = list.entries.iter().map(|e| e.justified).collect();
    assert_eq!(justified, [true, true, false]);
}

#[test]
fn allowlist_wildcard_matches_whole_file() {
    let list = allowlist::parse(
        "ceg-lint.allow",
        "# the whole fixture is exempt\npanic-path fixture.rs *\n",
    );
    let raw = lint_source(SERVICE, include_str!("fixtures/panic_cfg_test.rs"));
    let out = allowlist::apply("ceg-lint.allow", &list, raw, true);
    assert!(out.is_empty(), "{out:#?}");
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
