//! `unused-pub`: every crate exports only what a caller names. Rust's
//! `dead_code` does not fire on `pub` items, so a `pub fn` in the
//! non-test code of a `crates/<name>/src/` directory (the vendored
//! stand-ins under `vendor/` are not ours) is a diagnostic when its name
//! is an identifier token in no *other* walked file (`crates/`, `src/`,
//! `tests/`, `examples/`, `bench/src/`). Comments and strings are not
//! mentions (the lexer drops them), nor are the names inside a `use …;`
//! declaration (a re-export is not a caller), nor is anything in the
//! defining file, its unit tests included. `pub(crate)` items and items
//! under `#[cfg(test)]` are out of scope.

use std::collections::HashMap;

use crate::lexer::{lex, Spanned, Tok};
use crate::lints::{scan_attribute, Diagnostic, UNUSED_PUB};

/// Files whose identifiers count as mentions.
const MENTION_ROOTS: &[&str] = &["crates/", "src/", "tests/", "examples/", "bench/src/"];

/// The diagnostics of one set of `(repo-relative path, source)` pairs.
/// `run` hands it the whole walk; the fixture tests hand it a few files.
pub fn check(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let lexed: Vec<(&str, Vec<Spanned>)> = files
        .iter()
        .filter(|(rel, _)| MENTION_ROOTS.iter().any(|r| rel.starts_with(r)))
        .map(|&(rel, src)| (rel, lex(src)))
        .collect();
    // How many files name each identifier (each file counts once).
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for (_, toks) in &lexed {
        let mut names = mentions(toks);
        names.sort_unstable();
        names.dedup();
        for name in names {
            *files_naming.entry(name).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    for (rel, toks) in &lexed {
        if !in_crate_src(rel) {
            continue;
        }
        for (name, line) in pub_fns(toks) {
            // The defining file is the one mention it always has.
            if files_naming.get(name.as_str()) == Some(&1) {
                out.push(Diagnostic {
                    lint: UNUSED_PUB,
                    path: rel.to_string(),
                    line,
                    msg: format!(
                        "`pub fn {name}` is named by no other file; delete it, or drop \
                         `pub` if only this file calls it"
                    ),
                    func: name,
                });
            }
        }
    }
    out
}

/// Whether `rel` lies in a workspace crate's `src/`: `crates/<name>/src/…`.
fn in_crate_src(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// The identifiers of `toks` outside `use …;` declarations.
fn mentions(toks: &[Spanned]) -> Vec<&str> {
    let mut names = Vec::new();
    let mut in_use = false;
    for s in toks {
        match &s.tok {
            Tok::Ident(kw) if kw == "use" => in_use = true,
            Tok::Punct(';') => in_use = false,
            Tok::Ident(name) if !in_use => names.push(name.as_str()),
            _ => {}
        }
    }
    names
}

/// `(name, line)` of every `pub fn` outside `#[cfg(test)]` / `#[test]`
/// items. `pub(crate)` and the other restricted visibilities are not
/// matched: their `pub` is followed by `(`.
fn pub_fns(toks: &[Spanned]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut depth = 0u32;
    let mut brackets = 0u32;
    let mut tests: Vec<u32> = Vec::new();
    let mut pending_test = false;
    let mut i = 0usize;
    while let Some(t) = toks.get(i) {
        match &t.tok {
            Tok::Punct('#') => {
                let open = if toks.get(i + 1).map(|s| &s.tok) == Some(&Tok::Punct('!')) {
                    i + 2
                } else {
                    i + 1
                };
                if toks.get(open).map(|s| &s.tok) == Some(&Tok::Punct('[')) {
                    let (end, is_test) = scan_attribute(toks, open);
                    pending_test |= is_test;
                    i = end;
                    continue;
                }
            }
            Tok::Punct('{') => {
                depth += 1;
                if pending_test {
                    pending_test = false;
                    tests.push(depth);
                }
            }
            Tok::Punct('}') => {
                while tests.last().is_some_and(|&d| d >= depth) {
                    tests.pop();
                }
                depth = depth.saturating_sub(1);
            }
            Tok::Punct('[') => brackets += 1,
            Tok::Punct(']') => brackets = brackets.saturating_sub(1),
            Tok::Punct(';') if brackets == 0 => pending_test = false,
            Tok::Ident(kw) if kw == "pub" && tests.is_empty() && !pending_test => {
                out.extend(declared_fn(toks.get(i + 1..).unwrap_or_default()));
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The `(name, line)` of the fn that the tokens after a `pub` declare, if
/// they declare one: `fn f`, `const fn f`, `unsafe extern "C" fn f`.
fn declared_fn(after_pub: &[Spanned]) -> Option<(String, u32)> {
    let mut rest = after_pub.iter().skip_while(|s| match &s.tok {
        Tok::Ident(q) => matches!(q.as_str(), "const" | "unsafe" | "async" | "extern"),
        Tok::Literal => true,
        _ => false,
    });
    let is_fn = matches!(&rest.next()?.tok, Tok::Ident(f) if f == "fn");
    match rest.next()? {
        Spanned {
            tok: Tok::Ident(name),
            line,
        } if is_fn => Some((name.clone(), *line)),
        _ => None,
    }
}
