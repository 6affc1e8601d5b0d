//! `doc-refs`: the docs name only what exists. Four kinds of reference
//! in `docs/ARCHITECTURE.md`, `README.md` and the verify skill are
//! checked against the tree:
//!
//! - **paths**: every `x.rs` or `x.rs:N[-M]` resolves. A path names the
//!   walked file it equals or ends with (after a `/`), and must name
//!   exactly one, so a bare `snapshot.rs` that two directories hold is
//!   ambiguous; `:N` lies within that file. Absolute paths (`/tmp/…`) are
//!   outside the repo and skipped, and a `*` in a path is a glob that must
//!   match at least one file;
//! - **commands**: in code (a backtick span or a fenced block), every
//!   `cegcli <cmd>` / `cegtool <cmd>` is a row of that binary's
//!   `COMMANDS` table, and every `--flag` after it on the line is one of
//!   that row's flags;
//! - **ROADMAP items**: every `ROADMAP [item] N[(x)]` names an item
//!   under ROADMAP's "Open items" that is not *Retired* (and, with
//!   `(x)`, has that part);
//! - **history**: no doc cites a `PR` by number; CHANGES.md holds the
//!   history.
//!
//! The same rule resolves every section of `docs/ARCHITECTURE.md` named
//! from outside it: in the other docs and in the comments of every walked
//! `.rs` file, a quoted heading prefix or a `§D.n` within 80 characters
//! of the word `ARCHITECTURE` (in the same paragraph, or the same run of
//! comment lines) must start, or appear in, one of its headings.

use std::collections::HashMap;

use crate::lints::{Diagnostic, DOC_REFS};

/// The docs whose paths, commands, ROADMAP items and history are checked.
pub(crate) const DOCS: &[&str] = &[ARCHITECTURE, "README.md", ".claude/skills/verify/SKILL.md"];

const ARCHITECTURE: &str = "docs/ARCHITECTURE.md";
const ROADMAP: &str = "ROADMAP.md";

/// Each binary and the file that declares its `COMMANDS` table.
const BINARIES: &[(&str, &str)] = &[
    ("cegcli", "src/bin/cegcli.rs"),
    ("cegtool", "src/bin/cegtool.rs"),
];

/// How close (in characters) a quoted heading or `§D.n` must be to the
/// word `ARCHITECTURE` to be read as a reference to one of its sections.
const SECTION_WINDOW: usize = 80;

/// The diagnostics of one set of `(repo-relative path, text)` pairs: the
/// docs, `ROADMAP.md` and the walked `.rs` files. `run` hands it the
/// whole walk; the fixture test hands it a few files.
pub fn check(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let text_of = |want: &str| files.iter().find(|(rel, _)| *rel == want).map(|f| f.1);
    let tree = Tree {
        rs: files
            .iter()
            .filter(|(rel, _)| rel.ends_with(".rs"))
            .map(|&(rel, src)| (rel, src.lines().count()))
            .collect(),
        commands: BINARIES
            .iter()
            .map(|&(bin, file)| (bin, text_of(file).map(command_rows).unwrap_or_default()))
            .collect(),
        items: text_of(ROADMAP).map(open_items).unwrap_or_default(),
        headings: text_of(ARCHITECTURE)
            .map(|t| {
                t.lines()
                    .filter(|l| l.starts_with('#'))
                    .map(|l| l.trim_start_matches('#').trim().to_string())
                    .collect()
            })
            .unwrap_or_default(),
    };
    let mut out = Vec::new();
    for &(rel, text) in files {
        if DOCS.contains(&rel) {
            tree.check_doc(rel, text, &mut out);
        }
        if rel != ARCHITECTURE && (DOCS.contains(&rel) || rel.ends_with(".rs")) {
            tree.check_sections(rel, text, &mut out);
        }
    }
    out
}

/// What a reference may name.
struct Tree<'a> {
    /// Every walked `.rs` file and its line count.
    rs: Vec<(&'a str, usize)>,
    /// Per binary, its command rows: `(name, flags)`.
    commands: HashMap<&'a str, Vec<(String, Vec<String>)>>,
    /// ROADMAP's open items: number and text.
    items: HashMap<u32, String>,
    /// ARCHITECTURE's headings, without their `#`s.
    headings: Vec<String>,
}

impl Tree<'_> {
    fn check_doc(&self, rel: &str, text: &str, out: &mut Vec<Diagnostic>) {
        let mut fenced = false;
        let mut ticked = false;
        let lines: Vec<&str> = text.lines().collect();
        for (i, &line) in lines.iter().enumerate() {
            let mut diag = |msg: String| out.push(diagnostic(rel, i + 1, msg));
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if line.trim().is_empty() {
                ticked = false;
            }
            for pr in history(line) {
                diag(format!(
                    "`{pr}` cites history; state the design, CHANGES.md has the history"
                ));
            }
            for (path, span) in paths(line) {
                if let Some(msg) = self.resolve(path, span) {
                    diag(msg);
                }
            }
            let next = lines.get(i + 1).copied().unwrap_or("");
            for (item, part) in roadmap_refs(&format!("{line} {next}"), line.len()) {
                if let Some(msg) = self.open_item(item, part) {
                    diag(msg);
                }
            }
            let code: Vec<&str> = if fenced {
                vec![line]
            } else {
                let mut spans = Vec::new();
                for (k, piece) in line.split('`').enumerate() {
                    if k > 0 {
                        ticked = !ticked;
                    }
                    if ticked {
                        spans.push(piece);
                    }
                }
                spans
            };
            for span in code {
                for msg in self.commands_in(span) {
                    diag(msg);
                }
            }
        }
    }

    /// Why `path` (with its `:N[-M]` line span) names no single file.
    fn resolve(&self, path: &str, span: Option<(usize, usize)>) -> Option<String> {
        let hits: Vec<&(&str, usize)> = self
            .rs
            .iter()
            .filter(|(rel, _)| {
                if path.contains('*') {
                    glob_match(path, rel) || glob_match(&format!("*/{path}"), rel)
                } else {
                    *rel == path || rel.ends_with(&format!("/{path}"))
                }
            })
            .collect();
        match (hits.as_slice(), span) {
            ([], _) => Some(format!("`{path}` names no file of the tree")),
            (_, _) if path.contains('*') => None,
            ([(_, len)], Some((from, to))) if from == 0 || from > to || to > *len => Some(format!(
                "`{path}:{from}` is past the end of the file, which has {len} lines"
            )),
            ([_], _) => None,
            (many, _) => Some(format!(
                "`{path}` names {} files ({}); give the path",
                many.len(),
                many.iter()
                    .map(|(rel, _)| *rel)
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }

    /// Why `ROADMAP item n(part)` names no open item.
    fn open_item(&self, n: u32, part: Option<char>) -> Option<String> {
        let Some(body) = self.items.get(&n) else {
            return Some(format!("ROADMAP item {n} is not an open item"));
        };
        match part {
            Some(p) if !body.contains(&format!("({p})")) => {
                Some(format!("ROADMAP item {n} has no part ({p})"))
            }
            _ => None,
        }
    }

    /// Unknown commands and flags in one piece of code.
    fn commands_in(&self, code: &str) -> Vec<String> {
        let mut msgs = Vec::new();
        let code = code.split(" #").next().unwrap_or(code);
        let mentions: Vec<(usize, &str)> = BINARIES
            .iter()
            .flat_map(|&(bin, _)| words_at(code, bin).into_iter().map(move |at| (at, bin)))
            .collect();
        for &(at, bin) in &mentions {
            let end = mentions
                .iter()
                .map(|&(other, _)| other)
                .filter(|&other| other > at)
                .min()
                .unwrap_or(code.len());
            let mut tokens = code
                .get(at + bin.len()..end)
                .unwrap_or("")
                .split_whitespace();
            let mut cmd = tokens.next();
            if cmd == Some("--") {
                cmd = tokens.next();
            }
            let Some(cmd) = cmd.filter(|c| c.starts_with(|ch: char| ch.is_ascii_lowercase()))
            else {
                continue;
            };
            let cmd = cmd.trim_end_matches(|ch: char| !ch.is_ascii_alphanumeric());
            let rows = self
                .commands
                .get(bin)
                .map(Vec::as_slice)
                .unwrap_or_default();
            let Some((_, flags)) = rows.iter().find(|(name, _)| name == cmd) else {
                msgs.push(format!(
                    "`{bin} {cmd}` is no row of the `COMMANDS` table of `{bin}`"
                ));
                continue;
            };
            for token in tokens {
                let flag = token
                    .trim_matches(|ch: char| matches!(ch, '[' | ']' | '(' | ')' | ',' | '.' | ';'))
                    .split('=')
                    .next()
                    .unwrap_or("");
                if flag.len() > 2 && flag.starts_with("--") && !flags.iter().any(|f| f == flag) {
                    msgs.push(format!("`{flag}` is not a flag of `{bin} {cmd}`"));
                }
            }
        }
        msgs
    }

    /// Unknown ARCHITECTURE sections named near the word `ARCHITECTURE`.
    fn check_sections(&self, rel: &str, text: &str, out: &mut Vec<Diagnostic>) {
        for para in paragraphs(rel, text) {
            let anchors: Vec<usize> = para
                .text
                .match_indices("ARCHITECTURE")
                .map(|m| m.0)
                .collect();
            if anchors.is_empty() {
                continue;
            }
            let near = |from: usize, to: usize| {
                anchors
                    .iter()
                    .any(|&a| a.abs_diff(from).min(a.abs_diff(to)) <= SECTION_WINDOW)
            };
            let mut quotes = para.text.match_indices('"').map(|m| m.0);
            while let (Some(open), Some(close)) = (quotes.next(), quotes.next()) {
                let name = para.text.get(open + 1..close).unwrap_or("");
                if near(open, close) && !self.headings.iter().any(|h| h.starts_with(name)) {
                    out.push(diagnostic(
                        rel,
                        para.line_at(open),
                        format!("{ARCHITECTURE} has no section \"{name}\""),
                    ));
                }
            }
            for (at, label) in deviation_labels(&para.text) {
                let named = self.headings.iter().any(|h| {
                    h.match_indices(label.as_str()).any(|(i, _)| {
                        !h[i + label.len()..].starts_with(|c: char| c.is_ascii_digit())
                    })
                });
                if near(at, at + label.len()) && !named {
                    out.push(diagnostic(
                        rel,
                        para.line_at(at),
                        format!("{ARCHITECTURE} has no section {label}"),
                    ));
                }
            }
        }
    }
}

fn diagnostic(rel: &str, line: usize, msg: String) -> Diagnostic {
    Diagnostic {
        lint: DOC_REFS,
        path: rel.to_string(),
        line: line as u32,
        func: String::new(),
        msg,
    }
}

/// The `PR <n>` citations of a line.
fn history(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (at, _) in line.match_indices("PR") {
        let before = line[..at].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric()) {
            continue;
        }
        let rest = &line[at + 2..];
        let digits = rest.strip_prefix(' ').unwrap_or(rest);
        if let Some((_, tail)) = leading_number(digits) {
            out.push(&line[at..line.len() - tail.len()]);
        }
    }
    out
}

/// The `.rs` paths of a line, each with its `:N[-M]` span if it has one.
fn paths(line: &str) -> Vec<(&str, Option<(usize, usize)>)> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-' | '*');
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find(is_path) {
        let token_len = rest[start..]
            .find(|c| !is_path(c))
            .unwrap_or(rest.len() - start);
        let token = &rest[start..start + token_len];
        let after = &rest[start + token_len..];
        rest = after;
        let token = token.trim_end_matches('.');
        if !token.ends_with(".rs") || token.starts_with('/') || token.len() == 3 {
            continue;
        }
        let token = token.strip_prefix("./").unwrap_or(token);
        let span = after
            .strip_prefix(':')
            .and_then(leading_number)
            .map(|(from, tail)| {
                let to = tail
                    .strip_prefix('-')
                    .and_then(leading_number)
                    .map_or(from, |(to, _)| to);
                (from as usize, to as usize)
            });
        out.push((token, span));
    }
    out
}

/// `(item, part)` of every `ROADMAP [item|items] N[(x)]` that starts in
/// the first `within` bytes of `text` (a line, then the next one, so a
/// reference may wrap).
fn roadmap_refs(text: &str, within: usize) -> Vec<(u32, Option<char>)> {
    let mut out = Vec::new();
    for (at, word) in text.match_indices("ROADMAP").filter(|&(at, _)| at < within) {
        let mut rest = text[at + word.len()..].trim_start();
        for noun in ["items ", "item "] {
            if let Some(r) = rest.strip_prefix(noun) {
                rest = r.trim_start();
                break;
            }
        }
        let Some((n, tail)) = leading_number(rest) else {
            continue;
        };
        let mut part = tail.chars();
        let part = match (part.next(), part.next(), part.next()) {
            (Some('('), Some(p), Some(')')) if p.is_ascii_lowercase() => Some(p),
            _ => None,
        };
        out.push((n, part));
    }
    out
}

/// ROADMAP's "Open items" that are not retired, by number.
fn open_items(roadmap: &str) -> HashMap<u32, String> {
    let mut items: HashMap<u32, String> = HashMap::new();
    let mut current = None;
    let mut in_open = false;
    for line in roadmap.lines() {
        if line.starts_with('#') {
            in_open = line.trim_start_matches('#').trim() == "Open items";
            current = None;
            continue;
        }
        if !in_open {
            continue;
        }
        if let Some((n, tail)) = leading_number(line) {
            if let Some(title) = tail.strip_prefix(". ") {
                current = (!title.trim_start().starts_with("*(Retired")).then_some(n);
            }
        }
        if let Some(n) = current {
            let body = items.entry(n).or_default();
            body.push_str(line);
            body.push('\n');
        }
    }
    items
}

/// The byte offsets of `word` in `text` as a whole word (a path before it,
/// as in `target/release/cegcli`, still counts).
fn words_at(text: &str, word: &str) -> Vec<usize> {
    let inner = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.');
    text.match_indices(word)
        .map(|(at, _)| at)
        .filter(|&at| {
            !text[..at].chars().next_back().is_some_and(inner)
                && !text[at + word.len()..].chars().next().is_some_and(inner)
        })
        .collect()
}

/// Every `§D.n` of `text` with its offset.
fn deviation_labels(text: &str) -> Vec<(usize, String)> {
    text.match_indices("§D.")
        .filter_map(|(at, label)| {
            let (n, _) = leading_number(&text[at + label.len()..])?;
            Some((at, format!("{label}{n}")))
        })
        .collect()
}

/// Text joined across lines, and where each line starts in it.
struct Paragraph {
    text: String,
    starts: Vec<(usize, usize)>,
}

impl Paragraph {
    fn line_at(&self, offset: usize) -> usize {
        let i = self.starts.partition_point(|&(start, _)| start <= offset);
        self.starts
            .get(i.saturating_sub(1))
            .map_or(1, |&(_, line)| line)
    }
}

/// The paragraphs of a doc (runs of non-blank lines), or the comment
/// blocks of a `.rs` file (runs of `//` lines, their markers dropped).
fn paragraphs(rel: &str, text: &str) -> Vec<Paragraph> {
    let rust = rel.ends_with(".rs");
    let mut out = Vec::new();
    let mut para = Paragraph {
        text: String::new(),
        starts: Vec::new(),
    };
    for (i, line) in text.lines().enumerate() {
        let body = if rust {
            line.trim_start()
                .strip_prefix("//")
                .map(|c| c.trim_start_matches(['/', '!']))
        } else {
            Some(line).filter(|l| !l.trim().is_empty())
        };
        match body {
            Some(body) => {
                para.starts.push((para.text.len(), i + 1));
                para.text.push_str(body);
                para.text.push(' ');
            }
            None if !para.starts.is_empty() => out.push(std::mem::replace(
                &mut para,
                Paragraph {
                    text: String::new(),
                    starts: Vec::new(),
                },
            )),
            None => {}
        }
    }
    if !para.starts.is_empty() {
        out.push(para);
    }
    out
}

/// Command rows of a binary's `const COMMANDS` table: each row's first
/// string literal is its name, and the literals after its usage that
/// start with `--` are its flags (`"--jobs N"` is the flag `--jobs`).
fn command_rows(src: &str) -> Vec<(String, Vec<String>)> {
    let mut rows: Vec<(String, Vec<String>)> = Vec::new();
    let mut lines = src.lines().skip_while(|l| !l.contains("const COMMANDS"));
    lines.next();
    for line in lines {
        let line = line.trim();
        if line.starts_with("];") {
            break;
        }
        if line.starts_with("//") {
            continue;
        }
        let literals: Vec<&str> = line.split('"').skip(1).step_by(2).collect();
        let mut literals = literals.into_iter();
        if line.starts_with('(') {
            let Some(name) = literals.next() else {
                continue;
            };
            literals.next();
            rows.push((name.to_string(), Vec::new()));
        }
        if let Some((_, flags)) = rows.last_mut() {
            flags.extend(
                literals
                    .filter(|l| l.starts_with("--"))
                    .filter_map(|l| l.split_whitespace().next())
                    .map(str::to_string),
            );
        }
    }
    rows
}

/// The decimal number `s` starts with, and what follows it.
fn leading_number(s: &str) -> Option<(u32, &str)> {
    let tail = s.trim_start_matches(|c: char| c.is_ascii_digit());
    let n = s[..s.len() - tail.len()].parse().ok()?;
    Some((n, tail))
}

/// `*` matches any run of characters within one path segment.
fn glob_match(pattern: &str, path: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == path,
        Some((head, tail)) => {
            let Some(rest) = path.strip_prefix(head) else {
                return false;
            };
            let segment = rest.find('/').unwrap_or(rest.len());
            (0..=segment).any(|skip| glob_match(tail, &rest[skip..]))
        }
    }
}
