//! The four per-file lints, run in one forward pass over a file's
//! token stream.
//!
//! Scope tracking (brace depth, enclosing function, `#[cfg(test)]` /
//! `#[test]` exemption) is shared by all lints; which lints apply to a
//! file is decided by [`crate::classify`] from its repo-relative path.

use crate::lexer::{lex, Spanned, Tok};

/// Which lints apply to one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintSet {
    /// `lock-discipline`: no raw `std::sync::{Mutex,RwLock}`.
    pub lock: bool,
    /// `panic-path`: no `unwrap`/`expect`/panic macros/indexing in
    /// non-test request-path code.
    pub panic: bool,
    /// `typed-reply`: `write!`/`writeln!` must go through `protocol::`.
    pub typed_reply: bool,
    /// `durability-seam`: no direct `File::create`/`OpenOptions`.
    pub durability: bool,
}

impl LintSet {
    pub fn any(&self) -> bool {
        self.lock || self.panic || self.typed_reply || self.durability
    }
}

/// One finding: which lint fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint identifier (`lock-discipline`, `panic-path`, `typed-reply`,
    /// `durability-seam`, `service-closure`, `unused-pub`, or
    /// `allowlist` for allowlist hygiene).
    pub lint: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Name of the enclosing function (empty outside any function) —
    /// the granularity allowlist entries match on.
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

pub const LOCK: &str = "lock-discipline";
pub const PANIC: &str = "panic-path";
pub const TYPED_REPLY: &str = "typed-reply";
pub const DURABILITY: &str = "durability-seam";
pub const SERVICE_CLOSURE: &str = "service-closure";
pub const UNUSED_PUB: &str = "unused-pub";
pub const ALLOWLIST: &str = "allowlist";

/// Keywords that may legally precede a `[` without it being an index
/// expression (`return [a, b]`, `match [x] { .. }`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "return", "break", "in", "else", "match", "if", "while", "loop", "move", "ref", "mut", "box",
    "as", "dyn", "impl", "where", "const", "static", "type", "let", "pub", "use", "mod", "fn",
    "struct", "enum", "trait",
];

/// Run the lints enabled in `set` over `src`, reporting findings
/// against `path` (a repo-relative, forward-slash path).
pub fn lint_source(path: &str, src: &str, set: LintSet) -> Vec<Diagnostic> {
    if !set.any() {
        return Vec::new();
    }
    let toks = lex(src);
    let mut out = Vec::new();
    let mut st = Scope::default();
    let mut i = 0usize;
    while i < toks.len() {
        // Attributes are consumed wholesale: their contents must not
        // reach the matchers (`#[should_panic]`, `#[allow(...)]`), and
        // a `test` attribute exempts the item that follows.
        if toks[i].tok == Tok::Punct('#') {
            let open = if toks.get(i + 1).map(|s| &s.tok) == Some(&Tok::Punct('!')) {
                i + 2
            } else {
                i + 1
            };
            if toks.get(open).map(|s| &s.tok) == Some(&Tok::Punct('[')) {
                let (end, is_test) = scan_attribute(&toks, open);
                st.pending_test |= is_test;
                i = end;
                continue;
            }
        }
        match &toks[i].tok {
            Tok::Punct('{') => {
                st.depth += 1;
                if let Some(name) = st.pending_fn.take() {
                    st.fns.push((name, st.depth));
                }
                if st.pending_test {
                    st.pending_test = false;
                    st.tests.push(st.depth);
                }
            }
            Tok::Punct('}') => {
                while st.fns.last().is_some_and(|&(_, d)| d >= st.depth) {
                    st.fns.pop();
                }
                while st.tests.last().is_some_and(|&d| d >= st.depth) {
                    st.tests.pop();
                }
                st.depth = st.depth.saturating_sub(1);
            }
            Tok::Punct(';') if st.brackets == 0 => {
                // A braceless item ends: `#[cfg(test)] use x;`, a trait
                // method declaration, a `use` statement. The bracket
                // guard keeps the `;` of an array type (`[u8; 8]` in a
                // signature) from ending the pending `fn`.
                st.pending_test = false;
                st.pending_fn = None;
                st.in_use = false;
                st.use_saw_std = false;
                st.use_saw_sync = false;
                st.use_has_std_sync = false;
            }
            Tok::Ident(name) => {
                match name.as_str() {
                    "fn" => {
                        if let Some(Tok::Ident(fname)) = toks.get(i + 1).map(|s| &s.tok) {
                            st.pending_fn = Some(fname.clone());
                        }
                    }
                    "use" => {
                        st.in_use = true;
                        st.use_saw_std = false;
                        st.use_saw_sync = false;
                        st.use_has_std_sync = false;
                    }
                    "std" | "sync" if st.in_use => {
                        // Cheap over-approximation: both idents seen
                        // anywhere in one `use` statement. The only
                        // workspace path that is not `std::sync` but
                        // matches is `ceg_graph::sync`, which exports no
                        // `Mutex`/`RwLock` names.
                        st.use_saw_std |= name == "std";
                        st.use_saw_sync |= name == "sync";
                        st.use_has_std_sync = st.use_saw_std && st.use_saw_sync;
                    }
                    _ => {}
                }
                run_matchers(&toks, i, &st, set, path, &mut out);
            }
            Tok::Punct('[') => {
                st.brackets += 1;
                if set.panic && !st.in_test() && is_index_expr(&toks, i) {
                    out.push(Diagnostic {
                        lint: PANIC,
                        path: path.to_string(),
                        line: toks[i].line,
                        func: st.fn_name(),
                        msg: "slice/array indexing can panic on a request path; use `.get()` \
                              and handle `None`"
                            .into(),
                    });
                }
            }
            Tok::Punct(']') => st.brackets = st.brackets.saturating_sub(1),
            _ => {}
        }
        i += 1;
    }
    out
}

#[derive(Default)]
struct Scope {
    depth: u32,
    /// `[`/`]` nesting, so the `;` of an array type does not end items.
    brackets: u32,
    /// `(name, body depth)` for each enclosing `fn`.
    fns: Vec<(String, u32)>,
    /// Depths at which a `#[test]`/`#[cfg(test)]` item's body started.
    tests: Vec<u32>,
    pending_fn: Option<String>,
    pending_test: bool,
    in_use: bool,
    use_saw_std: bool,
    use_saw_sync: bool,
    use_has_std_sync: bool,
}

impl Scope {
    fn in_test(&self) -> bool {
        !self.tests.is_empty()
    }

    fn fn_name(&self) -> String {
        self.fns.last().map(|(n, _)| n.clone()).unwrap_or_default()
    }
}

/// Consume one `[...]` attribute starting at the opening bracket.
/// Returns the index just past the closing bracket and whether the
/// attribute marks test-only code (`test` appears without `not`, so
/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, unix))]` count and
/// `#[cfg(not(test))]` does not).
pub(crate) fn scan_attribute(toks: &[Spanned], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, saw_test && !saw_not);
                }
            }
            Tok::Ident(name) if name == "test" => saw_test = true,
            Tok::Ident(name) if name == "not" => saw_not = true,
            _ => {}
        }
        i += 1;
    }
    (i, false)
}

/// Is the `[` at `i` a postfix index expression (`expr[...]`) rather
/// than an array/slice type or literal?
fn is_index_expr(toks: &[Spanned], i: usize) -> bool {
    match toks.get(i.wrapping_sub(1)).map(|s| &s.tok) {
        Some(Tok::Ident(prev)) => !NON_INDEX_KEYWORDS.contains(&prev.as_str()),
        Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('?')) => true,
        _ => false,
    }
}

fn run_matchers(
    toks: &[Spanned],
    i: usize,
    st: &Scope,
    set: LintSet,
    path: &str,
    out: &mut Vec<Diagnostic>,
) {
    let Tok::Ident(name) = &toks[i].tok else {
        return;
    };
    let diag = |lint: &'static str, msg: String| Diagnostic {
        lint,
        path: path.to_string(),
        line: toks[i].line,
        func: st.fn_name(),
        msg,
    };
    let prev = |k: usize| toks.get(i.wrapping_sub(k)).map(|s| &s.tok);
    let next = |k: usize| toks.get(i + k).map(|s| &s.tok);
    let is_punct = |t: Option<&Tok>, c: char| t == Some(&Tok::Punct(c));
    let is_ident = |t: Option<&Tok>, s: &str| matches!(t, Some(Tok::Ident(n)) if n == s);

    if set.lock && (name == "Mutex" || name == "RwLock") {
        let via_use = st.in_use && st.use_has_std_sync;
        let via_path =
            is_ident(prev(3), "sync") && is_punct(prev(2), ':') && is_punct(prev(1), ':');
        let via_new = is_punct(next(1), ':') && is_punct(next(2), ':') && is_ident(next(3), "new");
        if via_use || via_path || via_new {
            out.push(diag(
                LOCK,
                format!(
                    "raw `std::sync::{name}`; use `ceg_graph::sync::Ordered{name}` \
                     with a declared `LockRank`"
                ),
            ));
        }
    }

    if set.panic && !st.in_test() {
        if (name == "unwrap" || name == "expect")
            && is_punct(prev(1), '.')
            && is_punct(next(1), '(')
        {
            out.push(diag(
                PANIC,
                format!("`.{name}()` on a request path; return a typed error instead"),
            ));
        }
        if matches!(
            name.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && is_punct(next(1), '!')
        {
            out.push(diag(
                PANIC,
                format!("`{name}!` on a request path; return a typed error instead"),
            ));
        }
    }

    if set.typed_reply
        && !st.in_test()
        && (name == "write" || name == "writeln")
        && is_punct(next(1), '!')
        && is_punct(next(2), '(')
        && !macro_args_use_protocol(toks, i + 2)
    {
        out.push(diag(
            TYPED_REPLY,
            format!(
                "`{name}!` writes a reply line without a `protocol::` constructor; \
                 every byte on the wire must come from the typed reply grammar"
            ),
        ));
    }

    if set.durability && !st.in_test() {
        if name == "File"
            && is_punct(next(1), ':')
            && is_punct(next(2), ':')
            && is_ident(next(3), "create")
        {
            out.push(diag(
                DURABILITY,
                "direct `File::create`; route writes through `vfs::Storage` so fault \
                 injection covers them"
                    .into(),
            ));
        }
        if name == "OpenOptions" {
            out.push(diag(
                DURABILITY,
                "direct `OpenOptions`; route writes through `vfs::Storage` so fault \
                 injection covers them"
                    .into(),
            ));
        }
    }
}

/// Scan a macro's argument list (starting at its opening paren) for
/// evidence the payload came from the typed reply grammar: a
/// `protocol` path segment or a `.format(` call on a typed response.
fn macro_args_use_protocol(toks: &[Spanned], open: usize) -> bool {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(name) if name == "protocol" => return true,
            Tok::Ident(name)
                if name == "format"
                    && toks.get(i.wrapping_sub(1)).map(|s| &s.tok) == Some(&Tok::Punct('.')) =>
            {
                return true;
            }
            _ => {}
        }
        i += 1;
    }
    false
}
