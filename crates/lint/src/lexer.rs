//! A minimal Rust lexer for token-stream lint scanning.
//!
//! No syntax tree, no external crates: the lints only need identifiers
//! and punctuation with line numbers, with string/char literals and
//! comments reliably skipped so a name inside a message or a doc
//! example is never read as a mention. The grammar subset handled here is
//! exactly what a lexer must get right to avoid *mis-tokenizing* real
//! code: nested block comments, raw strings with arbitrary `#` fences,
//! byte strings, raw identifiers, and the `'a` lifetime vs `'a'`
//! char-literal ambiguity.

/// One token of interest to the lints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`unwrap`, `fn`, `Mutex`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `!`, `[`, `{`, ...).
    Punct(char),
    /// Any literal: string, raw string, char, byte, or number. The
    /// contents are deliberately dropped — literal text must never
    /// match a lint pattern.
    Literal,
    /// A lifetime (`'a`), told apart from a `'a'` char literal.
    Lifetime,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    pub tok: Tok,
    pub line: u32,
}

/// Tokenize `src`, skipping comments and collapsing literals.
pub fn lex(src: &str) -> Vec<Spanned> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                // Block comments nest in Rust.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let start = line;
                i = skip_string(&b, i, &mut line);
                out.push(Spanned {
                    tok: Tok::Literal,
                    line: start,
                });
            }
            '\'' => {
                // Lifetime (`'a`) or char literal (`'a'`, `'\n'`, `'('`).
                let start = line;
                if b.get(i + 1).is_some_and(|&c| is_ident_start(c)) {
                    let mut j = i + 1;
                    while j < b.len() && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    if b.get(j) == Some(&'\'') {
                        // 'a' — a char literal.
                        i = j + 1;
                        out.push(Spanned {
                            tok: Tok::Literal,
                            line: start,
                        });
                    } else {
                        // 'a — a lifetime (no closing quote).
                        i = j;
                        out.push(Spanned {
                            tok: Tok::Lifetime,
                            line: start,
                        });
                    }
                } else {
                    // Escaped or punctuation char literal.
                    i += 1;
                    if b.get(i) == Some(&'\\') {
                        i += 2;
                    } else {
                        i += 1;
                    }
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.push(Spanned {
                        tok: Tok::Literal,
                        line: start,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = line;
                i += 1;
                while i < b.len() {
                    if is_ident_continue(b[i]) {
                        i += 1;
                    } else if b[i] == '.' && b.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                        // `1.5` continues the literal; `0..n` does not.
                        i += 2;
                    } else {
                        break;
                    }
                }
                out.push(Spanned {
                    tok: Tok::Literal,
                    line: start,
                });
            }
            c if is_ident_start(c) => {
                let start_line = line;
                // Raw strings / byte strings / raw idents share the
                // `r`/`b` prefix with plain identifiers.
                if (c == 'r' || c == 'b')
                    && matches!(b.get(i + 1), Some(&'"') | Some(&'#'))
                    && raw_prefix_is_string(&b, i)
                {
                    i = skip_raw_or_prefixed_string(&b, i, &mut line);
                    out.push(Spanned {
                        tok: Tok::Literal,
                        line: start_line,
                    });
                    continue;
                }
                if c == 'b' && b.get(i + 1) == Some(&'\'') {
                    // Byte literal b'x'.
                    i += 2;
                    if b.get(i) == Some(&'\\') {
                        i += 2;
                    } else {
                        i += 1;
                    }
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.push(Spanned {
                        tok: Tok::Literal,
                        line: start_line,
                    });
                    continue;
                }
                // `r#type` is the raw identifier `type`.
                if c == 'r'
                    && b.get(i + 1) == Some(&'#')
                    && b.get(i + 2).is_some_and(|&c| is_ident_start(c))
                {
                    i += 2;
                }
                let start = i;
                i += 1;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                out.push(Spanned {
                    tok: Tok::Ident(b[start..i].iter().collect()),
                    line: start_line,
                });
            }
            other => {
                out.push(Spanned {
                    tok: Tok::Punct(other),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Is the `r`/`b` at `i` the start of a raw/byte string rather than an
/// identifier like `r#type` (raw ident) or a lone `r` variable?
fn raw_prefix_is_string(b: &[char], i: usize) -> bool {
    let mut j = i + 1;
    if b.get(j) == Some(&'"') {
        return true;
    }
    // r#..#" — any run of fences then a quote is a raw string; a raw
    // *identifier* is `r#` followed by an ident start.
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    j > i + 1 && b.get(j) == Some(&'"')
}

/// Skip a plain `"..."` string starting at the opening quote; returns
/// the index just past the closing quote.
fn skip_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip `r"..."`, `r#"..."#`, `b"..."`, `br##"..."##` starting at the
/// prefix letter.
fn skip_raw_or_prefixed_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut raw = false;
    while i < b.len() && (b[i] == 'r' || b[i] == 'b') {
        raw |= b[i] == 'r';
        i += 1;
    }
    let mut fences = 0usize;
    while b.get(i) == Some(&'#') {
        fences += 1;
        i += 1;
    }
    debug_assert_eq!(b.get(i), Some(&'"'));
    i += 1;
    if !raw && fences == 0 {
        // b"..." — escapes apply.
        while i < b.len() {
            match b[i] {
                '\\' => i += 2,
                '"' => return i + 1,
                '\n' => {
                    *line += 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        return i;
    }
    // Raw: ends at `"` followed by `fences` hashes; no escapes.
    while i < b.len() {
        if b[i] == '"'
            && b[i + 1..]
                .iter()
                .take(fences)
                .filter(|&&c| c == '#')
                .count()
                == fences
        {
            return i + 1 + fences;
        }
        if b[i] == '\n' {
            *line += 1;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|s| match s.tok {
                Tok::Ident(name) => Some(name),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            // unwrap() in a line comment
            /* panic! in /* a nested */ block */
            let a = "unwrap() in a string";
            let b = r#"panic! in a raw string"#;
            let c = 'x';
            real_ident();
        "##;
        let names = idents(src);
        assert!(names.contains(&"real_ident".to_string()));
        assert!(!names.iter().any(|n| n == "unwrap" || n == "panic"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("&'a [u8] vs 'x' vs b'\\n'");
        assert!(toks.iter().any(|s| s.tok == Tok::Lifetime));
        assert_eq!(
            toks.iter().filter(|s| s.tok == Tok::Literal).count(),
            2,
            "both char/byte literals collapse, the lifetime does not"
        );
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "a\n/*\n\n*/\nb \"x\ny\" c";
        let toks = lex(src);
        let line_of = |name: &str| {
            toks.iter()
                .find(|s| s.tok == Tok::Ident(name.into()))
                .map(|s| s.line)
        };
        assert_eq!(line_of("a"), Some(1));
        assert_eq!(line_of("b"), Some(5));
        assert_eq!(line_of("c"), Some(6));
    }

    #[test]
    fn range_from_integer_keeps_following_ident() {
        let names = idents("&buf[0..len]");
        assert!(names.contains(&"len".to_string()));
        assert!(names.contains(&"buf".to_string()));
    }

    #[test]
    fn raw_identifiers_lex_as_their_name() {
        assert_eq!(idents("r#type r tail"), vec!["type", "r", "tail"]);
    }
}
