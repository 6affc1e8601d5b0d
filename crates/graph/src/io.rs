//! Plain-text edge-list persistence.
//!
//! Format: one edge per line, `src dst label`, whitespace separated; `#`
//! starts a comment. This mirrors the format used by the paper's public
//! artifact repositories for their datasets.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::{GraphBuilder, LabelId, LabeledGraph, VertexId};

/// Parse a graph from a reader in `src dst label` format: one edge a
/// line, `#` to the end of the line a comment, blank lines skipped. Each
/// line is read as bytes into one reused buffer (never the whole input)
/// and split on ASCII whitespace. A missing field, one that is not a
/// decimal integer of its id type, or a fourth token refuses the input
/// with the line number.
fn read_edge_list<R: BufRead>(mut reader: R) -> io::Result<LabeledGraph> {
    let mut b = GraphBuilder::new(0);
    let mut line = Vec::new();
    for lineno in 0.. {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let text = line.split(|&c| c == b'#').next().unwrap_or_default();
        if let Some((src, dst, label)) = parse_edge(lineno, text)? {
            b.add_edge(src, dst, label);
        }
    }
    Ok(b.build())
}

/// The edge on line `lineno` (0-based) of an edge list, comments
/// stripped: `None` if the line is blank, else exactly three fields, each
/// an integer that fits its id type.
fn parse_edge(lineno: usize, line: &[u8]) -> io::Result<Option<(VertexId, VertexId, LabelId)>> {
    let mut it = line
        .split(|&c| matches!(c, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r'))
        .filter(|token| !token.is_empty())
        .peekable();
    if it.peek().is_none() {
        return Ok(None);
    }
    let mut parse = |what: &str, max: u64| -> io::Result<u64> {
        let token = it.next().ok_or_else(|| bad_line(lineno, what, "missing"))?;
        let n = parse_u64(token).ok_or_else(|| bad_line(lineno, what, "not an integer"))?;
        if n > max {
            return Err(bad_line(lineno, what, "out of range"));
        }
        Ok(n)
    };
    let src = parse("src", VertexId::MAX as u64)? as VertexId;
    let dst = parse("dst", VertexId::MAX as u64)? as VertexId;
    let label = parse("label", LabelId::MAX as u64)? as LabelId;
    if it.next().is_some() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line {}: tokens after the label", lineno + 1),
        ));
    }
    Ok(Some((src, dst, label)))
}

/// `token` as `str::parse::<u64>` reads it: an optional `+`, then one or
/// more decimal digits; `None` for anything else or past `u64::MAX`.
fn parse_u64(token: &[u8]) -> Option<u64> {
    let digits = token.strip_prefix(b"+").unwrap_or(token);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &c| {
        let digit = c.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

fn bad_line(lineno: usize, field: &str, why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {}: field `{field}` {why}", lineno + 1),
    )
}

/// Load a graph from a file path.
pub fn load_graph(path: impl AsRef<Path>) -> io::Result<LabeledGraph> {
    let f = std::fs::File::open(path)?;
    read_edge_list(io::BufReader::new(f))
}

/// Write a graph as an edge list: `src dst label` per line, in
/// [`LabeledGraph::all_edges`] order. Each line is formatted by hand into
/// one buffer and written at once, the bytes being those of
/// `writeln!(w, "{} {} {}", ..)` in about half its time.
pub fn write_edge_list<W: Write>(graph: &LabeledGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    // Two `u32` ids and a `u16` label, at most 10 + 10 + 5 digits, three
    // separators.
    let mut line = [0u8; 28];
    for e in graph.all_edges() {
        let mut end = 0;
        for (value, sep) in [(e.src, b' '), (e.dst, b' '), (u32::from(e.label), b'\n')] {
            end += write_decimal(value, &mut line[end..]);
            line[end] = sep;
            end += 1;
        }
        w.write_all(&line[..end])?;
    }
    w.flush()
}

/// `n` in decimal at the start of `out`; returns the digit count.
fn write_decimal(mut n: u32, out: &mut [u8]) -> usize {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let len = digits.len() - i;
    out[..len].copy_from_slice(&digits[i..]);
    len
}

/// Save a graph to a file path.
#[expect(
    clippy::disallowed_methods,
    reason = "offline `cegtool` output; the server persists only through `vfs::Storage`"
)]
pub fn save_graph(graph: &LabeledGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_edge_list(graph, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_text() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 0, 0);
        let g = b.build();

        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(g2.num_edges(), 3);
        assert!(g2.has_edge(0, 1, 0));
        assert!(g2.has_edge(1, 2, 1));
        assert!(g2.has_edge(3, 0, 0));
    }

    /// The hand-formatted lines are `writeln!`'s bytes.
    #[test]
    fn edge_list_bytes_are_the_formatted_lines() {
        let mut buf = [0u8; 10];
        for n in [0, 7, 9, 10, 99, 100, 65_535, 1_000_000_000, u32::MAX] {
            let len = write_decimal(n, &mut buf);
            assert_eq!(&buf[..len], n.to_string().as_bytes());
        }
        let mut b = GraphBuilder::new(0);
        for (s, d, l) in [(0, 0, 0), (9, 10, 300), (123_456, 7, 99), (5, 100_000, 1)] {
            b.add_edge(s, d, l);
        }
        let g = b.build();
        let mut got = Vec::new();
        write_edge_list(&g, &mut got).unwrap();
        let mut want = Vec::new();
        for e in g.all_edges() {
            writeln!(want, "{} {} {}", e.src, e.dst, e.label).unwrap();
        }
        assert_eq!(
            String::from_utf8(got).unwrap(),
            String::from_utf8(want).unwrap()
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n0 1 0 # trailing comment\n1 2 0\n";
        let g = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_is_an_error() {
        let text = "0 1\n";
        let err = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("label"));
    }

    #[test]
    fn non_integer_is_an_error() {
        let text = "0 x 1\n";
        let err = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("dst"));
    }

    /// Ids are checked against their type, never truncated into it: the
    /// largest vertex id parses (a graph over that domain is not built
    /// here, it would need gigabytes), one past it and label 65536 are
    /// refused by the reader with the field named.
    #[test]
    fn ids_past_their_type_are_out_of_range() {
        let max = u32::MAX;
        assert_eq!(
            parse_edge(0, format!("{max} {max} 65535").as_bytes()).unwrap(),
            Some((max, max, 65535))
        );
        for (text, field) in [
            ("0 1 0\n4294967296 1 0\n", "src"),
            ("0 4294967296 0\n", "dst"),
            ("0 1 65536\n", "label"),
        ] {
            let err = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            let line = text.lines().count();
            assert_eq!(
                err.to_string(),
                format!("line {line}: field `{field}` out of range")
            );
        }
    }

    /// A fourth token is refused like any other malformed field, with
    /// the line number; in a comment it is a comment.
    #[test]
    fn a_fourth_token_is_refused() {
        let text = "0 1 0\n1 2 3 4\n";
        let err = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 2: tokens after the label");
        let g = read_edge_list(io::BufReader::new("1 2 3 # 4\n".as_bytes())).unwrap();
        assert!(g.has_edge(1, 2, 3));
    }

    /// The reader before it parsed bytes, verbatim: a `String` per line,
    /// Unicode whitespace, and no check after the label.
    fn str_read_edge_list<R: BufRead>(reader: R) -> io::Result<LabeledGraph> {
        let mut b = GraphBuilder::new(0);
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (src, dst, label) = str_parse_edge(lineno, line)?;
            b.add_edge(src, dst, label);
        }
        Ok(b.build())
    }

    fn str_parse_edge(lineno: usize, line: &str) -> io::Result<(VertexId, VertexId, LabelId)> {
        let mut it = line.split_whitespace();
        let mut parse = |what: &str, max: u64| -> io::Result<u64> {
            let n = it
                .next()
                .ok_or_else(|| bad_line(lineno, what, "missing"))?
                .parse::<u64>()
                .map_err(|_| bad_line(lineno, what, "not an integer"))?;
            if n > max {
                return Err(bad_line(lineno, what, "out of range"));
            }
            Ok(n)
        };
        let src = parse("src", VertexId::MAX as u64)? as VertexId;
        let dst = parse("dst", VertexId::MAX as u64)? as VertexId;
        let label = parse("label", LabelId::MAX as u64)? as LabelId;
        Ok((src, dst, label))
    }

    /// What a reader made of `text`: the graph's vertex count and edges,
    /// or the error's message.
    type Read = Result<(usize, Vec<crate::Edge>), String>;

    fn outcome(read: io::Result<LabeledGraph>) -> Read {
        read.map(|g| (g.num_vertices(), g.all_edges().collect()))
            .map_err(|e| e.to_string())
    }

    /// What the byte reader must make of ASCII `text`: the oracle's
    /// outcome, except that the first line with a fourth token is refused
    /// unless the oracle fails first (on an earlier line or on that line's
    /// first three tokens).
    fn expected(text: &str) -> Read {
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for (k, line) in lines.iter().enumerate() {
            let tokens: Vec<&str> = line.split('#').next().unwrap().split_whitespace().collect();
            if tokens.len() > 3 {
                let head = lines[..k].concat() + &tokens[..3].join(" ");
                return match str_read_edge_list(head.as_bytes()) {
                    Err(e) => Err(e.to_string()),
                    Ok(_) => Err(format!("line {}: tokens after the label", k + 1)),
                };
            }
        }
        outcome(str_read_edge_list(text.as_bytes()))
    }

    /// Tokens and separators an ASCII edge list is drawn from. Vertex ids
    /// stay small enough to build (`4294967295` would be a 2^32-vertex
    /// domain); the range checks see `65536` as a label and `4294967296`.
    const TOKENS: [&str; 19] = [
        "0",
        "1",
        "2",
        "7",
        "42",
        "65535",
        "65536",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "+3",
        "+",
        "-1",
        "x",
        "007",
        "1x",
        "#",
        "#9",
        "0#",
    ];
    const SEPARATORS: [&str; 7] = [" ", "\t", "  ", "\x0B", "\x0C", "\r", " \t "];
    const ENDS: [&str; 3] = ["\n", "\r\n", ""];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// On ASCII input the byte reader accepts and refuses what the
        /// `String` reader did, with the same message and the same graph,
        /// but for a fourth token, which it refuses.
        #[test]
        fn reads_like_the_str_parser_on_ascii(
            lines in proptest::collection::vec(
                (proptest::collection::vec((0usize..7, 0usize..19), 0..6), 0usize..3, 0usize..7),
                0..10,
            )
        ) {
            let mut text = String::new();
            for (tokens, end, lead) in &lines {
                text.push_str(SEPARATORS[*lead]);
                for (i, &(sep, token)) in tokens.iter().enumerate() {
                    if i > 0 {
                        text.push_str(SEPARATORS[sep]);
                    }
                    text.push_str(TOKENS[token]);
                }
                text.push_str(ENDS[*end]);
            }
            let got = outcome(read_edge_list(io::BufReader::new(text.as_bytes())));
            proptest::prop_assert_eq!(got, expected(&text), "input {:?}", text);
        }
    }
}
