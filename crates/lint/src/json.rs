//! A small JSON reader: enough for the benchmark's records
//! (`bench/src/report.rs::record_line`) and `BENCHMARK.json`, with no
//! registry dependency.

/// One JSON value. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key` of an object (`None` for a missing key or a
    /// value that is not an object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one JSON document; trailing non-space text is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.space();
    if p.at != p.bytes.len() {
        return Err(p.error("trailing text"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.space();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.space();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.space();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.space();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.space();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.at..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| self.error("bad UTF-8"))?);
            self.at += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let escape = self.bytes.get(self.at).copied();
            self.at += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.at..self.at + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.error("bad \\u escape"))?;
                    self.at += 4;
                    char::from_u32(hex).unwrap_or(char::REPLACEMENT_CHARACTER)
                }
                _ => return Err(self.error("bad escape")),
            });
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let numeric = |b: &u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
        while self.bytes.get(self.at).is_some_and(numeric) {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_benchmark_record_reads_back() {
        let line = r#"{"workload":"wide","metric":"setup_s","value":0.342887585,"unit":"s","n":1,"seed":1,"commit":"e98450e50b39","phase_s":{"setup":1.02,"traffic":1}}"#;
        let record = parse(line).unwrap();
        assert_eq!(record.get("workload").and_then(Json::as_str), Some("wide"));
        assert_eq!(
            record.get("value").and_then(Json::as_f64),
            Some(0.342887585)
        );
        let phases = record.get("phase_s").unwrap();
        assert_eq!(phases.get("traffic").and_then(Json::as_f64), Some(1.0));
        assert_eq!(record.get("missing"), None);
    }

    #[test]
    fn every_kind_of_value_parses() {
        let doc = parse(r#" [null, true, false, -1.5e3, "a\"b\\cA\n", [], {}, {"k": [1]}] "#);
        let want = Json::Arr(vec![
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(-1500.0),
            Json::Str("a\"b\\cA\n".into()),
            Json::Arr(vec![]),
            Json::Obj(vec![]),
            Json::Obj(vec![("k".into(), Json::Arr(vec![Json::Num(1.0)]))]),
        ]);
        assert_eq!(doc.unwrap(), want);
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"open",
            "tru",
            "1 2",
            "{\"a\":}",
            "[1 2]",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
