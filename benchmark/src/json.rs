//! The benchmark's one JSON emitter, plus the small reader `--compare`,
//! the parent side of child runs and the `.metrics.json` digest need.
//! Std-only, like everything else here. Objects keep insertion order so
//! result files diff cleanly.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}
impl From<&str> for Json {
    fn from(x: &str) -> Json {
        Json::Str(x.to_string())
    }
}

/// Build an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            _ => &[],
        }
    }

    /// Compact single-line rendering. Numbers print with every digit Rust
    /// needs to round-trip them; non-finite numbers (JSON has none) print
    /// as `null` so a bad measurement is visible, not silently zero.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering for the committed result files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("string write"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    x.write(out, indent, depth + 1);
                }
                if !v.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !kv.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON value. Input is first checked by the repo's own
/// `ppm_simnet::validate_json`, so the reader below only has to walk
/// well-formed text.
pub fn parse(s: &str) -> Result<Json, String> {
    ppm_simnet::validate_json(s)?;
    let mut r = Reader {
        b: s.as_bytes(),
        i: 0,
    };
    Ok(r.value())
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                loop {
                    self.ws();
                    if self.b[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(kv);
                    }
                    if self.b[self.i] == b',' {
                        self.i += 1;
                        continue;
                    }
                    let k = self.string();
                    self.ws();
                    self.i += 1; // ':'
                    kv.push((k, self.value()));
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                loop {
                    self.ws();
                    match self.b[self.i] {
                        b']' => {
                            self.i += 1;
                            return Json::Arr(v);
                        }
                        b',' => self.i += 1,
                        _ => v.push(self.value()),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("validated");
                Json::Num(text.parse().expect("validated number"))
            }
        }
    }

    fn string(&mut self) -> String {
        self.i += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.b[self.i] {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).expect("validated");
                }
                b'\\' => {
                    let e = self.b[self.i + 1];
                    self.i += 2;
                    match e {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .expect("validated");
                            let cp = u32::from_str_radix(hex, 16).expect("validated");
                            self.i += 4;
                            // Surrogate pairs never occur in our own files;
                            // map anything unrepresentable to U+FFFD.
                            let c = char::from_u32(cp).unwrap_or('\u{FFFD}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // '"', '\\', '/'
                    }
                }
                c => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        obj([
            ("name", Json::from("cg \"halo\"\n")),
            ("n", Json::from(5usize)),
            ("wall_s", Json::from(1.2034567891234)),
            ("exact", Json::from(true)),
            ("none", Json::Null),
            (
                "list",
                Json::Arr(vec![
                    Json::from(1u64),
                    Json::from(-2.5),
                    obj([("k", Json::Arr(vec![]))]),
                ]),
            ),
        ])
    }

    #[test]
    fn emitter_output_validates_and_round_trips() {
        for text in [sample().render(), sample().pretty()] {
            ppm_simnet::validate_json(&text).expect("emitter must produce valid JSON");
            assert_eq!(parse(&text).unwrap(), sample());
        }
    }

    #[test]
    fn numbers_keep_all_digits_and_non_finite_is_null() {
        assert_eq!(Json::from(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::from(14.64).render(), "14.64");
        assert_eq!(Json::from(3u64).render(), "3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn reader_rejects_malformed_input() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn accessors() {
        let j = parse(r#"{"a":{"b":[1,2.5,"x"]},"u":"A\/"}"#).unwrap();
        let b = j.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(b.arr()[1].num(), Some(2.5));
        assert_eq!(b.arr()[2].str(), Some("x"));
        assert_eq!(j.get("u").unwrap().str(), Some("A/"));
        assert_eq!(j.get("missing"), None);
        assert_eq!(j.entries().len(), 2);
    }
}
