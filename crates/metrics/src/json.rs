//! JSON, once: the escaping rules, a compact streaming [`Writer`] and the
//! [`parse`]r, for every artifact the workspace writes or reads back —
//! trace JSONL and Chrome rows, stats snapshots, latency profiles, the
//! `BENCH_*.json` ledgers (there is no serde in this workspace).
//!
//! The writer emits no whitespace and keeps no state beyond the text: it
//! places a comma by looking at what the text already ends in, so keys
//! and values come out in exactly the order of the calls and a document
//! is byte-stable across identical runs.

use std::fmt::{self, Display, Write as _};

/// Escapes everything formatted into it.
struct Escaper<'a>(&'a mut String);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// Streaming writer of compact JSON. Inside an object every value
/// follows a [`key`](Self::key); inside an array values follow each
/// other; the writer supplies the commas.
#[derive(Default)]
pub struct Writer {
    /// The text so far. Public for framing that is not JSON: the line
    /// break after each document of a JSON-lines file.
    pub out: String,
}

impl Writer {
    /// The comma this position needs: none at the start of a document,
    /// a line, an object or an array, and none between a key and its
    /// value.
    fn comma(&mut self) -> &mut Self {
        if !matches!(
            self.out.as_bytes().last(),
            None | Some(b'{' | b'[' | b':' | b'\n')
        ) {
            self.out.push(',');
        }
        self
    }

    /// `"key":` — the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.comma().out.push('"');
        let _ = Escaper(&mut self.out).write_str(key);
        self.out.push_str("\":");
        self
    }

    /// A number: anything whose `Display` is one (an integer, or a float
    /// through `format_args!("{:.1}", x)`).
    pub fn num(&mut self, v: impl Display) -> &mut Self {
        let _ = write!(self.comma().out, "{v}");
        self
    }

    /// `"key":value` for each pair, in order.
    pub fn nums(&mut self, fields: &[(&str, u64)]) -> &mut Self {
        for (key, v) in fields {
            self.key(key).num(v);
        }
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.num(v)
    }

    /// A string literal of `v`'s `Display` text, escaped.
    pub fn str(&mut self, v: impl Display) -> &mut Self {
        self.comma().out.push('"');
        let _ = write!(Escaper(&mut self.out), "{v}");
        self.out.push('"');
        self
    }

    /// `json` spliced in verbatim: a value that is already JSON text
    /// (`null`, a ledger field rendered elsewhere), or the line break
    /// that puts the next element of a large array on a line of its own.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.comma().out.push_str(json);
        self
    }

    /// An object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.comma().out.push('{');
        body(self);
        self.out.push('}');
        self
    }

    /// An array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.comma().out.push('[');
        body(self);
        self.out.push(']');
        self
    }
}

/// A parsed JSON value (numbers as `f64`: exact for every integer below
/// 2^53, and no artifact carries a larger one).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (`None` for any other value).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses one JSON document. Object key order is preserved.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {s:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 is copied through verbatim.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Writes any [`Value`] through the [`Writer`].
    fn write(w: &mut Writer, v: &Value) {
        match v {
            Value::Null => w.raw("null"),
            Value::Bool(b) => w.bool(*b),
            Value::Num(n) => w.num(n),
            Value::Str(s) => w.str(s),
            Value::Arr(items) => w.arr(|w| items.iter().for_each(|v| write(w, v))),
            Value::Obj(fields) => w.obj(|w| {
                for (k, v) in fields {
                    write(w.key(k), v);
                }
            }),
        };
    }

    /// Random documents: nesting up to `0` deep, strings over every
    /// escape class (quote, backslash, the named controls, `\u` controls,
    /// multi-byte UTF-8), integers below 2^53.
    struct Doc(u32);

    impl Strategy for Doc {
        type Value = Value;

        fn generate_value(&self, rng: &mut TestRng) -> Value {
            const CHARS: [char; 14] = [
                'a', 'Z', '_', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '☃',
            ];
            let text = |rng: &mut TestRng| -> String {
                (0..rng.below(6))
                    .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
                    .collect()
            };
            let leaves = if self.0 == 0 { 4 } else { 6 };
            match rng.below(leaves) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::Num(rng.below(1 << 53) as f64),
                3 => Value::Str(text(rng)),
                4 => Value::Arr(
                    (0..rng.below(4))
                        .map(|_| Doc(self.0 - 1).generate_value(rng))
                        .collect(),
                ),
                _ => Value::Obj(
                    (0..rng.below(4))
                        .map(|_| (text(rng), Doc(self.0 - 1).generate_value(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #[test]
        fn what_the_writer_writes_the_parser_reads_back(doc in Doc(3)) {
            let mut w = Writer::default();
            write(&mut w, &doc);
            prop_assert_eq!(parse(&w.out), Ok(doc), "{}", w.out);
        }
    }

    #[test]
    fn writer_places_commas_and_line_breaks() {
        let mut w = Writer::default();
        w.obj(|w| {
            w.key("a").num(1).nums(&[("b", 2), ("c", 3)]);
            w.key("rows").arr(|w| {
                w.raw("\n").obj(|w| {
                    w.key("x").str("q\"").key("y").raw("[1.50]");
                });
                w.raw("\n").obj(|_| {});
            });
            w.key("n").raw("null").key("t").bool(true);
        });
        assert_eq!(
            w.out,
            "{\"a\":1,\"b\":2,\"c\":3,\"rows\":[\n{\"x\":\"q\\\"\",\"y\":[1.50]},\n{}],\"n\":null,\"t\":true}"
        );
        assert!(parse(&w.out).is_ok());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = r#"{"s": "a\"b\\c\nd\u0001\/", "neg": -1.5e3, "deep": [[{"k": null}]]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("s"),
            Some(&Value::Str("a\"b\\c\nd\u{1}/".to_string()))
        );
        assert_eq!(v.get("neg"), Some(&Value::Num(-1500.0)));
        assert_eq!(
            v.get("deep"),
            Some(&Value::Arr(vec![Value::Arr(vec![Value::Obj(vec![(
                "k".to_string(),
                Value::Null
            )])])]))
        );
        assert_eq!(Value::Null.get("s"), None);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "\"\\q\"",
            "tru",
            "1 2",
            "{} x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
