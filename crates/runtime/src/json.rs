//! A minimal, deterministic JSON writer.
//!
//! The `BENCH_T*.json` artifacts must be byte-identical across thread
//! counts and machines, so this writer is deliberately austere: objects
//! keep insertion order, numbers are integers only (every engine metric is
//! a count), and rendering appends no whitespace beyond single spaces
//! after separators.

use std::fmt::Write as _;

/// A JSON value restricted to what deterministic artifacts need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all engine metrics are counts).
    U64(u64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with **insertion-ordered** keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds a field (builder style). Panics never; duplicate keys are the
    /// caller's bug and render as-is.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Object(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Renders to a compact, deterministic string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

impl Json {
    /// Looks a key up in an object (first occurrence; this writer never
    /// emits duplicates). `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is a [`Json::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The writer's deepest
/// documents (a service message wrapping a spec or an artifact) nest
/// under ten levels; the cap keeps hostile input such as a megabyte of
/// `[` from overflowing the parsing thread's stack.
pub const MAX_DEPTH: usize = 64;

/// Parses the exact subset [`Json::render`] emits back into a [`Json`]
/// value — the read half of the checkpoint journal, the spec reader, and
/// the service protocol. Returns `None` on anything outside the subset
/// (floats, negative numbers, trailing garbage) and on nesting deeper
/// than [`MAX_DEPTH`], which loaders treat as a torn or corrupt record,
/// never a panic. Runs in time linear in the input.
pub fn parse(s: &str) -> Option<Json> {
    let mut p = Parser { s, i: 0 };
    let v = p.value(0)?;
    p.ws();
    (p.i == s.len()).then_some(v)
}

/// A cursor over input that is already valid UTF-8. It only ever splits
/// the input at ASCII bytes, so every slice it takes is valid too, and
/// runs of plain string bytes are copied in one push.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        self.run(|c| c.is_ascii_whitespace());
    }

    /// Skips whitespace, then consumes `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    /// Consumes and returns the longest run of bytes satisfying `f`.
    fn run(&mut self, f: impl Fn(u8) -> bool) -> &'a str {
        let start = self.i;
        while self.peek().is_some_and(&f) {
            self.i += 1;
        }
        &self.s[start..self.i]
    }

    /// Parses comma-separated `item`s up to `close` (opener consumed).
    fn seq(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        if self.eat(close) {
            return Some(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Some(());
            }
            self.eat(b',').then_some(())?;
        }
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        self.ws();
        let c = self.peek()?;
        if c == b'[' || c == b'{' {
            if depth >= MAX_DEPTH {
                return None;
            }
            self.i += 1;
        }
        match c {
            b'{' => {
                let mut fields = Vec::new();
                self.seq(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.eat(b':').then_some(())?;
                    fields.push((key, p.value(depth + 1)?));
                    Some(())
                })?;
                Some(Json::Object(fields))
            }
            b'[' => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Some(())
                })?;
                Some(Json::Array(items))
            }
            b'"' => self.string().map(Json::Str),
            b'0'..=b'9' => self.run(|c| c.is_ascii_digit()).parse().ok().map(Json::U64),
            _ => [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ]
            .into_iter()
            .find(|(word, _)| self.s[self.i..].starts_with(word))
            .map(|(word, v)| {
                self.i += word.len();
                v
            }),
        }
    }

    fn string(&mut self) -> Option<String> {
        (self.peek() == Some(b'"')).then_some(())?;
        self.i += 1;
        let mut out = String::new();
        loop {
            out.push_str(self.run(|c| c != b'"' && c != b'\\'));
            if self.peek()? == b'"' {
                self.i += 1;
                return Some(out);
            }
            let esc = *self.s.as_bytes().get(self.i + 1)?;
            self.i += 2;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.s.get(self.i..self.i + 4)?;
                    self.i += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministically() {
        let j = Json::obj()
            .field("name", "t10")
            .field("cells", vec![Json::U64(1), Json::Bool(true)])
            .field("note", "a \"quoted\"\nline");
        let a = j.render();
        let b = j.render();
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\"name\": \"t10\", \"cells\": [1, true], \"note\": \"a \\\"quoted\\\"\\nline\"}"
        );
    }

    #[test]
    fn parse_accepts_own_output() {
        let j = Json::obj()
            .field("a", 3u64)
            .field("b", Json::Array(vec![Json::Null, Json::Str("x".into())]));
        assert_eq!(parse(&j.render()), Some(j));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "{} extra",
            "-1",
            "1.5",
            "\"\\x\"",
        ] {
            assert_eq!(parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_past_the_cap_is_rejected_not_a_stack_overflow() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_some());
        assert_eq!(parse(&nest(MAX_DEPTH + 1)), None);
        assert_eq!(parse(&"[".repeat(1 << 20)), None);
        assert_eq!(parse(&"{\"a\": ".repeat(1 << 18)), None);
    }
}
