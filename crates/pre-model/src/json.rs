//! The workspace's one JSON serializer: a [`Value`] tree, one writer
//! ([`write()`]) and a reader for the full JSON grammar ([`parse`]).
//!
//! There is one layout: the members of the top-level container, and the
//! elements of arrays directly inside it, go one per line with a two-space
//! indent; deeper containers are inline, items separated by `", "`. Keys
//! are followed by `": "` and a document ends with a newline. Floats are
//! the shortest text that reads back to the same `f64`, always with a `.`
//! or an exponent; a non-finite float is written as `null`.
//!
//! ```
//! use pre_model::json::{self, Value};
//!
//! let doc = Value::obj([("hits", Value::from(0u64)), ("rate", Value::from(0.5))]);
//! let text = json::write(&doc);
//! assert_eq!(text, "{\n  \"hits\": 0,\n  \"rate\": 0.5\n}\n");
//! assert_eq!(json::parse(&text), Ok(doc));
//! ```

/// A JSON value. Objects keep their members in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number without fraction or exponent that fits in an `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Obj(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else { return None };
        Some(s)
    }

    /// The integer, if this is one.
    pub fn as_i64(&self) -> Option<i64> {
        let Value::Int(v) = self else { return None };
        Some(*v)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Arr(items) = self else { return None };
        Some(items)
    }
}

macro_rules! from {
    ($($t:ty => $make:expr),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                $make(v)
            }
        }
    )*};
}

from!(bool => Value::Bool, f64 => Value::Float, String => Value::Str);
from!(&str => |v: &str| Value::Str(v.to_string()));
from!(u32 => |v| Value::Int(i64::from(v)));
// An integer beyond `i64` becomes the nearest float.
from!(u64 => |v| i64::try_from(v).map_or(Value::Float(v as f64), Value::Int));
from!(usize => |v| i64::try_from(v).map_or(Value::Float(v as f64), Value::Int));

/// Renders `value` as a JSON document in the module's one layout.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Value, depth: usize) {
    match value {
        Value::Bool(b) => out.push_str(&b.to_string()),
        Value::Int(v) => out.push_str(&v.to_string()),
        // `Debug` is the shortest round-trip text and keeps a `.` or `e`.
        Value::Float(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
        Value::Null | Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => write_items(out, "[]", items, depth, depth <= 1, |out, v| {
            write_value(out, v, depth + 1);
        }),
        Value::Obj(members) => write_items(out, "{}", members, depth, depth == 0, |out, (k, v)| {
            write_str(out, k);
            out.push_str(": ");
            write_value(out, v, depth + 1);
        }),
    }
}

/// Writes `items` inside `brackets`: one per line, indented one level
/// deeper than `depth`, when `multiline`, else inline.
fn write_items<T>(
    out: &mut String,
    brackets: &str,
    items: &[T],
    depth: usize,
    multiline: bool,
    mut item: impl FnMut(&mut String, &T),
) {
    let newline = |d: usize| format!("\n{}", "  ".repeat(d));
    let (first, sep) = match multiline {
        true => (newline(depth + 1), format!(",{}", newline(depth + 1))),
        false => (String::new(), ", ".to_string()),
    };
    out.push_str(&brackets[..1]);
    for (i, it) in items.iter().enumerate() {
        out.push_str(if i == 0 { &first } else { &sep });
        item(out, it);
    }
    if multiline && !items.is_empty() {
        out.push_str(&newline(depth));
    }
    out.push_str(&brackets[1..]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Values nested deeper than this are rejected instead of recursing.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document: a value with only whitespace around it.
///
/// # Errors
///
/// Returns the first syntax error and its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos < text.len() {
        return Err(parser.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// Consumes the next byte if `accept` holds for it.
    fn eat(&mut self, accept: impl Fn(u8) -> bool) -> bool {
        let hit = self
            .text
            .as_bytes()
            .get(self.pos)
            .copied()
            .is_some_and(accept);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.eat(|b| b" \t\n\r".contains(&b)) {}
    }

    /// Consumes the digits at the cursor and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.eat(|b| b.is_ascii_digit()) {}
        self.pos - start
    }

    /// Skips whitespace, then consumes `token` or fails.
    fn expect(&mut self, token: &str) -> Result<(), String> {
        self.skip_ws();
        if !self.text[self.pos..].starts_with(token) {
            return Err(self.error(&format!("expected `{token}`")));
        }
        self.pos += token.len();
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.text.as_bytes().get(self.pos) {
            Some(b'n') => self.expect("null").map(|()| Value::Null),
            Some(b't') => self.expect("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Value::Arr),
            Some(b'{') => self
                .items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.expect(":")?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Obj),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Reads the comma-separated items after an opening bracket, through
    /// the `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if self.eat(|b| b == close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(|b| b == close) {
                return Ok(items);
            }
            if !self.eat(|b| b == b',') {
                return Err(self.error(&format!("expected `,` or `{}`", close as char)));
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(|b| b == b'-');
        let int_start = self.pos;
        let int = self.digits();
        // No leading zeros, and a `.` or exponent needs digits after it.
        let int_ok = int == 1 || (int > 1 && self.text.as_bytes()[int_start] != b'0');
        let frac_ok = !self.eat(|b| b == b'.') || self.digits() > 0;
        let exp_ok = !self.eat(|b| b == b'e' || b == b'E') || {
            self.eat(|b| b == b'+' || b == b'-');
            self.digits() > 0
        };
        if !(int_ok && frac_ok && exp_ok) {
            return Err(self.error("malformed number"));
        }
        let text = &self.text[start..self.pos];
        (text.parse().map(Value::Int))
            .or_else(|_| text.parse().map(Value::Float))
            .map_err(|_| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(|b| b == b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy up to the next quote, backslash or control byte; those are
            // ASCII, so the run ends on a char boundary.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.eat(|b| b == b'"') {
                return Ok(out);
            }
            if !self.eat(|b| b == b'\\') {
                return Err(self.error("control character in string"));
            }
            let escape = self.text.as_bytes().get(self.pos).copied();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.error("unknown escape")),
            });
        }
    }

    /// Decodes the hex digits of a `\u` escape, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut units = vec![self.hex4()?];
        if (0xD800..0xDC00).contains(&units[0]) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            units.push(self.hex4()?);
        }
        match char::decode_utf16(units).next() {
            Some(Ok(c)) => Ok(c),
            _ => Err(self.error("unpaired surrogate")),
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let unit = hex
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u16::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("malformed \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_kind_round_trips() {
        let doc = Value::obj([
            ("null", Value::Null),
            ("flags", Value::Arr(vec![true.into(), false.into()])),
            (
                "ints",
                Value::Arr(vec![Value::Int(0), Value::Int(-42), Value::Int(i64::MIN)]),
            ),
            (
                "floats",
                Value::Arr(vec![
                    (-0.5).into(),
                    1.0.into(),
                    0.1.into(),
                    1e-7.into(),
                    (-2.5e300).into(),
                    (1.0 / 3.0).into(),
                    1e21.into(),
                    5e-324.into(),
                ]),
            ),
            (
                "text",
                "quote \" slash \\ tab \t nl \n bell \u{7} nul \u{0}".into(),
            ),
            ("unicode", "∅ é 🦀".into()),
            ("empty", Value::Obj(vec![])),
            (
                "nested",
                Value::Arr(vec![Value::obj([(
                    "deep",
                    Value::Arr(vec![Value::Arr(vec![])]),
                )])]),
            ),
        ]);
        let text = write(&doc);
        assert_eq!(parse(&text), Ok(doc));
    }

    #[test]
    fn layout_breaks_only_the_top_two_levels() {
        let doc = Value::obj([
            ("n", Value::from(1u64)),
            (
                "rows",
                Value::Arr(vec![Value::obj([(
                    "a",
                    Value::Arr(vec![Value::Int(1), Value::Int(2)]),
                )])]),
            ),
            ("none", Value::Arr(vec![])),
        ]);
        assert_eq!(
            write(&doc),
            "{\n  \"n\": 1,\n  \"rows\": [\n    {\"a\": [1, 2]}\n  ],\n  \"none\": []\n}\n"
        );
        let rows = Value::Arr(vec![Value::obj([("x", Value::Null)]), Value::Bool(true)]);
        assert_eq!(write(&rows), "[\n  {\"x\": null},\n  true\n]\n");
    }

    #[test]
    fn floats_keep_their_kind_and_non_finite_ones_become_null() {
        assert_eq!(write(&Value::from(2.0)), "2.0\n");
        assert_eq!(parse("2.0"), Ok(Value::Float(2.0)));
        assert_eq!(parse("2"), Ok(Value::Int(2)));
        assert_eq!(parse("-1E+2"), Ok(Value::Float(-100.0)));
        assert_eq!(
            parse("9223372036854775808"),
            Ok(Value::Float(9.223_372_036_854_776e18))
        );
        assert_eq!(write(&Value::from(f64::NAN)), "null\n");
        assert_eq!(write(&Value::from(f64::INFINITY)), "null\n");
        assert_eq!(Value::from(u64::MAX), Value::Float(u64::MAX as f64));
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            parse(r#""\/\b\fé🦀\u0041\u00e9\u001f\ud83e\udd80""#),
            Ok(Value::Str("/\u{8}\u{c}é🦀Aé\u{1f}🦀".into()))
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("{\"traceEvents\":[]} junk").is_err());
        assert!(parse("1 2").is_err());
        assert_eq!(
            parse(" {\"a\": [] }\n"),
            Ok(Value::obj([("a", Value::Arr(vec![]))]))
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"lone \\ud800 surrogate\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"\\u12g4\"",
            "\"\\u12\"",
            "\"raw \n newline\"",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1, 2,]",
            "[1 2]",
            "{1: 2}",
            "-",
            "01",
            "-01",
            "1.",
            ".5",
            "1e",
            "+1",
            "nul",
            "True",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let nested = |depth| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 2)).is_err());
    }
}
