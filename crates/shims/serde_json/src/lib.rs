//! Offline stand-in for `serde_json`.
//!
//! Renders the shim `serde::Value` model to JSON text and parses it back.
//! Provides the workspace's used subset: [`to_string`], [`to_string_pretty`],
//! and [`from_str`]. Numbers keep `u64`/`i64` precision; floats use Rust's
//! shortest round-trip formatting; non-finite floats render as `null`.

#![forbid(unsafe_code)]

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                let s = x.to_string();
                out.push_str(&s);
                // "1" would re-parse as an integer; keep floats floats where
                // it costs nothing (serde_json prints 1.0 as "1.0" too).
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error(format!("bad array at offset {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(Error(format!("bad object at offset {}", self.pos))),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {other:?} at offset {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".to_string())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".to_string()))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".to_string()))?;
                            // Surrogate pairs are not needed by this
                            // workspace's data; reject them plainly.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| Error("bad \\u codepoint".to_string()))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Take the whole run up to the next quote or escape in
                    // one slice. Both delimiters are ASCII and so never
                    // fall inside a multi-byte scalar: the run starts and
                    // ends on character boundaries, and validating only
                    // the run keeps the parse linear in the input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error("invalid utf-8 in string".to_string()))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("bad number".to_string()))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<Value>("-42").unwrap(), Value::I64(-42));
        assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
        assert_eq!(from_str::<f64>("0.1").unwrap(), 0.1);
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&String::from("a\"b\n")).unwrap(), "\"a\\\"b\\n\"");
        assert_eq!(from_str::<String>("\"a\\\"b\\n\"").unwrap(), "a\"b\n");
    }

    fn parse(json: &str) -> Result<String, Error> {
        from_str::<String>(json)
    }

    #[test]
    fn every_string_escape_roundtrips() {
        let raw = "q\" b\\ s/ n\n r\r t\t b\u{8} f\u{c} nul\u{0} esc\u{1b}";
        let json = to_string(&String::from(raw)).unwrap();
        assert_eq!(parse(&json).unwrap(), raw);
        // Every escape the grammar allows, including the optional `\/`.
        assert_eq!(
            parse(r#""\" \\ \/ \n \r \t \b \f""#).unwrap(),
            "\" \\ / \n \r \t \u{8} \u{c}"
        );
        assert_eq!(parse(r#""\u0041\u00e9\u20ac\u001f""#).unwrap(), "Aé€\u{1f}");
        assert_eq!(parse(r#""""#).unwrap(), "");
    }

    #[test]
    fn multibyte_utf8_next_to_escapes_roundtrips() {
        // 2-, 3- and 4-byte scalars touching quotes, escapes, `\u` forms
        // and both ends of the string: run slicing must stay on character
        // boundaries.
        let raw = "é\"€\\𝄞\n→é€𝄞\tü";
        let json = to_string(&String::from(raw)).unwrap();
        assert_eq!(parse(&json).unwrap(), raw);
        assert_eq!(parse(r#""é\u00e9€\n𝄞\\é""#).unwrap(), "éé€\n𝄞\\é");
        assert_eq!(parse("\"𝄞\"").unwrap(), "𝄞");
    }

    #[test]
    fn broken_strings_are_errors() {
        for (json, want) in [
            ("\"abc", "unterminated string"),
            ("\"abc é", "unterminated string"),
            ("\"abc\\", "bad escape"),
            ("\"abc\\x\"", "bad escape"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"\\uzzzz\"", "bad \\u escape"),
            ("\"\\ud800\"", "bad \\u codepoint"),
        ] {
            let err = parse(json).expect_err(json);
            assert!(
                err.0.contains(want),
                "{json:?}: got {:?}, want {want:?}",
                err.0
            );
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1.5f64, 2u64), (3.0, 4)];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<(f64, u64)>>(&json).unwrap(), v);
        let o: Option<u32> = None;
        assert_eq!(to_string(&o).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("7").unwrap(), Some(7));
    }

    #[test]
    fn pretty_is_parseable() {
        let v = vec![vec![1u32, 2], vec![3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u32>>>(&pretty).unwrap(), v);
    }

    #[test]
    fn garbage_rejected() {
        assert!(from_str::<u64>("riot").is_err());
        assert!(from_str::<u64>("1 2").is_err());
        assert!(from_str::<Vec<u64>>("[1,").is_err());
    }
}
