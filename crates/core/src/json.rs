//! Minimal hand-rolled JSON support shared by the machine-readable
//! reports (`txfix analyze --json`, `txfix lint --json`, `txfix stress
//! --json`, the bench binaries' `--json` mode).
//!
//! The workspace has no serde (the build environment vendors only a
//! handful of stand-in crates), so the encoding is by hand: writers
//! implement [`ToJson`] and build [`Json`] values with the constructors
//! ([`Json::obj`], [`Json::str`], …); readers parse with [`Json::parse`],
//! a minimal recursive-descent reader. This module was extracted from
//! `txfix-analyze` so every report format in the workspace shares one
//! implementation — no report hand-formats JSON text.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value (the minimal subset the report layouts use).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (reports only emit non-negative integers).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is normalized by the map.
    Object(BTreeMap<String, Json>),
}

/// Fetch `key` from an object map, with a useful error when absent.
///
/// # Errors
///
/// `missing field "key"` when the object has no such key.
pub fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

impl Json {
    /// Parse `input` as a single JSON value (trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A description of the first malformed construct.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { chars: input.chars().collect(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing input at {}", p.pos));
        }
        Ok(v)
    }

    /// The value as an object, or an error naming `what` was expected.
    ///
    /// # Errors
    ///
    /// When the value is not an object.
    pub fn object(&self, what: &str) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Object(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    /// The value as an array, or an error naming `what` was expected.
    ///
    /// # Errors
    ///
    /// When the value is not an array.
    pub fn array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(a) => Ok(a),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    /// The value as a string, or an error naming `what` was expected.
    ///
    /// # Errors
    ///
    /// When the value is not a string.
    pub fn string(&self, what: &str) -> Result<String, String> {
        match self {
            Json::String(s) => Ok(s.clone()),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    /// The value as a number, or an error naming `what` was expected.
    ///
    /// # Errors
    ///
    /// When the value is not a number.
    pub fn number(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Number(n) => Ok(*n),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    /// The value as a bool, or an error naming `what` was expected.
    ///
    /// # Errors
    ///
    /// When the value is not a bool.
    pub fn bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }
}

impl fmt::Display for Json {
    /// Serialize to compact JSON text (object keys in map order), which
    /// [`Json::parse`] reads back to an equal value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => write!(f, "{n}"),
            Json::String(s) => write!(f, "{}", escape(s)),
            Json::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Object(map) => {
                write!(f, "{{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{value}", escape(key))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Types that serialize themselves as a [`Json`] value.
///
/// This is the single serialization surface for every machine-readable
/// format in the workspace: implement `to_json_value` (building the value
/// with the [`Json`] constructors) and the textual form comes for free
/// from the [`Json`] serializer.
pub trait ToJson {
    /// Build the JSON value.
    fn to_json_value(&self) -> Json;

    /// Serialize to compact JSON text.
    fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

impl ToJson for Json {
    fn to_json_value(&self) -> Json {
        self.clone()
    }
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// A non-negative integer value (reports only emit integers that fit
    /// an `f64` exactly).
    pub fn int(n: u64) -> Json {
        Json::Number(n as f64)
    }

    /// An array of string values.
    pub fn strings<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> Json {
        Json::Array(items.into_iter().map(|s| Json::String(s.as_ref().to_string())).collect())
    }

    /// An array value.
    pub fn list(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// An object value from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// Quote and escape `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected {c:?} at {}, got {got:?}", self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for expected in word.chars() {
            if self.bump() != Some(expected) {
                return Err(format!("malformed literal near {}", self.pos));
            }
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object_value(),
            Some('[') => self.array_value(),
            Some('"') => Ok(Json::String(self.string_value()?)),
            Some('t') => self.keyword("true", Json::Bool(true)),
            Some('f') => self.keyword("false", Json::Bool(false)),
            Some('n') => self.keyword("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number_value(),
            other => Err(format!("unexpected {other:?} at {}", self.pos)),
        }
    }

    fn object_value(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string_value()?;
            self.expect(':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Object(map)),
                got => return Err(format!("expected ',' or '}}', got {got:?}")),
            }
        }
    }

    fn array_value(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Array(items)),
                got => return Err(format!("expected ',' or ']', got {got:?}")),
            }
        }
    }

    fn string_value(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("malformed \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    got => return Err(format!("unknown escape {got:?}")),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number_value(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-')
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>().map(Json::Number).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_are_emitted_and_parsed() {
        let s = escape("a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let v = Json::parse(&s).unwrap();
        assert_eq!(v, Json::String("a\"b\\c\nd\u{1}".into()));
    }

    #[test]
    fn builders_compose_objects() {
        let v = Json::obj([
            ("a", Json::int(1)),
            ("b", Json::str("x")),
            ("c", Json::list([Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(v.to_json(), r#"{"a":1,"b":"x","c":[true,null]}"#);
        let obj = v.object("obj").unwrap();
        assert_eq!(get(obj, "a").unwrap().number("a").unwrap(), 1.0);
        assert_eq!(get(obj, "b").unwrap().string("b").unwrap(), "x");
    }

    #[test]
    fn strings_round_trip() {
        let v = Json::strings(["x", "y\"z"]);
        let reparsed = Json::parse(&v.to_json()).unwrap();
        let arr = reparsed.array("arr").unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].string("arr[1]").unwrap(), "y\"z");
        assert_eq!(Json::strings(Vec::<String>::new()).to_json(), "[]");
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert!(Json::parse("true").unwrap().bool("b").unwrap());
        assert!(!Json::parse("false").unwrap().bool("b").unwrap());
        assert_eq!(Json::parse("-2.5e1").unwrap().number("n").unwrap(), -25.0);
    }

    #[test]
    fn display_round_trips_through_the_parser() {
        let text = r#"{"b":[1,true,null,"x\ny"],"a":{"nested":-2.5}}"#;
        let v = Json::parse(text).unwrap();
        let reparsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in ["{", "", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_report_the_context_name() {
        let err = Json::Null.string("field.name").unwrap_err();
        assert!(err.contains("field.name"), "{err}");
        let obj = Json::parse("{}").unwrap();
        let err = get(obj.object("o").unwrap(), "missing").unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }
}
