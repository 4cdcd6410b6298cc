//! The workspace's one JSON codec (no serde in the offline build).
//!
//! * [`Json`] — a parsed document, with exact integer access;
//! * [`Json::parse`] — a recursive-descent parser whose nesting depth is
//!   capped at [`MAX_DEPTH`], so hostile input (a megabyte of `[`) is a
//!   typed error rather than a stack overflow;
//! * [`Json::req`] / [`Json::opt`] — typed field extraction whose errors
//!   name the offending key;
//! * [`json_escape`] and the non-finite → `null` number rule, shared by
//!   every emitter;
//! * [`ObjWriter`] / [`ArrWriter`] — append-only writers over a `String`
//!   that keep each emitter's pinned key order without building a tree.
//!
//! # Numbers
//!
//! A number literal made of digits only (no sign, fraction or exponent)
//! that fits in `u64` parses to [`Json::Int`] and is held exactly; every
//! other number parses to [`Json::Num`]. The integer accessors accept
//! only `Int`, so a negative, fractional or out-of-range value in an
//! integer field is rejected instead of being cast. Floats are written in
//! Rust's shortest round-trip form (or with a fixed number of decimals,
//! see [`Fixed`]), and non-finite floats are written as `null`.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// deepest document the workspace writes (the time-series history
/// export) nests 7 levels.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A digits-only number literal that fits in `u64`, held exactly.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value (`None` for `null` and non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(u) => Some(*u as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Exact non-negative integer value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(u) => Some(*u),
            _ => None,
        }
    }

    /// Exact non-negative integer value that fits in `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The required field `key`, decoded as `T`. The error names the key:
    /// `missing 'key'` when it is absent, `invalid 'key'` when it does not
    /// decode (including `null`).
    pub fn req<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing '{key}'"))?;
        T::from_json(v).ok_or_else(|| format!("invalid '{key}'"))
    }

    /// The optional field `key`: `None` when it is absent or `null`, an
    /// `invalid 'key'` error when it is present but does not decode.
    pub fn opt<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => T::from_json(v).map(Some).ok_or_else(|| format!("invalid '{key}'")),
        }
    }
}

/// Types [`Json::req`] and [`Json::opt`] can extract. Integers follow the
/// exact-integer rule of the [module docs](self); arrays decode
/// element-wise into `Vec<T>` and two-element arrays into pairs.
pub trait FromJson<'a>: Sized {
    /// Decode `v`, or `None` when it has the wrong shape.
    fn from_json(v: &'a Json) -> Option<Self>;
}

macro_rules! from_json {
    ($($t:ty => $f:expr),*) => {$(
        impl<'a> FromJson<'a> for $t {
            fn from_json(v: &'a Json) -> Option<Self> {
                $f(v)
            }
        }
    )*};
}
from_json!(
    u64 => Json::as_u64,
    usize => Json::as_usize,
    f64 => Json::as_f64,
    bool => Json::as_bool,
    &'a str => Json::as_str,
    &'a [Json] => Json::as_arr,
    String => |v: &Json| v.as_str().map(str::to_string)
);

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(v: &'a Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<'a, A: FromJson<'a>, B: FromJson<'a>> FromJson<'a> for (A, B) {
    fn from_json(v: &'a Json) -> Option<Self> {
        match v.as_arr()? {
            [a, b] => Some((A::from_json(a)?, B::from_json(b)?)),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// One value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        let negative = self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad()),
        }
        let mut integral = !negative;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let lit = &self.text[start..self.pos];
        if integral {
            if let Ok(u) = lit.parse::<u64>() {
                return Ok(Json::Int(u));
            }
        }
        lit.parse::<f64>().map(Json::Num).map_err(|_| bad())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let at = self.pos;
        let hex = self
            .bytes
            .get(at..at + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.pos += 4;
        Ok(hex.iter().fold(0, |acc, &h| acc * 16 + (h as char).to_digit(16).unwrap_or(0)))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; all are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while self.peek().is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return Err(format!("control character in string at byte {}", self.pos)),
            }
            let esc = self.peek();
            self.pos += 1;
            match esc {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let mut code = self.hex4()?;
                    // A high surrogate followed by an escaped low one is
                    // one astral character; a lone surrogate decodes to
                    // U+FFFD.
                    if (0xD800..0xDC00).contains(&code)
                        && self.bytes[self.pos..].starts_with(b"\\u")
                    {
                        let back = self.pos;
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        } else {
                            self.pos = back;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or ']' at byte {}", self.pos));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or '}}' at byte {}", self.pos));
            }
        }
    }
}

/// Escape a string for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Append `x`: shortest round-trip form, or `decimals` fixed decimals,
/// and `null` when it is not finite. Every float the workspace writes as
/// JSON goes through here.
fn push_f64(out: &mut String, x: f64, decimals: Option<usize>) {
    if !x.is_finite() {
        out.push_str("null");
    } else if let Some(d) = decimals {
        let _ = write!(out, "{x:.d$}");
    } else {
        let _ = write!(out, "{x}");
    }
}

/// A value the writers can append.
pub trait ToJson {
    /// Append the JSON form of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
int_to_json!(u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        push_f64(out, *self, None);
    }
}

/// A float written with a fixed number of decimals (`Fixed(x, 3)` is
/// `{x:.3}`), or `null` when it is not finite.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl ToJson for Fixed {
    fn write_json(&self, out: &mut String) {
        push_f64(out, self.0, Some(self.1));
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        let mut arr = ArrWriter::new(out);
        for v in self {
            arr.item(v);
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        ArrWriter::new(out).item(&self.0).item(&self.1);
    }
}

/// Serialize one object whose fields `f` writes.
pub fn object(f: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    let mut s = String::with_capacity(256);
    f(&mut ObjWriter::new(&mut s));
    s
}

/// Appends one JSON object to a `String`, fields in call order. The
/// closing `}` is written when the writer is dropped, so a nested writer
/// scoped to one statement closes itself.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjWriter<'a> {
    /// Open an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjWriter { out, first: true }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        key.write_json(self.out);
        self.out.push(':');
        self.out
    }

    /// Append `"key":value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Append `"key":` and open a nested object.
    pub fn obj(&mut self, key: &str) -> ObjWriter<'_> {
        ObjWriter::new(self.key(key))
    }

    /// Append `"key":` and open a nested array.
    pub fn arr(&mut self, key: &str) -> ArrWriter<'_> {
        ArrWriter::new(self.key(key))
    }

    /// Append `"key":` and an array holding one object per item, whose
    /// fields `f` writes.
    pub fn objs<I: IntoIterator>(
        &mut self,
        key: &str,
        items: I,
        mut f: impl FnMut(&mut ObjWriter<'_>, I::Item),
    ) -> &mut Self {
        let mut arr = self.arr(key);
        for item in items {
            f(&mut arr.obj(), item);
        }
        drop(arr);
        self
    }
}

impl Drop for ObjWriter<'_> {
    fn drop(&mut self) {
        self.out.push('}');
    }
}

/// Appends one JSON array to a `String`; the closing `]` is written on
/// drop, like [`ObjWriter`].
pub struct ArrWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ArrWriter<'a> {
    /// Open an array at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('[');
        ArrWriter { out, first: true }
    }

    fn next(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// Append one item.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.next());
        self
    }

    /// Append one already-serialized item.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.next().push_str(json);
        self
    }

    /// Open a nested object as the next item.
    pub fn obj(&mut self) -> ObjWriter<'_> {
        ObjWriter::new(self.next())
    }

    /// Open a nested array as the next item.
    pub fn arr(&mut self) -> ArrWriter<'_> {
        ArrWriter::new(self.next())
    }
}

impl Drop for ArrWriter<'_> {
    fn drop(&mut self) {
        self.out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_strings_and_nesting() {
        let v = Json::parse(r#"{"a":1.5,"b":[true,null,"x\"y\\z"],"c":{"d":-2e3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        let b = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x\"y\\z"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2000.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in
            ["{", "[1,]", "{}x", "nul", "01", "1.", "-", "1e", "\"a\u{1}\"", "\"\\x\"", "{1:2}"]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn unicode_and_escapes_decode() {
        assert_eq!(Json::parse(r#""café""#).unwrap().as_str(), Some("café"));
        assert_eq!(
            Json::parse(r#""\u00e9\ud83d\ude00\b\f""#).unwrap().as_str(),
            Some("é😀\u{8}\u{c}")
        );
        assert_eq!(Json::parse(r#""\ud800x""#).unwrap().as_str(), Some("\u{FFFD}x"));
        assert!(Json::parse(r#""\u+123""#).is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objs = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&objs).is_err());
        // A megabyte of open brackets fails fast instead of overflowing
        // the stack.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn integers_are_exact_over_the_full_u64_range() {
        let big = (1u64 << 53) + 1;
        assert_eq!(Json::parse(&big.to_string()).unwrap(), Json::Int(big));
        assert_eq!(Json::parse(&u64::MAX.to_string()).unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(Json::parse("0").unwrap().as_usize(), Some(0));
        // Out of range, negative, fractional or exponent forms are floats,
        // never integers.
        for text in ["18446744073709551616", "-3", "4.7", "4.0", "1e30", "-0"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text}");
            assert!(v.as_f64().is_some(), "{text}");
        }
    }

    #[test]
    fn typed_fields_name_the_key() {
        let v = Json::parse(r#"{"n":-3,"s":"x","pairs":[[1,2],[3,4]],"z":null}"#).unwrap();
        assert_eq!(v.req::<u64>("n").unwrap_err(), "invalid 'n'");
        assert_eq!(v.req::<u64>("gone").unwrap_err(), "missing 'gone'");
        assert_eq!(v.req::<f64>("n"), Ok(-3.0));
        assert_eq!(v.req::<&str>("s"), Ok("x"));
        assert_eq!(v.req::<Vec<(usize, usize)>>("pairs"), Ok(vec![(1, 2), (3, 4)]));
        assert_eq!(v.opt::<u64>("z"), Ok(None));
        assert_eq!(v.opt::<u64>("gone"), Ok(None));
        assert_eq!(v.opt::<bool>("s").unwrap_err(), "invalid 's'");
        assert_eq!(v.req::<(u64, u64)>("pairs").unwrap_err(), "invalid 'pairs'");
    }

    #[test]
    fn escape_round_trips_every_control_character() {
        let s: String = (0u8..0x20).map(char::from).chain("\"\\/é😀".chars()).collect();
        let lit = format!("\"{}\"", json_escape(&s));
        assert!(lit.contains("\\u0001") && lit.contains("\\n") && lit.contains("\\\""), "{lit}");
        assert_eq!(Json::parse(&lit).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn writers_keep_call_order_and_close_on_drop() {
        let mut s = String::new();
        {
            let mut o = ObjWriter::new(&mut s);
            o.field("b", 1u64).field("a", "q\"").field("x", f64::NAN).field("n", None::<f64>);
            o.obj("o").field("k", true);
            o.arr("v").item(0.5).item(Fixed(1.0 / 3.0, 3)).obj().field("e", Fixed(f64::NAN, 3));
            o.field("pairs", vec![(1usize, 2.5), (3, 0.0)]);
        }
        assert_eq!(
            s,
            r#"{"b":1,"a":"q\"","x":null,"n":null,"o":{"k":true},"v":[0.5,0.333,{"e":null}],"pairs":[[1,2.5],[3,0]]}"#
        );
        assert!(Json::parse(&s).is_ok());
    }

    #[test]
    fn floats_use_the_shortest_round_trip_form() {
        let mut s = String::new();
        ArrWriter::new(&mut s).item(0.1 + 0.2).item(1e21).item(2.0).item(f64::NEG_INFINITY);
        assert_eq!(s, "[0.30000000000000004,1000000000000000000000,2,null]");
        let back = Json::parse(&s).unwrap();
        assert_eq!(back.as_arr().unwrap()[0].as_f64(), Some(0.1 + 0.2));
    }
}
