//! A minimal JSON value type with a hand-rolled parser and renderer.
//!
//! The workspace has no serialization framework, so the wire layer rolls
//! its own JSON, the way `hmdiv_obs::export` already does for snapshots.
//! Two properties matter for the serve protocol and are guaranteed here:
//!
//! * **Objects preserve key order** ([`Json::Obj`] is a `Vec` of pairs, not
//!   a map). A demand profile arrives as a JSON object, and
//!   [`hmdiv_core::DemandProfile`] accumulates eq. (8) in *insertion*
//!   order — preserving wire order end to end is what makes server results
//!   bit-identical to direct in-process evaluation.
//! * **Numbers round-trip.** A finite `f64` renders as the shortest
//!   decimal that parses back to it, so `parse(render(x)) == x` bit for
//!   bit. The digits come from a private Ryu writer rather than
//!   `core::fmt`, at about half the cost, and are byte for byte what
//!   `impl Display for f64` prints: plain decimal, never an exponent, and
//!   `-0` for negative zero. Replies, snapshot files and content ids are
//!   therefore what the `Display` path produced.
//!
//! The parser is a recursive-descent scanner over bytes with a nesting
//! depth limit (a hostile request must exhaust the depth budget, not the
//! stack), the RFC 8259 number grammar, and byte-offset error reporting.
//!
//! The same scanner also drives typed decoding. Inside the crate,
//! `parse_with` offers each member of a top-level object to a hook with a
//! borrowed `Cursor` on its value: escape-free strings are borrowed from
//! the input rather than copied, numbers go through the one number
//! scanner, and members the decoder ignores are validated and skipped
//! without building anything. A hook that does not take a member leaves
//! it to the tree parser, so the grammar, the depth limit and every error
//! offset stay those of [`parse`]. The request decoder in
//! [`crate::protocol`] uses it to turn a `scenarios` sweep straight into
//! typed scenarios.

mod shortest;

use std::borrow::Cow;
use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The member of an object, if this is an object containing `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number that
    /// fits `u64` exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in order, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders onto `out` (compact, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Renders a number. A finite value renders as the shortest decimal that
/// re-parses to its exact bits, the same bytes as `format!("{v}")`; see
/// the `shortest` module. Non-finite values — which the protocol never
/// produces, since probabilities live in `[0, 1]` — degrade to `null`
/// rather than emitting invalid JSON.
fn write_number(v: f64, out: &mut String) {
    if v.is_finite() {
        shortest::write_f64(v, out);
    } else {
        out.push_str("null");
    }
}

/// Renders a string with the mandatory JSON escapes.
fn write_string(s: &str, out: &mut String) {
    use fmt::Write as _;
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

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub detail: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.detail, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] with a byte offset on any syntax violation (numbers
/// follow the RFC 8259 grammar: no leading zeros, no bare `.`), nesting
/// beyond the depth limit, or trailing garbage.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let value = p.value(0)?;
    p.finish()?;
    Ok(value)
}

/// Parses like [`parse`], but first offers each member of a top-level
/// object to `hook` with a [`Cursor`] on the member's value. A hook that
/// decodes the value itself returns `true`, and the member is left out of
/// the tree; one that returns `false` — whether it declined, met a shape
/// it does not handle, or met a syntax error — has the member rewound and
/// parsed into the tree as usual. Errors, offsets and the tree's other
/// members are therefore exactly those of [`parse`].
pub(crate) fn parse_with<'a>(
    input: &'a str,
    mut hook: impl FnMut(&str, Cursor<'a, '_>) -> bool,
) -> Result<Json, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let value = if p.peek() == Some(b'{') {
        let mut members = Vec::new();
        p.members(|p, key| {
            let mark = p.pos;
            if !hook(&key, Cursor { p, depth: 1 }) {
                p.pos = mark;
                let value = p.value(1)?;
                members.push((key.into_owned(), value));
            }
            Ok::<(), JsonError>(())
        })?;
        Json::Obj(members)
    } else {
        p.value(0)?
    };
    p.finish()?;
    Ok(value)
}

/// A borrowed cursor on one value of the input, for decoders that convert
/// JSON straight into typed values instead of building a [`Json`] tree.
/// Every method runs the tree parser's own scanner, so the grammar, the
/// depth limit and the error offsets are the same. Methods consume the
/// cursor: one value is read once.
pub(crate) struct Cursor<'a, 'p> {
    p: &'p mut Parser<'a>,
    /// Nesting depth of the value under the cursor.
    depth: usize,
}

impl<'a> Cursor<'a, '_> {
    /// The value's first byte, which names its kind (`"`, `[`, `{`, `-` or
    /// a digit, …), without consuming it.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.p.peek()
    }

    fn enter(&self) -> Result<(), JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.p.err("nesting too deep"));
        }
        Ok(())
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    pub(crate) fn str(self) -> Result<Cow<'a, str>, JsonError> {
        self.enter()?;
        self.p.string()
    }

    /// Reads a number.
    pub(crate) fn num(self) -> Result<f64, JsonError> {
        self.enter()?;
        self.p.number()
    }

    /// Validates the value and skips it without building anything.
    pub(crate) fn skip(self) -> Result<(), JsonError> {
        self.p.skip(self.depth)
    }

    /// Walks an array, handing `each` a cursor on every element in turn.
    pub(crate) fn array<E: From<JsonError>>(
        self,
        mut each: impl FnMut(Cursor<'a, '_>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.enter()?;
        let depth = self.depth + 1;
        self.p.seq(|p| each(Cursor { p, depth }))
    }

    /// Walks an object, handing `each` every key (borrowed when escape-free)
    /// and a cursor on its value, in member order.
    pub(crate) fn object<E: From<JsonError>>(
        self,
        mut each: impl FnMut(Cow<'a, str>, Cursor<'a, '_>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.enter()?;
        let depth = self.depth + 1;
        self.p.members(|p, key| each(key, Cursor { p, depth }))
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            detail: detail.into(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Only whitespace may follow the document's value.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(|p| {
                    items.push(p.value(depth + 1)?);
                    Ok::<(), JsonError>(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.members(|p, key| {
                    let value = p.value(depth + 1)?;
                    members.push((key.into_owned(), value));
                    Ok::<(), JsonError>(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Validates one value like [`Parser::value`] (same errors, same
    /// offsets) without building it.
    fn skip(&mut self, depth: usize) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'"') if depth <= MAX_DEPTH => self.string().map(drop),
            Some(b'[') if depth <= MAX_DEPTH => self.seq(|p| p.skip(depth + 1)),
            Some(b'{') if depth <= MAX_DEPTH => self.members(|p, _| p.skip(depth + 1)),
            _ => self.value(depth).map(drop),
        }
    }

    /// Walks an array; `each` reads one element from the cursor position.
    fn seq<E: From<JsonError>>(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]` in array").into()),
            }
        }
    }

    /// Walks an object; `each` gets the decoded key and reads its value
    /// from the cursor position.
    fn members<E: From<JsonError>>(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            each(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object").into()),
            }
        }
    }

    /// Advances over a run of unescaped string bytes and returns it. A run
    /// only stops at ASCII bytes (`"`, `\`, controls) or the end of input,
    /// never inside a multi-byte sequence, so both ends are char
    /// boundaries of the input `&str`.
    fn run(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'"' || c == b'\\' || c < 0x20 {
                break;
            }
            self.pos += 1;
        }
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid UTF-8"))
    }

    /// Reads a string. An escape-free string is borrowed from the input;
    /// one with escapes is decoded into an owned copy.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let head = self.run()?;
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(head));
        }
        let mut out = String::from(head);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // `hex4` pre-increments: it expects `pos` on the
                            // `u` (or on the last digit of a previous group)
                            // and leaves it on the final digit it read.
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the paired escape.
                                if self.bytes[self.pos + 1..].starts_with(b"\\u") {
                                    self.pos += 2; // onto the second `u`
                                    let second = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&first) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            // `hex4` leaves `pos` on the last digit; the
                            // common `pos += 1` below advances past it.
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => out.push_str(self.run()?),
            }
        }
    }

    /// Reads four hex digits starting after the current position; leaves
    /// `pos` on the final digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            value = (value << 4) | d;
        }
        Ok(value)
    }

    /// Advances over decimal digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Reads a number in the RFC 8259 grammar: `-? (0 | [1-9][0-9]*)
    /// (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. The whole lexeme is scanned
    /// first, so a violation (`01`, `1.`, `-.5`, `1.e5`) reports the
    /// lexeme at its start.
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        let mut valid = int_digits == 1 || (int_digits > 1 && self.bytes[int_start] != b'0');
        if self.peek() == Some(b'.') {
            self.pos += 1;
            valid &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= self.digits() > 0;
        }
        let text = &self.text[start..self.pos];
        let parsed = if valid {
            text.parse::<f64>().ok()
        } else {
            None
        };
        let v = parsed.ok_or_else(|| JsonError {
            detail: format!("invalid number `{text}`"),
            at: start,
        })?;
        if !v.is_finite() {
            return Err(JsonError {
                detail: format!("number `{text}` overflows f64"),
                at: start,
            });
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore as _;

    #[test]
    fn round_trips_scalars_and_structures() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-1.5",
            "1e-9",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = parse(text).unwrap();
            let rendered = v.to_string();
            assert_eq!(parse(&rendered).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse("{\"z\":1,\"a\":2,\"m\":3}").unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2,\"m\":3}");
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        let mut pool = vec![0.18902, 0.1428, 1.0 / 3.0, 1e-300, 123_456_789.123_456_78];
        pool.extend([
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ]);
        // Every power of two, subnormal ones included.
        pool.extend((-1074..=1023).map(|e| 2f64.powi(e)));
        // Seeded finite bit patterns, a quarter of them subnormal.
        let mut rng = hmdiv_prob::par::stream_rng(0xb175, 0);
        for i in 0..20_000 {
            let bits = rng.next_u64();
            let bits = if i % 4 == 0 {
                bits & 0x800f_ffff_ffff_ffff
            } else {
                bits
            };
            pool.push(f64::from_bits(bits));
        }
        for v in pool.into_iter().filter(|v| v.is_finite()) {
            let mut s = String::new();
            Json::Num(v).write(&mut s);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} rendered as {s}");
        }
    }

    /// A random string made of pieces that need every kind of escape.
    fn random_string(rng: &mut impl rand::Rng) -> String {
        const PIECES: [&str; 10] = [
            "a",
            "\"",
            "\\",
            "\n",
            "\t",
            "\r",
            "\u{1}",
            "\u{1f}",
            "é",
            "\u{1F600}",
        ];
        (0..rng.gen_range(0..6_usize))
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect()
    }

    /// A random document: nested arrays and objects, escaped strings, and
    /// numbers from random bit patterns.
    fn random_doc(rng: &mut impl rand::Rng, depth: usize) -> Json {
        let leaf = depth >= 4 || rng.gen_bool(0.4);
        match rng.gen_range(0..if leaf { 5 } else { 7_u32 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Str(random_string(rng)),
            3 | 4 => {
                let v = f64::from_bits(rng.next_u64());
                Json::Num(if v.is_finite() { v } else { -0.0 })
            }
            5 => Json::Arr(
                (0..rng.gen_range(0..5_usize))
                    .map(|_| random_doc(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0..5_usize))
                    .map(|_| (random_string(rng), random_doc(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn render_parse_render_is_idempotent() {
        let mut rng = hmdiv_prob::par::stream_rng(0xd0c, 0);
        for _ in 0..2_000 {
            let doc = random_doc(&mut rng, 0);
            let text = doc.to_string();
            let back = parse(&text).unwrap();
            assert_eq!(back.to_string(), text);
            assert_eq!(back, doc, "{text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t control\u{1} snowman\u{2603}";
        let mut s = String::new();
        write_string(original, &mut s);
        assert_eq!(parse(&s).unwrap().as_str().unwrap(), original);
        // Unicode escapes parse too, including surrogate pairs.
        assert_eq!(
            parse("\"\\u0041\\ud83d\\ude00\"")
                .unwrap()
                .as_str()
                .unwrap(),
            "A\u{1F600}"
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
            "[1] trailing",
            "1e999",
            // RFC 8259 number grammar: no leading zeros, digits on both
            // sides of a decimal point, digits in an exponent.
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            ".5",
            "1.e5",
            "-",
            "1e",
            "1e+",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn number_grammar_errors_name_the_lexeme_at_its_start() {
        let err = parse("[1,01]").unwrap_err();
        assert_eq!(err.to_string(), "invalid number `01` at byte 3");
        let err = parse("{\"a\":-.5}").unwrap_err();
        assert_eq!(err.to_string(), "invalid number `-.5` at byte 5");
        for good in ["0", "-0", "0.5", "-0.5e-3", "1E5", "10", "1e+2", "90.0"] {
            assert!(parse(good).is_ok(), "{good:?} should parse");
        }
    }

    /// A hook that reads every top-level `n` member as a number through the
    /// cursor, declining anything else.
    fn parse_taking_n(input: &str) -> (Result<Json, JsonError>, Vec<f64>) {
        let mut taken = Vec::new();
        let tree = parse_with(input, |key, value| {
            if key != "n" || !matches!(value.peek(), Some(b'-' | b'0'..=b'9')) {
                return false;
            }
            value.num().map(|v| taken.push(v)).is_ok()
        });
        (tree, taken)
    }

    #[test]
    fn parse_with_leaves_consumed_members_out_and_rewinds_the_rest() {
        let (tree, taken) = parse_taking_n(r#"{"a":1,"n":2.5,"b":[true],"n":"x"}"#);
        assert_eq!(taken, [2.5]);
        assert_eq!(
            tree.unwrap(),
            parse(r#"{"a":1,"b":[true],"n":"x"}"#).unwrap()
        );
        // A number the hook rejects is rewound and reported by the tree
        // parser, at the same offset `parse` gives.
        for input in [
            r#"{"n":01}"#,
            r#"{"n":1e999}"#,
            r#"{"n":2,"a":[1,}"#,
            "[1,2]",
            "7",
        ] {
            assert_eq!(parse_taking_n(input).0, parse(input), "{input}");
        }
    }

    #[test]
    fn cursor_borrows_escape_free_strings_and_skips_with_tree_errors() {
        let mut seen = Vec::new();
        let tree = parse_with(
            r#"{"s":"plain","t":"esc\u0041ped","u":{"x":[1,{"y":null}]}}"#,
            |key, value| match key {
                "s" | "t" => match value.str() {
                    Ok(s) => {
                        seen.push((s.to_string(), matches!(s, Cow::Borrowed(_))));
                        true
                    }
                    Err(_) => false,
                },
                _ => value.skip().is_ok(),
            },
        );
        assert_eq!(tree.unwrap(), Json::Obj(Vec::new()));
        assert_eq!(
            seen,
            [("plain".to_owned(), true), ("escAped".to_owned(), false)]
        );
        // Skipping enforces the depth limit and the grammar exactly as the
        // tree parser does.
        let deep = format!("{{\"u\":{}{}}}", "[".repeat(100), "]".repeat(100));
        for input in [deep.as_str(), r#"{"u":[1,01]}"#, r#"{"u":{"a" 1}}"#] {
            let mut skipped = None;
            let tree = parse_with(input, |_, value| {
                skipped = Some(value.skip());
                false
            });
            assert_eq!(tree, parse(input), "{input}");
            assert_eq!(
                skipped.unwrap().unwrap_err(),
                parse(input).unwrap_err(),
                "{input}"
            );
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.detail.contains("deep"), "{err}");
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"n\":3,\"s\":\"x\",\"b\":true,\"a\":[1]}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
