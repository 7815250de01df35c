//! Shallow request-line inspection for the router.
//!
//! The router needs exactly two facts about a request line — the verb
//! (routing class) and the raw `id` slice (to synthesize a
//! `backend_unavailable` error if the owning backend dies mid-flight).
//! Parsing the full JSON would roughly double the per-request CPU for
//! bulk `scenarios` sweeps whose bodies the router never looks at, so
//! this scanner walks only the *top-level* members of the object,
//! skipping nested values by bracket counting with string/escape
//! awareness, and copies nothing unless a key or the verb holds an
//! escape.
//!
//! It reads the line the way the replica's parser does: the first
//! occurrence of a key wins (`Json::get` semantics), and escaped keys and
//! verbs are decoded, so `{"ver\u0062":"lo\u0061d"}` is a broadcast
//! `load`. For every line `json::parse` accepts, `peek` returns the
//! parser's verb and an `id_raw` that parses to the parser's `id` — a
//! differential test over mutated request lines pins this.
//!
//! The scanner is deliberately forgiving: on any malformed input it
//! reports what it found so far (possibly nothing). A line with no
//! recognizable verb still gets forwarded to the hashed backend, whose
//! real parser produces the authoritative `parse_error` reply — the
//! router never rejects what a replica would accept.

use std::borrow::Cow;

use hmdiv_serve::json::{self, Json};

/// What a shallow scan of a request line found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Peek<'a> {
    /// The first `verb` member's string value, decoded, if it is a
    /// well-formed string.
    pub verb: Option<Cow<'a, str>>,
    /// The first `id` member's raw slice, verbatim (defaults to `null` —
    /// the same id the server echoes for id-less requests).
    pub id_raw: &'a str,
}

/// Skips whitespace from `i`, returning the next index.
fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\r' | b'\n') {
        i += 1;
    }
    i
}

/// Skips a string literal whose opening quote is at `i`; returns the
/// index just past the closing quote, or `None` when unterminated.
fn skip_string(bytes: &[u8], i: usize) -> Option<usize> {
    debug_assert_eq!(bytes[i], b'"');
    let mut i = i + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Skips one JSON value starting at `i` (string, object, array, or
/// scalar token); returns the index just past it.
fn skip_value(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i)? {
        b'"' => skip_string(bytes, i),
        b'{' | b'[' => {
            let mut depth = 0_usize;
            let mut j = i;
            while j < bytes.len() {
                match bytes[j] {
                    b'"' => {
                        j = skip_string(bytes, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => {
            // Scalar token: runs to the next structural character.
            let mut j = i;
            while j < bytes.len() && !matches!(bytes[j], b',' | b'}' | b']' | b' ' | b'\t') {
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

/// The text of the string literal `literal` (quotes included): borrowed
/// when escape-free, else decoded by the JSON parser. `None` when the
/// escapes are malformed.
fn unquote(literal: &str) -> Option<Cow<'_, str>> {
    let inner = &literal[1..literal.len() - 1];
    if !inner.contains('\\') {
        return Some(Cow::Borrowed(inner));
    }
    match json::parse(literal) {
        Ok(Json::Str(text)) => Some(Cow::Owned(text)),
        _ => None,
    }
}

/// Scans the top-level members of a JSON object line for `verb` and
/// `id`; the first occurrence of each key wins.
pub(crate) fn peek(line: &str) -> Peek<'_> {
    let mut found = Peek {
        verb: None,
        id_raw: "null",
    };
    let (mut seen_verb, mut seen_id) = (false, false);
    let bytes = line.as_bytes();
    let mut i = skip_ws(bytes, 0);
    if bytes.get(i) != Some(&b'{') {
        return found;
    }
    i = skip_ws(bytes, i + 1);
    while i < bytes.len() && bytes[i] != b'}' {
        // Member key.
        if bytes[i] != b'"' {
            return found;
        }
        let Some(after_key) = skip_string(bytes, i) else {
            return found;
        };
        let Some(key) = unquote(&line[i..after_key]) else {
            return found;
        };
        i = skip_ws(bytes, after_key);
        if bytes.get(i) != Some(&b':') {
            return found;
        }
        i = skip_ws(bytes, i + 1);
        let value_start = i;
        let Some(after_value) = skip_value(bytes, i) else {
            return found;
        };
        match &*key {
            "verb" if !seen_verb => {
                seen_verb = true;
                if bytes[value_start] == b'"' {
                    found.verb = unquote(&line[value_start..after_value]);
                }
            }
            "id" if !seen_id => {
                seen_id = true;
                found.id_raw = line[value_start..after_value].trim_end();
            }
            _ => {}
        }
        if seen_verb && seen_id {
            // Both first occurrences in hand; the rest of the line is
            // opaque.
            return found;
        }
        i = skip_ws(bytes, after_value);
        if bytes.get(i) == Some(&b',') {
            i = skip_ws(bytes, i + 1);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_verb_and_raw_id_in_any_member_order() {
        let p = peek(r#"{"id":7,"verb":"evaluate","model":"m01"}"#);
        assert_eq!(p.verb.as_deref(), Some("evaluate"));
        assert_eq!(p.id_raw, "7");
        let p = peek(r#"{"model":"m01","verb":"ping","id":"abc"}"#);
        assert_eq!(p.verb.as_deref(), Some("ping"));
        assert_eq!(p.id_raw, r#""abc""#);
    }

    #[test]
    fn id_may_be_any_json_value_and_is_kept_verbatim() {
        assert_eq!(
            peek(r#"{"id":[1,{"k":"}"}],"verb":"x"}"#).id_raw,
            r#"[1,{"k":"}"}]"#
        );
        assert_eq!(
            peek(r#"{"id":{"a":[1,2]},"verb":"x"}"#).id_raw,
            r#"{"a":[1,2]}"#
        );
        assert_eq!(peek(r#"{"id":-12.5e3,"verb":"x"}"#).id_raw, "-12.5e3");
        assert_eq!(peek(r#"{"id":true}"#).id_raw, "true");
        assert_eq!(peek(r#"{"verb":"x"}"#).id_raw, "null");
    }

    #[test]
    fn nested_verb_like_members_are_not_mistaken_for_the_verb() {
        let p = peek(r#"{"body":{"verb":"inner","id":99},"verb":"outer","id":1}"#);
        assert_eq!(p.verb.as_deref(), Some("outer"));
        assert_eq!(p.id_raw, "1");
    }

    #[test]
    fn strings_with_braces_and_escapes_do_not_derail_the_scan() {
        let p = peek(r#"{"note":"a \" b } { ] [","verb":"ping","id":3}"#);
        assert_eq!(p.verb.as_deref(), Some("ping"));
        assert_eq!(p.id_raw, "3");
    }

    #[test]
    fn malformed_lines_degrade_to_no_verb_and_null_id() {
        for line in ["", "not json", "[1,2,3]", r#"{"verb""#, r#"{"verb":}"#, "{"] {
            let p = peek(line);
            assert_eq!(p.verb.as_deref(), None, "{line:?}");
            assert_eq!(p.id_raw, "null", "{line:?}");
        }
        // A truncated object still yields what was scanned before the
        // damage.
        let p = peek(r#"{"verb":"evaluate","model"#);
        assert_eq!(p.verb.as_deref(), Some("evaluate"));
    }

    #[test]
    fn first_occurrence_wins_and_escapes_are_decoded_as_the_parser_does() {
        // The parser's `Json::get` keeps the first duplicate.
        let p = peek(r#"{"verb":"evaluate","verb":"load","id":1}"#);
        assert_eq!(p.verb.as_deref(), Some("evaluate"));
        let p = peek(r#"{"id":1,"id":2,"verb":"ping"}"#);
        assert_eq!(p.id_raw, "1");
        // Escaped keys and verbs decode; these are broadcast `load`s.
        let p = peek(r#"{"ver\u0062":"load","id":1}"#);
        assert_eq!(p.verb.as_deref(), Some("load"));
        let p = peek(r#"{"verb":"lo\u0061d","id":1}"#);
        assert_eq!(p.verb.as_deref(), Some("load"));
        // A first `verb` that is not a string leaves none, as in the
        // parser, even when a later duplicate is one.
        assert_eq!(peek(r#"{"verb":5,"verb":"load"}"#).verb, None);
    }

    /// Seed request lines: every verb shape the router distinguishes, ids
    /// of every JSON type, duplicates, escapes and nested look-alikes.
    const SEEDS: [&str; 10] = [
        r#"{"id":1,"verb":"evaluate","model":"m01","profile":{"easy":0.9,"difficult":0.1}}"#,
        r#"{"verb":"load","id":"a\"b","classes":{"easy":{"p_mf":0.07}}}"#,
        r#"{"verb":"lo\u0061d","ver\u0062":"ping","id":[1,{"id":2}],"id":3}"#,
        r#"{"ver\u0062":"metrics","verb":"load","id":-1.5e3}"#,
        r#" { "id" : null , "verb" : "shutdown" } "#,
        r#"{"body":{"verb":"inner","id":99},"verb":"outer","id":{"k":"}"}}"#,
        r#"{"verb":"save","id":true,"trace_id":"00000000000000ff"}"#,
        r#"{"\u0069d":7,"verb":"\u0070ing"}"#,
        r#"{"verb":"scenarios","id":2,"scenarios":[[{"op":"improve_machine","class":"x","factor":2}]]}"#,
        r#"{"id":"\ud83d\ude00","verb":"compare"}"#,
    ];

    /// Fragments spliced in by the mutator.
    #[rustfmt::skip]
    const TOKENS: [&str; 24] = [
        "\"", "\\", "{", "}", "[", "]", ",", ":", " ", "\r", "0", "-1",
        "null", "true", "\"verb\"", "\"id\"", "\"load\"", "\"ping\"",
        "\\u0062", "\\u0069", "\\\"", "\"ver\\u0062\"", "\"lo\\u0061d\"", "{\"verb\":1}",
    ];

    /// One to three random edits: delete a short range, splice a token,
    /// overwrite a byte, or copy a slice elsewhere.
    fn mutate(line: &str, rng: &mut impl rand::Rng) -> Option<String> {
        let mut bytes = line.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..4_usize) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..4_u32) {
                0 if at < bytes.len() => {
                    let end = (at + rng.gen_range(1..4_usize)).min(bytes.len());
                    bytes.drain(at..end);
                }
                1 => {
                    let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                    bytes.splice(at..at, token.bytes());
                }
                2 if at < bytes.len() => bytes[at] = rng.gen_range(0x20..0x7f_u8),
                _ => {
                    let from = rng.gen_range(0..=bytes.len());
                    let len = rng.gen_range(0..=16_usize).min(bytes.len() - from);
                    let copy = bytes[from..from + len].to_vec();
                    bytes.splice(at..at, copy);
                }
            }
        }
        String::from_utf8(bytes).ok()
    }

    #[test]
    fn peek_agrees_with_the_parser_on_every_line_it_accepts() {
        use rand::Rng as _;
        const MUTANTS: usize = 100_000;
        /// Whether the parser accepts `line`, asserting peek agrees if so.
        fn agrees(line: &str) -> bool {
            let Ok(parsed) = json::parse(line) else {
                return false;
            };
            let p = peek(line);
            assert_eq!(
                p.verb.as_deref(),
                parsed.get("verb").and_then(Json::as_str),
                "{line}"
            );
            let id = parsed.get("id").cloned().unwrap_or(Json::Null);
            assert_eq!(json::parse(p.id_raw).ok(), Some(id), "{line}");
            true
        }
        for seed in SEEDS {
            assert!(agrees(seed), "seeds are valid requests: {seed}");
        }
        // Accepted mutants become later parents, so the corpus wanders
        // several edits from the seeds while staying mostly valid.
        let mut rng = hmdiv_prob::par::stream_rng(0x9ee6, 14);
        let mut pool: Vec<String> = SEEDS.iter().map(|s| (*s).to_owned()).collect();
        let mut accepted = 0;
        for _ in 0..MUTANTS {
            let parent = &pool[rng.gen_range(0..pool.len())];
            let Some(line) = mutate(parent, &mut rng) else {
                continue;
            };
            if !agrees(&line) {
                continue;
            }
            accepted += 1;
            if pool.len() < 256 {
                pool.push(line);
            } else {
                let slot = rng.gen_range(0..pool.len());
                pool[slot] = line;
            }
        }
        assert!(
            accepted >= MUTANTS / 10,
            "only {accepted} mutants parsed; the corpus drifted off valid lines"
        );
    }

    #[test]
    fn whitespace_tolerant() {
        let p = peek("  { \"id\" : 42 , \"verb\" : \"metrics\" }  ");
        assert_eq!(p.verb.as_deref(), Some("metrics"));
        assert_eq!(p.id_raw, "42");
    }
}
