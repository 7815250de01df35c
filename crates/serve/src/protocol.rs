//! The JSON-lines wire protocol: request envelopes, typed bodies, and
//! response rendering.
//!
//! Every request is one line of JSON, every response one line back:
//!
//! ```text
//! → {"id":1,"verb":"evaluate","model":"m…","profile":{"easy":0.9,"difficult":0.1}}
//! ← {"id":1,"ok":true,"result":{"failure":0.18902}}
//! ← {"id":2,"ok":false,"error":{"code":"unknown_class","message":"…"}}
//! ```
//!
//! The envelope fields are `id` (any JSON value, echoed verbatim), `verb`,
//! an optional `deadline_ms`, and an optional `trace_id` (a hex-u64
//! correlation id: when present it names the request's trace instead of a
//! server-minted id, and is echoed in the response envelope so pipelined
//! callers can correlate replies with flight-recorder records); the
//! remaining members are the verb's body. Demand profiles are JSON
//! objects whose **member order is the profile's class order** —
//! [`crate::json`] preserves it, so eq. (8) accumulates in exactly the
//! order a direct in-process caller would use, and server results are
//! bit-identical to local evaluation.
//!
//! `u64` content hashes travel as 16-digit hex strings (JSON numbers are
//! doubles and cannot carry 64 bits).
//!
//! The server decodes each line once with [`decode_request`]: the
//! envelope and body parse into a [`Json`] tree as in [`parse_request`],
//! except the top-level `scenarios` member, which decodes flat into a
//! [`FlatScenarios`] — its distinct class names, interned once per
//! request; one fixed-size entry per change; and the scenario end
//! offsets. No scenario object is built per scenario. The decoder follows
//! `Json::get` semantics (the first duplicate key wins, unknown members
//! are ignored but still validated). Any shape it does not accept is
//! rewound and parsed as a tree, so [`parse_scenarios`] stays the only
//! source of scenario shape errors and their precedence is unchanged:
//! JSON syntax, then model binding, then scenario shape.
//!
//! [`Request::bind_scenarios`] then binds the list to the model: each
//! distinct name is resolved once and the result is a
//! [`CompiledScenarios`] the lane kernel reads directly. Model
//! errors (unknown classes, bad factors) are stored in it, not returned,
//! so they still surface at evaluation. [`Request::take_scenarios`] keeps
//! returning `Vec<Scenario>` for clients and tests. [`parse_request`] and
//! the `parse_*` extractors remain the public tree API for clients,
//! tools and the fleet router.

use std::borrow::Cow;
use std::collections::HashMap;

use hmdiv_core::cohort::CohortMember;
use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::{
    ClassId, ClassParams, CompiledModel, CompiledScenarios, DemandProfile, DetectionParams,
    ModelError, ModelParams, SequentialModel, SlotChange, UniverseManifest,
};
use hmdiv_prob::Probability;

use crate::error::ServeError;
use crate::json::{self, Cursor, Json};

/// One framing event from the [`LineReader`]: a complete request line, or
/// a typed framing fault the connection can survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete newline-terminated line (terminator and any trailing
    /// `\r` stripped).
    Line(String),
    /// A line provably exceeded the configured limit. The offending bytes
    /// are discarded — through the terminating newline when one is in the
    /// buffer, or until one arrives (resync mode) — and framing resumes
    /// at the next line.
    TooLong {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// A complete line was not valid UTF-8. The line is discarded; the
    /// newline framing is intact, so the connection survives.
    InvalidUtf8,
}

/// Buffers raw socket bytes and yields newline-framed [`LineEvent`]s.
///
/// The reader is **resumable**: bytes can arrive one at a time (slow
/// clients, split TCP segments, UTF-8 sequences cut mid-codepoint) and
/// partial-line state carries across [`push`](LineReader::push) calls.
/// Framing is linear — each buffered byte is scanned for `\n` once, and
/// framed lines are only marked consumed, then compacted away once per
/// push — so a trickled 1 MiB line and k lines arriving in one read both
/// cost O(bytes), not O(n²) or O(k × bytes). The events are the same
/// however the stream is split into pushes.
///
/// Over-limit lines do not poison the stream: the reader reports
/// [`LineEvent::TooLong`] once and silently discards bytes until the next
/// newline, after which framing resumes. Memory stays bounded by the
/// limit plus one read chunk.
#[derive(Debug)]
pub struct LineReader {
    buf: Vec<u8>,
    limit: usize,
    /// Bytes of `buf` before this index are framed already.
    start: usize,
    /// Index into `buf` up to which we already scanned for `\n`.
    scanned: usize,
    /// Discarding an over-limit line until the next newline.
    resync: bool,
}

impl LineReader {
    /// A reader that frames lines of at most `limit` bytes.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        LineReader {
            buf: Vec::new(),
            limit,
            start: 0,
            scanned: 0,
            resync: false,
        }
    }

    /// Appends raw socket bytes, first dropping the lines already framed.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed (bounded by the limit outside
    /// resync mode).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Marks `buf[..end]` framed; an empty remainder frees the buffer at
    /// once.
    fn consume(&mut self, end: usize) {
        if end == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            self.scanned = 0;
        } else {
            self.start = end;
            self.scanned = end;
        }
    }

    /// Pops the next framing event, or `None` if more bytes are needed.
    pub fn next_event(&mut self) -> Option<LineEvent> {
        loop {
            let newline = find_newline(&self.buf[self.scanned..]).map(|off| self.scanned + off);
            if self.resync {
                match newline {
                    Some(pos) => {
                        // The over-limit line ends here; drop it and
                        // resume normal framing on what follows.
                        self.consume(pos + 1);
                        self.resync = false;
                        continue;
                    }
                    None => {
                        // Still inside the oversized line: every buffered
                        // byte is garbage. Memory stays flat.
                        self.consume(self.buf.len());
                        return None;
                    }
                }
            }
            return match newline {
                Some(pos) if pos - self.start > self.limit => {
                    // Terminated but too long: framing survives, the
                    // payload does not.
                    self.consume(pos + 1);
                    Some(LineEvent::TooLong { limit: self.limit })
                }
                Some(pos) => {
                    let line = &self.buf[self.start..pos];
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    let event = match std::str::from_utf8(line) {
                        Ok(text) => LineEvent::Line(text.to_owned()),
                        Err(_) => LineEvent::InvalidUtf8,
                    };
                    self.consume(pos + 1);
                    Some(event)
                }
                None if self.buffered() > self.limit => {
                    // Provably oversized before the terminator arrived:
                    // report once, then discard until the next newline.
                    self.consume(self.buf.len());
                    self.resync = true;
                    Some(LineEvent::TooLong { limit: self.limit })
                }
                None => {
                    self.scanned = self.buf.len();
                    None
                }
            };
        }
    }
}

/// The index of the first `\n` in `bytes`. Whole 8-byte words are tested
/// at once: XOR with `\n` in every byte turns a newline into a zero byte,
/// and `(x − 0x01…01) & !x & 0x80…80` sets the top bit of the first zero
/// byte (and possibly of later bytes, but never of an earlier one).
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const TOPS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let x = u64::from_le_bytes(*word) ^ NEWLINES;
        let zero = x.wrapping_sub(ONES) & !x & TOPS;
        if zero != 0 {
            return Some(8 * i + zero.trailing_zeros() as usize / 8);
        }
    }
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(8 * words.len() + at)
}

/// A parsed request envelope; the body keeps the raw members for the
/// verb-specific extractors below.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Json,
    /// The verb.
    pub verb: String,
    /// Optional per-request deadline in milliseconds from receipt.
    pub deadline_ms: Option<u64>,
    /// Optional client-supplied trace correlation id (hex u64 on the
    /// wire), echoed in the response envelope.
    pub trace_id: Option<hmdiv_obs::TraceId>,
    /// The full request object (envelope fields included).
    pub body: Json,
}

/// Parses one request line into an envelope.
///
/// # Errors
///
/// * [`ServeError::Parse`] if the line is not valid JSON.
/// * [`ServeError::BadRequest`] if it is not an object with a string
///   `verb`, `deadline_ms` is present but not a whole number, or
///   `trace_id` is present but not a hex-u64 string.
pub fn parse_request(line: &str) -> Result<Envelope, ServeError> {
    envelope(json::parse(line).map_err(parse_error)?)
}

/// A request decoded in one pass by [`decode_request`].
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The envelope. When [`Request::scenarios`] is `Some`, the body lacks
    /// the `scenarios` member the list was decoded from.
    pub envelope: Envelope,
    /// The body's `scenarios` list, decoded flat without building a tree —
    /// present only when the member has a shape [`parse_scenarios`]
    /// accepts.
    pub scenarios: Option<FlatScenarios>,
}

impl Request {
    /// The `scenarios` list: the flat decode when there is one, else
    /// [`parse_scenarios`] over the body, which stays the only source of
    /// scenario errors.
    ///
    /// # Errors
    ///
    /// As [`parse_scenarios`].
    pub fn take_scenarios(&mut self) -> Result<Vec<Scenario>, ServeError> {
        match self.scenarios.take() {
            Some(flat) => Ok(flat.scenarios().map(|s| flat.scenario(s)).collect()),
            None => parse_scenarios(&self.envelope.body),
        }
    }

    /// The `scenarios` list bound to `model`: the flat decode resolves each
    /// distinct class name once, the tree path binds through
    /// [`CompiledModel::bind_scenarios`]. Either way the sweep stores, not
    /// returns, the model errors its scenarios would raise.
    ///
    /// # Errors
    ///
    /// As [`parse_scenarios`].
    pub fn bind_scenarios(
        &mut self,
        model: &CompiledModel,
    ) -> Result<CompiledScenarios, ServeError> {
        match self.scenarios.take() {
            Some(flat) => Ok(flat.bind(model)),
            None => Ok(model.bind_scenarios(&parse_scenarios(&self.envelope.body)?)),
        }
    }
}

/// A `scenarios` list decoded flat: its distinct class names, each stored
/// once; one fixed-size entry per change, naming its class by index; and
/// each scenario's end offset into the changes.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatScenarios {
    names: Vec<String>,
    changes: Vec<FlatChange>,
    ends: Vec<usize>,
}

/// One change of a [`FlatScenarios`]: a wire op with its class as an index
/// into the names.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FlatChange {
    ImproveMachine {
        class: u32,
        factor: f64,
    },
    ImproveMachineEverywhere {
        factor: f64,
    },
    SetMachineFailure {
        class: u32,
        p_mf: Probability,
    },
    SetReader {
        class: u32,
        p_hf_given_ms: Probability,
        p_hf_given_mf: Probability,
    },
    ScaleReaderEverywhere {
        factor: f64,
    },
}

impl FlatScenarios {
    /// Each scenario's changes, in order.
    fn scenarios(&self) -> impl Iterator<Item = &[FlatChange]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let changes = &self.changes[start..end];
            start = end;
            changes
        })
    }

    /// One scenario as the tree path would build it.
    fn scenario(&self, changes: &[FlatChange]) -> Scenario {
        let class = |i: u32| ClassId::new(&self.names[i as usize]);
        changes
            .iter()
            .fold(Scenario::new(), |scenario, change| match *change {
                FlatChange::ImproveMachine { class: i, factor } => {
                    scenario.improve_machine(class(i), factor)
                }
                FlatChange::ImproveMachineEverywhere { factor } => {
                    scenario.improve_machine_everywhere(factor)
                }
                FlatChange::SetMachineFailure { class: i, p_mf } => {
                    scenario.set_machine_failure(class(i), p_mf)
                }
                FlatChange::SetReader {
                    class: i,
                    p_hf_given_ms,
                    p_hf_given_mf,
                } => scenario.set_reader(class(i), p_hf_given_ms, p_hf_given_mf),
                FlatChange::ScaleReaderEverywhere { factor } => {
                    scenario.scale_reader_everywhere(factor)
                }
            })
    }

    /// Binds the list to `model`, resolving each distinct name once.
    fn bind(&self, model: &CompiledModel) -> CompiledScenarios {
        let slots: Vec<Result<u32, ModelError>> = self
            .names
            .iter()
            .map(|name| model.universe().resolve(name))
            .collect();
        let slot = |class: u32| slots[class as usize].clone();
        let mut sweep = CompiledScenarios::with_capacity(model, self.ends.len());
        for changes in self.scenarios() {
            let resolved = changes.iter().map(|change| {
                Ok(match *change {
                    FlatChange::ImproveMachine { class, factor } => SlotChange::ImproveMachine {
                        slot: slot(class)?,
                        factor,
                    },
                    FlatChange::SetMachineFailure { class, p_mf } => {
                        SlotChange::SetMachineFailure {
                            slot: slot(class)?,
                            p_mf,
                        }
                    }
                    FlatChange::SetReader {
                        class,
                        p_hf_given_ms,
                        p_hf_given_mf,
                    } => SlotChange::SetReader {
                        slot: slot(class)?,
                        p_hf_given_ms,
                        p_hf_given_mf,
                    },
                    FlatChange::ImproveMachineEverywhere { .. }
                    | FlatChange::ScaleReaderEverywhere { .. } => SlotChange::WholeTable,
                })
            });
            sweep.push(model, resolved, || self.scenario(changes));
        }
        sweep
    }
}

/// Parses one request line like [`parse_request`], decoding the body's
/// first top-level `scenarios` member straight into a [`FlatScenarios`]
/// instead of a [`Json`] tree.
///
/// A member whose shape [`parse_scenarios`] would reject — an empty batch,
/// a non-array scenario, an unknown op, a missing or mistyped field, a
/// probability outside `[0, 1]` — or that holds a syntax error is rewound
/// and parsed into the body as a tree, so every error, and its
/// precedence, is the one [`parse_request`] plus [`parse_scenarios`]
/// would give.
///
/// # Errors
///
/// As [`parse_request`].
pub fn decode_request(line: &str) -> Result<Request, ServeError> {
    let mut offered = false;
    let mut scenarios = None;
    let body = json::parse_with(line, |key, value| {
        // `Json::get` semantics: only the first `scenarios` counts.
        if offered || key != "scenarios" {
            return false;
        }
        offered = true;
        scenarios = decode_scenarios(value);
        scenarios.is_some()
    })
    .map_err(parse_error)?;
    Ok(Request {
        envelope: envelope(body)?,
        scenarios,
    })
}

fn parse_error(e: json::JsonError) -> ServeError {
    ServeError::Parse {
        detail: e.to_string(),
    }
}

/// Checks a parsed request object's envelope members.
fn envelope(body: Json) -> Result<Envelope, ServeError> {
    if body.as_obj().is_none() {
        return Err(ServeError::BadRequest {
            detail: "request must be a JSON object".into(),
        });
    }
    let verb = body
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest {
            detail: "missing string field `verb`".into(),
        })?
        .to_owned();
    let id = body.get("id").cloned().unwrap_or(Json::Null);
    let deadline_ms = match body.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| ServeError::BadRequest {
            detail: "`deadline_ms` must be a non-negative integer".into(),
        })?),
    };
    let trace_id = match body.get("trace_id") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .and_then(hmdiv_obs::TraceId::parse)
                .ok_or_else(|| ServeError::BadRequest {
                    detail: "`trace_id` must be a hex u64 string".into(),
                })?,
        ),
    };
    Ok(Envelope {
        id,
        verb,
        deadline_ms,
        trace_id,
        body,
    })
}

/// Renders a success response line (newline included). A client-supplied
/// trace id is echoed as a `trace_id` envelope member.
#[must_use]
pub fn ok_line(id: &Json, trace: Option<hmdiv_obs::TraceId>, result: Json) -> String {
    let mut members = vec![("id".to_owned(), id.clone())];
    if let Some(t) = trace {
        members.push(("trace_id".to_owned(), Json::str(t.to_hex())));
    }
    members.push(("ok".to_owned(), Json::Bool(true)));
    members.push(("result".to_owned(), result));
    let mut out = String::new();
    Json::Obj(members).write(&mut out);
    out.push('\n');
    out
}

/// Renders an error response line (newline included), echoing a
/// client-supplied trace id like [`ok_line`].
#[must_use]
pub fn err_line(id: &Json, trace: Option<hmdiv_obs::TraceId>, error: &ServeError) -> String {
    let mut members = vec![("id".to_owned(), id.clone())];
    if let Some(t) = trace {
        members.push(("trace_id".to_owned(), Json::str(t.to_hex())));
    }
    members.push(("ok".to_owned(), Json::Bool(false)));
    members.push(("error".to_owned(), error.to_wire()));
    let mut out = String::new();
    Json::Obj(members).write(&mut out);
    out.push('\n');
    out
}

/// A required field of the request body.
pub(crate) fn required<'a>(body: &'a Json, key: &str) -> Result<&'a Json, ServeError> {
    body.get(key).ok_or_else(|| ServeError::BadRequest {
        detail: format!("missing field `{key}`"),
    })
}

/// A required string field.
pub fn required_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ServeError> {
    required(body, key)?
        .as_str()
        .ok_or_else(|| ServeError::BadRequest {
            detail: format!("field `{key}` must be a string"),
        })
}

/// A required number field.
pub(crate) fn required_f64(body: &Json, key: &str) -> Result<f64, ServeError> {
    required(body, key)?
        .as_f64()
        .ok_or_else(|| ServeError::BadRequest {
            detail: format!("field `{key}` must be a number"),
        })
}

/// A required probability field (validated into `[0, 1]`).
fn required_prob(body: &Json, key: &str) -> Result<Probability, ServeError> {
    Probability::new(required_f64(body, key)?)
        .map_err(|e| ServeError::Model(hmdiv_core::ModelError::from(e)))
}

/// Extracts a demand profile from the request's `profile` member: a JSON
/// object mapping class name to weight, **in class order**.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on shape violations; [`ServeError::Model`]
/// for empty/duplicate/invalid-weight profiles (typed `ModelError`s).
pub fn parse_profile(body: &Json) -> Result<DemandProfile, ServeError> {
    let members = required(body, "profile")?
        .as_obj()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`profile` must be an object of class: weight".into(),
        })?;
    let mut pairs = Vec::with_capacity(members.len());
    for (class, weight) in members {
        let w = weight.as_f64().ok_or_else(|| ServeError::BadRequest {
            detail: format!("profile weight for `{class}` must be a number"),
        })?;
        pairs.push((ClassId::new(class), w));
    }
    DemandProfile::from_weights(pairs).map_err(ServeError::Model)
}

/// Extracts a sequential parameter table from the request's `classes`
/// member: `{name: {"p_mf":…, "p_hf_given_ms":…, "p_hf_given_mf":…}}`.
///
/// # Errors
///
/// As [`parse_profile`], with probability validation per parameter.
pub fn parse_model_params(body: &Json) -> Result<ModelParams, ServeError> {
    let members = required(body, "classes")?
        .as_obj()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`classes` must be an object of class: parameter triple".into(),
        })?;
    let mut builder = ModelParams::builder();
    for (class, triple) in members {
        let cp = ClassParams::new(
            required_prob(triple, "p_mf")?,
            required_prob(triple, "p_hf_given_ms")?,
            required_prob(triple, "p_hf_given_mf")?,
        );
        builder = builder.class(class.as_str(), cp);
    }
    builder.build().map_err(ServeError::Model)
}

/// Extracts a parallel-detection parameter table from `classes`:
/// `{name: {"p_mf":…, "p_h_miss":…, "p_h_misclass":…}}`.
///
/// # Errors
///
/// As [`parse_model_params`].
pub fn parse_detection_params(body: &Json) -> Result<Vec<(ClassId, DetectionParams)>, ServeError> {
    let members = required(body, "classes")?
        .as_obj()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`classes` must be an object of class: parameter triple".into(),
        })?;
    let mut out = Vec::with_capacity(members.len());
    for (class, triple) in members {
        out.push((
            ClassId::new(class),
            DetectionParams::new(
                required_prob(triple, "p_mf")?,
                required_prob(triple, "p_h_miss")?,
                required_prob(triple, "p_h_misclass")?,
            ),
        ));
    }
    Ok(out)
}

/// Extracts the optional `universe` member: `{"classes": [names…],
/// "hash": "16-hex"}` — the serialized [`UniverseManifest`] a caller pins
/// the model's index space with.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on shape violations. Integrity (ordering,
/// duplicates, hash) is checked by `UniverseManifest::restore` at load.
pub fn parse_manifest(body: &Json) -> Result<Option<UniverseManifest>, ServeError> {
    let Some(universe) = body.get("universe") else {
        return Ok(None);
    };
    let classes = universe
        .get("classes")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`universe.classes` must be an array of names".into(),
        })?;
    let names = classes
        .iter()
        .map(|c| c.as_str().map(str::to_owned))
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`universe.classes` entries must be strings".into(),
        })?;
    let hash = parse_hash(required_str(universe, "hash")?)?;
    Ok(Some(UniverseManifest::from_parts(names, hash)))
}

/// Parses a 16-digit hex content hash.
fn parse_hash(text: &str) -> Result<u64, ServeError> {
    u64::from_str_radix(text, 16).map_err(|_| ServeError::BadRequest {
        detail: format!("`hash` must be a hex u64, got `{text}`"),
    })
}

/// Renders a content hash the way the protocol expects it.
#[must_use]
pub fn render_hash(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Extracts one scenario: an array of change objects, each tagged by `op`.
///
/// Supported ops mirror [`hmdiv_core::extrapolate::Change`]:
/// `improve_machine`, `improve_machine_everywhere`, `set_machine_failure`,
/// `set_reader`, `scale_reader_everywhere`.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on shape violations or unknown ops.
pub fn parse_scenario(value: &Json) -> Result<Scenario, ServeError> {
    let changes = value.as_arr().ok_or_else(|| ServeError::BadRequest {
        detail: "a scenario must be an array of change objects".into(),
    })?;
    let mut scenario = Scenario::new();
    for change in changes {
        let op = required_str(change, "op")?;
        scenario = match op {
            "improve_machine" => scenario.improve_machine(
                ClassId::new(required_str(change, "class")?),
                required_f64(change, "factor")?,
            ),
            "improve_machine_everywhere" => {
                scenario.improve_machine_everywhere(required_f64(change, "factor")?)
            }
            "set_machine_failure" => scenario.set_machine_failure(
                ClassId::new(required_str(change, "class")?),
                required_prob(change, "p_mf")?,
            ),
            "set_reader" => scenario.set_reader(
                ClassId::new(required_str(change, "class")?),
                required_prob(change, "p_hf_given_ms")?,
                required_prob(change, "p_hf_given_mf")?,
            ),
            "scale_reader_everywhere" => {
                scenario.scale_reader_everywhere(required_f64(change, "factor")?)
            }
            other => {
                return Err(ServeError::BadRequest {
                    detail: format!("unknown scenario op `{other}`"),
                })
            }
        };
    }
    Ok(scenario)
}

/// Extracts the `scenarios` member: an array of scenarios.
///
/// # Errors
///
/// As [`parse_scenario`]; an empty batch is rejected.
pub fn parse_scenarios(body: &Json) -> Result<Vec<Scenario>, ServeError> {
    let items = required(body, "scenarios")?
        .as_arr()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`scenarios` must be an array of scenarios".into(),
        })?;
    if items.is_empty() {
        return Err(ServeError::BadRequest {
            detail: "`scenarios` must not be empty".into(),
        });
    }
    items.iter().map(parse_scenario).collect()
}

/// A shape the typed scenario decoder does not handle (or a syntax
/// error): the member is rewound and parsed as a tree instead.
struct Mismatch;

impl From<json::JsonError> for Mismatch {
    fn from(_: json::JsonError) -> Self {
        Mismatch
    }
}

/// A scalar member value as the typed decoder sees it.
enum Scalar<'a> {
    Str(Cow<'a, str>),
    Num(f64),
    Other,
}

impl Scalar<'_> {
    fn read<'a>(value: Cursor<'a, '_>) -> Result<Scalar<'a>, json::JsonError> {
        match value.peek() {
            Some(b'"') => value.str().map(Scalar::Str),
            Some(b'-' | b'0'..=b'9') => value.num().map(Scalar::Num),
            _ => value.skip().map(|()| Scalar::Other),
        }
    }
}

/// The members a change object may carry, in [`parse_scenario`]'s terms.
const CHANGE_FIELDS: [&str; 6] = [
    "op",
    "class",
    "factor",
    "p_mf",
    "p_hf_given_ms",
    "p_hf_given_mf",
];

/// Decodes a `scenarios` value into the list [`parse_scenarios`] would
/// return for it, or `None` when it would return an error.
fn decode_scenarios(value: Cursor<'_, '_>) -> Option<FlatScenarios> {
    let mut names = Names::default();
    let mut changes = Vec::new();
    let mut ends = Vec::new();
    value
        .array(|scenario| {
            scenario.array(|change| {
                changes.push(decode_change(change, &mut names)?);
                Ok::<(), Mismatch>(())
            })?;
            ends.push(changes.len());
            Ok::<(), Mismatch>(())
        })
        .ok()?;
    (!ends.is_empty()).then(|| FlatScenarios {
        names: names.into_table(),
        changes,
        ends,
    })
}

/// The per-request class-name table: each distinct name is stored once
/// and changes refer to it by index. It keeps the default (keyed) hasher
/// because the names come from clients.
#[derive(Default)]
struct Names<'a> {
    index: HashMap<Cow<'a, str>, u32>,
}

impl<'a> Names<'a> {
    fn intern(&mut self, name: Cow<'a, str>) -> Result<u32, Mismatch> {
        let next = u32::try_from(self.index.len()).map_err(|_| Mismatch)?;
        Ok(*self.index.entry(name).or_insert(next))
    }

    /// The names in index order.
    fn into_table(self) -> Vec<String> {
        let mut table = vec![String::new(); self.index.len()];
        for (name, i) in self.index {
            table[i as usize] = name.into_owned();
        }
        table
    }
}

/// Decodes one change object. Like `Json::get`, the first occurrence of a
/// key wins; later duplicates and unknown members are validated and
/// skipped.
fn decode_change<'a>(value: Cursor<'a, '_>, names: &mut Names<'a>) -> Result<FlatChange, Mismatch> {
    let mut fields: [Option<Scalar<'a>>; 6] = Default::default();
    value.object(|key, member| {
        match CHANGE_FIELDS.iter().position(|f| *f == key) {
            Some(i) if fields[i].is_none() => fields[i] = Some(Scalar::read(member)?),
            _ => member.skip()?,
        }
        Ok::<(), Mismatch>(())
    })?;
    let [op, class, factor, p_mf, p_hf_given_ms, p_hf_given_mf] = fields;
    let class = || match class {
        Some(Scalar::Str(name)) => names.intern(name),
        _ => Err(Mismatch),
    };
    let num = |field: Option<Scalar<'_>>| match field {
        Some(Scalar::Num(v)) => Ok(v),
        _ => Err(Mismatch),
    };
    let prob = |field| Probability::new(num(field)?).map_err(|_| Mismatch);
    let Some(Scalar::Str(op)) = op else {
        return Err(Mismatch);
    };
    Ok(match &*op {
        "improve_machine" => FlatChange::ImproveMachine {
            class: class()?,
            factor: num(factor)?,
        },
        "improve_machine_everywhere" => FlatChange::ImproveMachineEverywhere {
            factor: num(factor)?,
        },
        "set_machine_failure" => FlatChange::SetMachineFailure {
            class: class()?,
            p_mf: prob(p_mf)?,
        },
        "set_reader" => FlatChange::SetReader {
            class: class()?,
            p_hf_given_ms: prob(p_hf_given_ms)?,
            p_hf_given_mf: prob(p_hf_given_mf)?,
        },
        "scale_reader_everywhere" => FlatChange::ScaleReaderEverywhere {
            factor: num(factor)?,
        },
        _ => return Err(Mismatch),
    })
}

/// Extracts the `members` array of a cohort request: each entry carries a
/// `name`, a `weight`, and the full per-class parameter map of a
/// sequential model. Shared by the `load_cohort` verb and snapshot
/// restore, so both paths accept exactly the same shape.
///
/// # Errors
///
/// [`ServeError::BadRequest`] when `members` is missing, not an array, or
/// an entry violates the member shape.
pub fn parse_cohort_members(body: &Json) -> Result<Vec<CohortMember>, ServeError> {
    let members = required(body, "members")?
        .as_arr()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`members` must be an array".to_owned(),
        })?;
    let mut parsed = Vec::with_capacity(members.len());
    for member in members {
        parsed.push(CohortMember {
            name: required_str(member, "name")?.to_owned(),
            weight: required_f64(member, "weight")?,
            model: SequentialModel::new(parse_model_params(member)?),
        });
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn envelope_round_trip_and_defaults() {
        let env = parse_request(r#"{"id":7,"verb":"ping"}"#).unwrap();
        assert_eq!(env.verb, "ping");
        assert_eq!(env.id, Json::Num(7.0));
        assert_eq!(env.deadline_ms, None);
        assert_eq!(env.trace_id, None);
        let env = parse_request(r#"{"verb":"ping","deadline_ms":250}"#).unwrap();
        assert_eq!(env.id, Json::Null);
        assert_eq!(env.deadline_ms, Some(250));
    }

    #[test]
    fn trace_ids_parse_and_reject_non_hex() {
        let env = parse_request(r#"{"verb":"ping","trace_id":"00000000000000ff"}"#).unwrap();
        assert_eq!(env.trace_id, Some(hmdiv_obs::TraceId(255)));
        assert!(matches!(
            parse_request(r#"{"verb":"ping","trace_id":"not-hex"}"#),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_request(r#"{"verb":"ping","trace_id":7}"#),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn envelope_rejections_are_typed() {
        assert!(matches!(
            parse_request("not json"),
            Err(ServeError::Parse { .. })
        ));
        assert!(matches!(
            parse_request("[1,2]"),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_request(r#"{"id":1}"#),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_request(r#"{"verb":"ping","deadline_ms":-1}"#),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn response_lines_are_golden() {
        assert_eq!(
            ok_line(
                &Json::Num(1.0),
                None,
                Json::Obj(vec![("pong".into(), Json::Bool(true))])
            ),
            "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}\n"
        );
        assert_eq!(
            err_line(&Json::Num(2.0), None, &ServeError::DeadlineExceeded),
            "{\"id\":2,\"ok\":false,\"error\":{\"code\":\"deadline_exceeded\",\
             \"message\":\"deadline expired before evaluation\"}}\n"
        );
        // A trace id echoes between `id` and `ok`, zero-padded hex.
        assert_eq!(
            ok_line(
                &Json::Num(3.0),
                Some(hmdiv_obs::TraceId(255)),
                Json::Obj(vec![("pong".into(), Json::Bool(true))])
            ),
            "{\"id\":3,\"trace_id\":\"00000000000000ff\",\"ok\":true,\
             \"result\":{\"pong\":true}}\n"
        );
        assert_eq!(
            err_line(
                &Json::Num(4.0),
                Some(hmdiv_obs::TraceId(16)),
                &ServeError::DeadlineExceeded
            ),
            "{\"id\":4,\"trace_id\":\"0000000000000010\",\"ok\":false,\
             \"error\":{\"code\":\"deadline_exceeded\",\
             \"message\":\"deadline expired before evaluation\"}}\n"
        );
    }

    #[test]
    fn profile_preserves_wire_order() {
        let body = json::parse(r#"{"profile":{"easy":0.9,"difficult":0.1}}"#).unwrap();
        let profile = parse_profile(&body).unwrap();
        let order: Vec<&str> = profile.classes().iter().map(ClassId::name).collect();
        assert_eq!(order, ["easy", "difficult"], "wire order, not sorted");
        // Reversed wire order yields the reversed profile order.
        let body = json::parse(r#"{"profile":{"difficult":0.1,"easy":0.9}}"#).unwrap();
        let profile = parse_profile(&body).unwrap();
        let order: Vec<&str> = profile.classes().iter().map(ClassId::name).collect();
        assert_eq!(order, ["difficult", "easy"]);
    }

    #[test]
    fn profile_errors_are_model_typed() {
        let dup = json::parse(r#"{"profile":{"easy":0.5,"easy":0.5}}"#).unwrap();
        assert!(matches!(
            parse_profile(&dup),
            Err(ServeError::Model(
                hmdiv_core::ModelError::DuplicateClass { .. }
            ))
        ));
        let empty = json::parse(r#"{"profile":{}}"#).unwrap();
        assert!(matches!(
            parse_profile(&empty),
            Err(ServeError::Model(hmdiv_core::ModelError::Empty { .. }))
        ));
        let shape = json::parse(r#"{"profile":[1]}"#).unwrap();
        assert!(matches!(
            parse_profile(&shape),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn model_params_parse_the_paper_table() {
        let body = json::parse(
            r#"{"classes":{
                "easy":{"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
                "difficult":{"p_mf":0.41,"p_hf_given_ms":0.4,"p_hf_given_mf":0.9}
            }}"#,
        )
        .unwrap();
        let params = parse_model_params(&body).unwrap();
        assert_eq!(
            &params,
            hmdiv_core::paper::example_model().unwrap().params()
        );
        let invalid = json::parse(
            r#"{"classes":{"easy":{"p_mf":1.5,"p_hf_given_ms":0.1,"p_hf_given_mf":0.2}}}"#,
        )
        .unwrap();
        assert!(matches!(
            parse_model_params(&invalid),
            Err(ServeError::Model(hmdiv_core::ModelError::Prob(_)))
        ));
    }

    #[test]
    fn manifest_round_trips_through_the_wire_shape() {
        let universe = hmdiv_core::ClassUniverse::from_names(["difficult", "easy"]);
        let manifest = UniverseManifest::of(&universe);
        let wire = format!(
            r#"{{"universe":{{"classes":["difficult","easy"],"hash":"{}"}}}}"#,
            render_hash(manifest.hash())
        );
        let body = json::parse(&wire).unwrap();
        let parsed = parse_manifest(&body).unwrap().unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.restore().unwrap(), universe);
        // Absent member is simply None.
        assert_eq!(parse_manifest(&json::parse("{}").unwrap()).unwrap(), None);
        // Bad hex is a bad request, not a panic.
        let bad = json::parse(r#"{"universe":{"classes":["a"],"hash":"zz"}}"#).unwrap();
        assert!(matches!(
            parse_manifest(&bad),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn scenarios_parse_every_op() {
        let body = json::parse(
            r#"{"scenarios":[
                [{"op":"improve_machine","class":"difficult","factor":10}],
                [{"op":"improve_machine_everywhere","factor":2}],
                [{"op":"set_machine_failure","class":"easy","p_mf":0.01}],
                [{"op":"set_reader","class":"easy","p_hf_given_ms":0.1,"p_hf_given_mf":0.2}],
                [{"op":"scale_reader_everywhere","factor":1.5}],
                []
            ]}"#,
        )
        .unwrap();
        let scenarios = parse_scenarios(&body).unwrap();
        assert_eq!(scenarios.len(), 6);
        assert_eq!(scenarios[5], Scenario::new());
        assert_eq!(scenarios[0].changes().len(), 1);
        let unknown = json::parse(r#"{"scenarios":[[{"op":"warp","factor":2}]]}"#).unwrap();
        assert!(matches!(
            parse_scenarios(&unknown),
            Err(ServeError::BadRequest { detail }) if detail.contains("warp")
        ));
        let empty = json::parse(r#"{"scenarios":[]}"#).unwrap();
        assert!(parse_scenarios(&empty).is_err());
    }

    /// The typed decode of `line` next to the tree path's answer.
    fn both_paths(line: &str) -> (Result<Vec<Scenario>, ServeError>, Request) {
        let tree = parse_request(line).and_then(|env| parse_scenarios(&env.body));
        let request = decode_request(line).unwrap();
        (tree, request)
    }

    #[test]
    fn scenarios_decode_typed_with_get_semantics() {
        let line = r#"{"verb":"scenarios","scenarios":[
            [{"op":"improve_machine","class":"diff\u0069cult","factor":10,"note":{"x":[1,null]}}],
            [{"factor":2,"op":"improve_machine_everywhere","factor":"ignored"}],
            [{"op":"set_machine_failure","op":"warp","class":"easy","p_mf":0.01}],
            [{"op":"set_reader","class":"easy","p_hf_given_ms":0.1,"p_hf_given_mf":0.2,"class":7}],
            [{"op":"scale_reader_everywhere","factor":1.5}],
            []
        ],"scenarios":"a later duplicate","id":3}"#;
        let (tree, mut request) = both_paths(line);
        assert!(request.scenarios.is_some(), "decoded without a tree");
        assert_eq!(request.take_scenarios(), tree);
        let scenarios = tree.unwrap();
        assert_eq!(scenarios.len(), 6);
        assert_eq!(
            scenarios[0],
            Scenario::new().improve_machine(ClassId::new("difficult"), 10.0)
        );
        // The decoded member is left out of the body; the rest survives.
        let body = &request.envelope.body;
        assert_eq!(body.get("scenarios"), Some(&Json::str("a later duplicate")));
        assert_eq!(request.envelope.id, Json::Num(3.0));
    }

    #[test]
    fn scenario_shape_faults_fall_back_to_the_tree_and_its_errors() {
        for scenarios in [
            "[]",
            "{}",
            "[{}]",
            "[[5]]",
            "[[{}]]",
            r#"[[{"op":"warp","factor":2}]]"#,
            r#"[[{"op":7}]]"#,
            r#"[[{"op":"improve_machine","factor":2}]]"#,
            r#"[[{"op":"improve_machine","class":1,"factor":2}]]"#,
            r#"[[{"op":"improve_machine_everywhere","factor":"2"}]]"#,
            r#"[[{"op":"set_machine_failure","class":"a","p_mf":1.5}]]"#,
            r#"[[{"op":"set_reader","class":"a","p_hf_given_ms":-0.1,"p_hf_given_mf":0}]]"#,
        ] {
            let line = format!(r#"{{"verb":"scenarios","scenarios":{scenarios}}}"#);
            let (tree, mut request) = both_paths(&line);
            assert!(tree.is_err(), "{scenarios}");
            assert_eq!(request.scenarios, None, "{scenarios}");
            assert_eq!(request.take_scenarios(), tree, "{scenarios}");
        }
        // Syntax errors inside the member come from the tree parser, with
        // its offsets.
        for line in [
            r#"{"verb":"scenarios","scenarios":[[{"op":"improve_machine","factor":01}]]}"#,
            r#"{"verb":"scenarios","scenarios":[[{"op":"improve_machine","factor":1}]}"#,
            r#"{"verb":"scenarios","scenarios":[[{"op":"x\q"}]]}"#,
        ] {
            assert_eq!(
                decode_request(line).unwrap_err(),
                parse_request(line).unwrap_err(),
                "{line}"
            );
        }
    }

    #[test]
    fn detection_params_parse() {
        let body =
            json::parse(r#"{"classes":{"easy":{"p_mf":0.07,"p_h_miss":0.2,"p_h_misclass":0.05}}}"#)
                .unwrap();
        let parsed = parse_detection_params(&body).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0.name(), "easy");
    }

    #[test]
    fn cohort_members_parse_and_reject_bad_shapes() {
        let body = json::parse(
            r#"{"members":[
                {"name":"alice","weight":2.0,
                 "classes":{"easy":{"p_mf":0.07,"p_hf_given_ms":0.003,"p_hf_given_mf":0.4}}},
                {"name":"bob","weight":1.0,
                 "classes":{"easy":{"p_mf":0.07,"p_hf_given_ms":0.01,"p_hf_given_mf":0.5}}}
            ]}"#,
        )
        .unwrap();
        let members = parse_cohort_members(&body).unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].name, "alice");
        assert_eq!(members[0].weight, 2.0);
        let not_array = json::parse(r#"{"members":{}}"#).unwrap();
        assert!(matches!(
            parse_cohort_members(&not_array),
            Err(ServeError::BadRequest { .. })
        ));
        let missing_weight = json::parse(r#"{"members":[{"name":"a","classes":{}}]}"#).unwrap();
        assert!(parse_cohort_members(&missing_weight).is_err());
    }

    #[test]
    fn line_reader_frames_across_split_pushes() {
        let mut reader = LineReader::new(64);
        reader.push(b"{\"verb\":\"pi");
        assert_eq!(reader.next_event(), None);
        reader.push(b"ng\"}\r\n{\"verb\"");
        assert_eq!(
            reader.next_event(),
            Some(LineEvent::Line("{\"verb\":\"ping\"}".into()))
        );
        assert_eq!(reader.next_event(), None);
        reader.push(b":\"metrics\"}\n");
        assert_eq!(
            reader.next_event(),
            Some(LineEvent::Line("{\"verb\":\"metrics\"}".into()))
        );
        assert_eq!(reader.next_event(), None);
    }

    #[test]
    fn line_reader_trickles_one_byte_at_a_time() {
        let mut reader = LineReader::new(32);
        for &b in b"hello" {
            reader.push(&[b]);
            assert_eq!(reader.next_event(), None);
        }
        reader.push(b"\n");
        assert_eq!(reader.next_event(), Some(LineEvent::Line("hello".into())));
    }

    #[test]
    fn line_reader_splits_utf8_across_pushes_and_flags_invalid() {
        // "é" is 0xC3 0xA9 — split the codepoint across two pushes.
        let mut reader = LineReader::new(32);
        reader.push(&[0xC3]);
        assert_eq!(reader.next_event(), None);
        reader.push(&[0xA9, b'\n']);
        assert_eq!(reader.next_event(), Some(LineEvent::Line("é".into())));
        // A lone continuation byte in a complete line is invalid UTF-8 but
        // does not break framing: the next line still parses.
        reader.push(&[0xA9, b'\n', b'o', b'k', b'\n']);
        assert_eq!(reader.next_event(), Some(LineEvent::InvalidUtf8));
        assert_eq!(reader.next_event(), Some(LineEvent::Line("ok".into())));
    }

    /// Every event the reader yields for `stream` pushed in `chunk`-byte
    /// pieces, draining after each push.
    fn events_in_chunks(stream: &[u8], chunk: usize, limit: usize) -> Vec<LineEvent> {
        let mut reader = LineReader::new(limit);
        let mut events = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.push(piece);
            while let Some(event) = reader.next_event() {
                events.push(event);
            }
            assert!(
                reader.buffered() <= limit,
                "a drained reader holds at most a partial line"
            );
        }
        events
    }

    #[test]
    fn line_reader_events_do_not_depend_on_chunking() {
        let limit = 16;
        let mut stream = Vec::new();
        stream.extend_from_slice(b"{\"verb\":\"ping\"}\r\n");
        stream.extend_from_slice(b"\n"); // an empty line
        stream.extend_from_slice(b"exactly-sixteen!\n"); // at the limit
        stream.extend_from_slice(b"seventeen-bytes!!\n"); // one over
        stream.extend_from_slice(b"fifteen-bytes!!\r\n"); // at the limit with CR
        stream.extend_from_slice(b"sixteen-bytes!!!\r\n"); // CR pushes it over
        stream.extend_from_slice(&[b'x'; 40]); // resync across pushes
        stream.extend_from_slice(b"\nafter\n");
        stream.extend_from_slice(&[0xC3, 0xA9, b'\n']); // "é"
        stream.extend_from_slice(&[0xA9, b'o', b'k', b'\n']); // invalid UTF-8

        // A newline at every offset of the first two 8-byte words scanned.
        for len in 0..16 {
            stream.extend(std::iter::repeat_n(b'a', len));
            stream.push(b'\n');
        }
        // Newlines right after bytes >= 0x80, including 0x8A, which is `\n`
        // with the top bit set.
        stream.extend_from_slice("éééé\n".as_bytes());
        stream.extend_from_slice(&[0xCA, 0x8A, b'\n']); // "ʊ"
        stream.extend_from_slice(&[b'x', 0xFF, 0x8A, b'\n']); // invalid UTF-8
        stream.extend_from_slice(&[0x8A; 9]);
        stream.push(b'\n'); // invalid UTF-8
        stream.extend_from_slice(b"partial");
        let mut expected = vec![
            LineEvent::Line("{\"verb\":\"ping\"}".into()),
            LineEvent::Line(String::new()),
            LineEvent::Line("exactly-sixteen!".into()),
            LineEvent::TooLong { limit },
            LineEvent::Line("fifteen-bytes!!".into()),
            LineEvent::TooLong { limit },
            LineEvent::TooLong { limit },
            LineEvent::Line("after".into()),
            LineEvent::Line("é".into()),
            LineEvent::InvalidUtf8,
        ];
        expected.extend((0..16).map(|len| LineEvent::Line("a".repeat(len))));
        expected.extend([
            LineEvent::Line("éééé".into()),
            LineEvent::Line("ʊ".into()),
            LineEvent::InvalidUtf8,
            LineEvent::InvalidUtf8,
        ]);
        assert_eq!(events_in_chunks(&stream, stream.len(), limit), expected);
        for chunk in [1, 2, 3, 5, 7, 16, 17, 64] {
            assert_eq!(
                events_in_chunks(&stream, chunk, limit),
                expected,
                "chunk {chunk}"
            );
        }
        // Seeded random splits, several pushes between drains included.
        let mut rng = hmdiv_prob::par::stream_rng(0x11e5, 0);
        for _ in 0..200 {
            let mut reader = LineReader::new(limit);
            let mut events = Vec::new();
            let mut at = 0;
            while at < stream.len() {
                let end = (at + rng.gen_range(1..24_usize)).min(stream.len());
                reader.push(&stream[at..end]);
                at = end;
                if rng.gen_bool(0.7) {
                    while let Some(event) = reader.next_event() {
                        events.push(event);
                    }
                }
            }
            while let Some(event) = reader.next_event() {
                events.push(event);
            }
            assert_eq!(events, expected);
        }
    }

    #[test]
    fn find_newline_matches_a_byte_scan() {
        let mut rng = hmdiv_prob::par::stream_rng(0x0a0a, 0);
        for len in 0..40 {
            for _ in 0..200 {
                // Half the bytes are newlines, 0x8A (`\n` with the top bit
                // set) or `\n` with one bit flipped; the rest are random.
                let bytes: Vec<u8> = (0..len)
                    .map(|_| match rng.gen_range(0..6_u32) {
                        0 => b'\n',
                        1 => 0x8A,
                        2 => b'\n' ^ (1 << rng.gen_range(0..8_u32)),
                        _ => rng.gen_range(0..=255_u8),
                    })
                    .collect();
                let expected = bytes.iter().position(|&b| b == b'\n');
                assert_eq!(find_newline(&bytes), expected, "{bytes:?}");
            }
        }
    }

    #[test]
    fn line_reader_reports_too_long_once_and_resyncs() {
        let mut reader = LineReader::new(4);
        // Unterminated overflow: reported as soon as it is provable, then
        // the reader silently discards until the newline arrives.
        reader.push(b"aaaaaaaa");
        assert_eq!(reader.next_event(), Some(LineEvent::TooLong { limit: 4 }));
        assert_eq!(reader.next_event(), None);
        reader.push(b"aaaa");
        assert_eq!(reader.next_event(), None, "still inside the bad line");
        assert_eq!(reader.buffered(), 0, "resync keeps memory flat");
        reader.push(b"a\nok\n");
        assert_eq!(reader.next_event(), Some(LineEvent::Line("ok".into())));
        // Terminated overflow in a single push: one event, framing intact.
        reader.push(b"bbbbbbbb\nfine\n");
        assert_eq!(reader.next_event(), Some(LineEvent::TooLong { limit: 4 }));
        assert_eq!(reader.next_event(), Some(LineEvent::Line("fine".into())));
        assert_eq!(reader.next_event(), None);
    }
}
