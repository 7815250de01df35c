//! Request-lifecycle tracing: trace ids, per-stage span timings with
//! parent links, and a fixed-capacity **flight recorder** of completed
//! request records.
//!
//! The paper's assessment argument attributes outcomes to stages of a
//! human–machine pipeline; this module gives the serving stack the same
//! per-case attribution. A request is minted a [`TraceId`] at admission
//! (or carries a client-supplied one on the wire), every pipeline stage
//! stamps its start offset and duration into a shared [`StageSet`], and
//! the completed [`RequestRecord`] — verb, model id, batch size, queue
//! depth at admission, per-stage nanoseconds, and outcome — lands in a
//! [`FlightRecorder`]: a bounded ring that keeps the most recent records
//! for postmortem drains (the serve `trace` verb) and automatic dumps on
//! shed events.
//!
//! **Recording never blocks recording.** Each ring slot is guarded by a
//! `try_lock`; a writer that loses the race drops its record and bumps a
//! `contended` counter instead of waiting. Writers therefore never stall
//! the request path, and the ring's memory is fixed at construction.
//!
//! Tracing is a *pure observer*: it reads the monotonic clock and writes
//! side records, but never touches evaluation inputs — traced and
//! untraced runs produce bit-identical results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A process-unique request trace id.
///
/// Ids mint from a process-local counter starting at 1 (0 is reserved as
/// "absent"); clients may instead supply their own on the wire, carried
/// verbatim. Rendered as 16-digit hex, same convention as content hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// The mint counter behind [`TraceId::mint`].
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

impl TraceId {
    /// Mints the next process-unique id.
    #[must_use]
    pub fn mint() -> TraceId {
        TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Renders as the wire form: 16 hex digits.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire form (any valid hex u64, not only zero-padded).
    #[must_use]
    pub fn parse(text: &str) -> Option<TraceId> {
        u64::from_str_radix(text, 16).ok().map(TraceId)
    }
}

/// The canonical request-pipeline stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Socket bytes arriving until the request line framed.
    Read = 0,
    /// Envelope + body parsing and verb routing.
    Parse = 1,
    /// From admission against the evaluation bound to the start of
    /// evaluation.
    Queue = 2,
    /// Batch formation (zero-length when each request is evaluated
    /// alone).
    Batch = 3,
    /// The dense evaluation (or inline verb work).
    Eval = 4,
    /// Rendering the response line.
    Serialize = 5,
    /// Writing and flushing the socket.
    Write = 6,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Read,
        Stage::Parse,
        Stage::Queue,
        Stage::Batch,
        Stage::Eval,
        Stage::Serialize,
        Stage::Write,
    ];

    /// The stage's stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Read => "read",
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Batch => "batch",
            Stage::Eval => "eval",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }
}

/// How a traced request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The request succeeded.
    Ok,
    /// Shed by the bounded queue (`overloaded` on the wire).
    Overloaded,
    /// The deadline expired before evaluation (`deadline_exceeded`).
    DeadlineExceeded,
    /// Refused by the static-analysis admission gate; carries the stable
    /// `HM0xx` diagnostic code.
    Rejected(String),
    /// Any other error, carrying its stable wire code.
    Error(String),
}

impl TraceOutcome {
    /// The outcome's stable label: `ok`, `overloaded`,
    /// `deadline_exceeded`, the `HM0xx` code, or the wire error code.
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Overloaded => "overloaded",
            TraceOutcome::DeadlineExceeded => "deadline_exceeded",
            TraceOutcome::Rejected(code) | TraceOutcome::Error(code) => code,
        }
    }

    /// Whether this outcome is a shed or deadline event — the triggers
    /// for an automatic flight-recorder dump.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            TraceOutcome::Overloaded | TraceOutcome::DeadlineExceeded
        )
    }
}

/// Packed (start offset, duration) cell; `u64::MAX` start means "never
/// stamped". Offsets are nanoseconds from the request's receipt instant,
/// so every stamp shares one monotonic origin.
struct StageCell {
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

/// Per-request stage stamps, safe to fill from several threads (the
/// server's poller shard fills every stage of the requests it answers).
pub struct StageSet {
    origin: Instant,
    cells: [StageCell; 7],
    batch_size: AtomicU64,
    queue_depth: AtomicU64,
}

impl std::fmt::Debug for StageSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageSet")
            .field("stages", &self.finish())
            .finish_non_exhaustive()
    }
}

/// Nanoseconds between two instants, saturating into `u64`.
fn ns_between(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
}

impl StageSet {
    /// A fresh set whose stage offsets are measured from `origin` (the
    /// instant the request was received).
    #[must_use]
    pub fn new(origin: Instant) -> StageSet {
        StageSet {
            origin,
            cells: std::array::from_fn(|_| StageCell {
                start_ns: AtomicU64::new(u64::MAX),
                dur_ns: AtomicU64::new(0),
            }),
            batch_size: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
        }
    }

    /// Stamps `stage` as spanning `start..end` on the shared monotonic
    /// origin. Last stamp wins.
    pub fn stamp(&self, stage: Stage, start: Instant, end: Instant) {
        let cell = &self.cells[stage as usize];
        cell.start_ns
            .store(ns_between(self.origin, start), Ordering::Relaxed);
        cell.dur_ns.store(ns_between(start, end), Ordering::Relaxed);
    }

    /// Stamps `stage` as spanning `start` until now.
    pub fn stamp_since(&self, stage: Stage, start: Instant) {
        self.stamp(stage, start, Instant::now());
    }

    /// Records the dense-batch size this request was evaluated in.
    pub fn set_batch_size(&self, size: u64) {
        self.batch_size.store(size, Ordering::Relaxed);
    }

    /// Records the queue depth observed at admission.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// The request's receipt instant (the span origin).
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Reads the stamped spans out, in pipeline order. Unstamped stages
    /// yield `None`.
    #[must_use]
    pub fn finish(&self) -> [Option<StageSpan>; 7] {
        std::array::from_fn(|i| {
            let start_ns = self.cells[i].start_ns.load(Ordering::Relaxed);
            if start_ns == u64::MAX {
                return None;
            }
            Some(StageSpan {
                stage: Stage::ALL[i],
                start_ns,
                dur_ns: self.cells[i].dur_ns.load(Ordering::Relaxed),
            })
        })
    }

    /// The recorded batch size (0 until stamped).
    #[must_use]
    pub fn batch_size(&self) -> u64 {
        self.batch_size.load(Ordering::Relaxed)
    }

    /// The recorded admission queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }
}

/// One stamped stage: its start offset from request receipt and its
/// duration, both in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Which stage.
    pub stage: Stage,
    /// Nanoseconds from request receipt to stage start.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
}

/// A parented span row in a trace tree; see [`RequestRecord::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span id within the trace (root is 0).
    pub id: u32,
    /// Parent span id; `None` for the root.
    pub parent: Option<u32>,
    /// The span name (verb for the root, stage name for children).
    pub name: String,
    /// Nanoseconds from request receipt to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// One completed request, as the flight recorder keeps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// The request's trace id (minted or client-supplied).
    pub trace_id: TraceId,
    /// The verb served.
    pub verb: String,
    /// The content-addressed model id the request named, if any.
    pub model: Option<String>,
    /// Dense-batch size the evaluation ran in (1 for inline work, 0 when
    /// the request never reached evaluation).
    pub batch_size: u64,
    /// Executor queue depth observed at admission.
    pub queue_depth: u64,
    /// Stamped stage spans, pipeline order; unstamped stages are `None`.
    pub stages: [Option<StageSpan>; 7],
    /// How the request ended.
    pub outcome: TraceOutcome,
}

impl RequestRecord {
    /// Total traced nanoseconds: the extent from receipt to the end of
    /// the last stamped stage.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.stages
            .iter()
            .flatten()
            .map(|s| s.start_ns.saturating_add(s.dur_ns))
            .max()
            .unwrap_or(0)
    }

    /// The span tree: a root span named after the verb covering the whole
    /// request, with one child per stamped stage linked to it by parent
    /// id — the shape tracing UIs and the serve `trace` verb render.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanNode> {
        let mut out = Vec::with_capacity(8);
        out.push(SpanNode {
            id: 0,
            parent: None,
            name: self.verb.clone(),
            start_ns: 0,
            dur_ns: self.total_ns(),
        });
        for (next, span) in (1u32..).zip(self.stages.iter().flatten()) {
            out.push(SpanNode {
                id: next,
                parent: Some(0),
                name: span.stage.name().to_owned(),
                start_ns: span.start_ns,
                dur_ns: span.dur_ns,
            });
        }
        out
    }
}

/// A sequenced ring slot.
struct Slot {
    seq: u64,
    record: RequestRecord,
}

/// A fixed-capacity ring of the most recent [`RequestRecord`]s.
///
/// Writers claim a global sequence number with one `fetch_add` and write
/// into `seq % capacity` under a per-slot `try_lock`, so recording never
/// blocks: a writer that collides with a drain (or another writer on the
/// same slot) drops its record and bumps [`contended`](Self::contended)
/// instead of waiting. Memory is fixed at construction.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Slot>>>,
    cursor: AtomicU64,
    recorded: AtomicU64,
    contended: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder keeping the `capacity` most recent records
    /// (`capacity` is clamped to at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// The fixed slot count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever accepted (including ones since overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records dropped because their slot was contended at write time.
    #[must_use]
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Appends a record, overwriting the oldest once the ring is full.
    /// Never blocks: a contended slot drops the record instead.
    pub fn record(&self, record: RequestRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        let idx = (seq % self.slots.len() as u64) as usize;
        match self.slots[idx].try_lock() {
            Ok(mut slot) => {
                *slot = Some(Slot { seq, record });
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Copies the current contents without consuming them, oldest first.
    #[must_use]
    pub fn peek(&self) -> Vec<RequestRecord> {
        self.collect(false)
    }

    /// Removes and returns the current contents, oldest first.
    pub fn drain(&self) -> Vec<RequestRecord> {
        self.collect(true)
    }

    fn collect(&self, take: bool) -> Vec<RequestRecord> {
        let mut rows: Vec<Slot> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let mut guard = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if take {
                if let Some(s) = guard.take() {
                    rows.push(s);
                }
            } else if let Some(s) = guard.as_ref() {
                rows.push(Slot {
                    seq: s.seq,
                    record: s.record.clone(),
                });
            }
        }
        rows.sort_by_key(|s| s.seq);
        rows.into_iter().map(|s| s.record).collect()
    }

    /// Records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .is_some()
            })
            .count()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record(n: u64) -> RequestRecord {
        RequestRecord {
            trace_id: TraceId(n),
            verb: "evaluate".into(),
            model: Some("m0".into()),
            batch_size: 1,
            queue_depth: 0,
            stages: [None; 7],
            outcome: TraceOutcome::Ok,
        }
    }

    #[test]
    fn trace_ids_mint_monotonically_and_round_trip_hex() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert!(b.0 > a.0);
        assert_eq!(TraceId::parse(&a.to_hex()), Some(a));
        assert_eq!(a.to_hex().len(), 16);
        assert_eq!(TraceId::parse("zz"), None);
        assert_eq!(TraceId::parse("ff"), Some(TraceId(255)));
    }

    #[test]
    fn stage_set_stamps_offsets_from_one_origin() {
        let origin = Instant::now();
        let set = StageSet::new(origin);
        let start = origin + Duration::from_micros(5);
        let end = start + Duration::from_micros(10);
        set.stamp(Stage::Eval, start, end);
        set.set_batch_size(4);
        set.set_queue_depth(2);
        let spans = set.finish();
        assert!(spans[Stage::Read as usize].is_none());
        let eval = spans[Stage::Eval as usize].expect("stamped");
        assert_eq!(eval.stage, Stage::Eval);
        assert_eq!(eval.start_ns, 5_000);
        assert_eq!(eval.dur_ns, 10_000);
        assert_eq!(set.batch_size(), 4);
        assert_eq!(set.queue_depth(), 2);
        // Stamps from before the origin saturate to zero, not underflow.
        set.stamp(Stage::Read, origin - Duration::from_secs(1), origin);
        assert_eq!(set.finish()[0].unwrap().start_ns, 0);
    }

    #[test]
    fn span_tree_links_children_to_the_root() {
        let origin = Instant::now();
        let set = StageSet::new(origin);
        set.stamp(
            Stage::Parse,
            origin + Duration::from_nanos(100),
            origin + Duration::from_nanos(300),
        );
        set.stamp(
            Stage::Eval,
            origin + Duration::from_nanos(400),
            origin + Duration::from_nanos(900),
        );
        let rec = RequestRecord {
            stages: set.finish(),
            ..record(1)
        };
        assert_eq!(rec.total_ns(), 900);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id, 0);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].name, "evaluate");
        assert_eq!(spans[0].dur_ns, 900);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(spans[1].name, "parse");
        assert_eq!(spans[2].name, "eval");
    }

    #[test]
    fn ring_keeps_the_most_recent_records_in_order() {
        let ring = FlightRecorder::with_capacity(4);
        assert!(ring.is_empty());
        for n in 0..10 {
            ring.record(record(n));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 10);
        let peeked: Vec<u64> = ring.peek().iter().map(|r| r.trace_id.0).collect();
        assert_eq!(peeked, [6, 7, 8, 9], "oldest first, newest kept");
        // Peek does not consume; drain does.
        let drained: Vec<u64> = ring.drain().iter().map(|r| r.trace_id.0).collect();
        assert_eq!(drained, [6, 7, 8, 9]);
        assert!(ring.is_empty());
        assert_eq!(ring.drain().len(), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = FlightRecorder::with_capacity(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(record(1));
        ring.record(record(2));
        assert_eq!(ring.peek().len(), 1);
        assert_eq!(ring.peek()[0].trace_id, TraceId(2));
    }

    #[test]
    fn concurrent_recording_loses_nothing_uncontended() {
        let ring = std::sync::Arc::new(FlightRecorder::with_capacity(1024));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        ring.record(record(t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Capacity exceeds writes, so contention is the only loss source.
        assert_eq!(ring.recorded() + ring.contended(), 400);
        assert_eq!(ring.len() as u64, ring.recorded());
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(TraceOutcome::Ok.label(), "ok");
        assert_eq!(TraceOutcome::Overloaded.label(), "overloaded");
        assert_eq!(TraceOutcome::DeadlineExceeded.label(), "deadline_exceeded");
        assert_eq!(TraceOutcome::Rejected("HM030".into()).label(), "HM030");
        assert_eq!(
            TraceOutcome::Error("bad_request".into()).label(),
            "bad_request"
        );
        assert!(TraceOutcome::Overloaded.is_shed());
        assert!(TraceOutcome::DeadlineExceeded.is_shed());
        assert!(!TraceOutcome::Ok.is_shed());
        assert!(!TraceOutcome::Rejected("HM030".into()).is_shed());
    }
}
