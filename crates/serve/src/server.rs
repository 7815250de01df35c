//! The TCP server: accept loop, event-driven connection multiplexing, and
//! verb routing into the registry and the compiled evaluation kernel.
//!
//! Connections are **not** given their own threads. The accept loop
//! registers each socket with a small fixed [`PollerPool`] of readiness
//! threads (see [`crate::poller`]); every connection is a state machine
//! multiplexed over nonblocking reads and buffered backpressured writes.
//! The poller that frames a request line answers it on its own thread,
//! in request order: `answer_line` parses, binds, admits, evaluates and
//! renders it to completion. Replies are bit-identical to direct
//! in-process evaluation, and thousands of mostly-idle keep-alive
//! connections cost buffer space instead of OS threads.
//!
//! Every evaluation passes one shared bound first: the summed cost of the
//! evaluations in progress across all pollers stays within
//! [`ServerConfig::queue_capacity`], and an expired deadline is shed
//! before evaluation starts.
//!
//! When started with a snapshot directory, the server **warm-starts**: it
//! restores every artifact persisted by a previous `save`, re-gated
//! through the hmdiv-analyze admission check, under identical content
//! ids.
//!
//! Graceful shutdown: the `shutdown` verb (or
//! [`Server::request_shutdown`]) latches the shutdown signal. The accept
//! loop stops taking connections, and the poller shards answer every line
//! they have already read, finish writing what they owe and release their
//! sockets before the server joins.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmdiv_core::extrapolate::Scenario;
use hmdiv_obs::{FlightRecorder, RequestRecord, Stage, StageSet, TraceId, TraceOutcome};
use hmdiv_prob::Probability;

use crate::admission::Admission;
use crate::error::ServeError;
use crate::json::{self, Json};
use crate::poller::PollerPool;
use crate::protocol::{self, Request};
use crate::readiness::{self, PollFd};
use crate::registry::{Artifact, LoadReceipt, Registry};
use crate::shutdown::ShutdownSignal;

/// How long the accept loop waits for a pending connection before it
/// checks the shutdown signal again; a connection that arrives meanwhile
/// ends the wait at once. After a failed `accept` it naps this long.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Bound on the summed admission **cost** (scalar evaluations, not
    /// request count) of the evaluations in progress across all pollers;
    /// an evaluation that would exceed it is rejected with the
    /// `overloaded` wire error.
    pub queue_capacity: usize,
    /// Worker threads for one sweep of at least 1,024 scenarios and for
    /// cohort evaluations; smaller evaluations run on the poller thread
    /// that framed them. Results are identical at any value.
    pub threads: usize,
    /// Readiness-poller threads multiplexing the connections. A handful
    /// is enough for thousands of keep-alive sockets.
    pub poller_threads: usize,
    /// Longest accepted request line; longer lines get the
    /// `line_too_long` error and the connection stays open (framing
    /// resyncs at the next newline).
    pub max_line_bytes: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Flight-recorder capacity: how many completed-request records the
    /// ring keeps for the `trace` verb. `0` (the default) disables
    /// request tracing entirely — no stage stamping, no recording.
    pub trace_capacity: usize,
    /// Where to dump the flight recorder's contents (as the `trace`
    /// verb's JSON) whenever a request sheds — `overloaded` or
    /// `deadline_exceeded`. `None` disables automatic dumps.
    pub trace_dump: Option<PathBuf>,
    /// Registry snapshot directory. When set, the server restores every
    /// artifact found there at startup (warm start with identical
    /// content ids) and the `save`/`restore` verbs default to it.
    pub snapshot_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_capacity: 1024,
            threads: 4,
            poller_threads: 4,
            max_line_bytes: 1 << 20,
            default_deadline_ms: None,
            trace_capacity: 0,
            trace_dump: None,
            snapshot_dir: None,
        }
    }
}

/// The request-tracing half of the server: the flight recorder plus the
/// shed-triggered dump sink.
struct Tracer {
    recorder: FlightRecorder,
    dump_path: Option<PathBuf>,
    /// Serialises automatic dumps so two concurrent shed events do not
    /// interleave writes into the same file.
    dump_lock: Mutex<()>,
}

impl Tracer {
    /// Writes the recorder's current contents (oldest first, same JSON as
    /// the `trace` verb) to the configured dump path, if any. Best
    /// effort: a failed write only bumps a counter.
    fn dump_on_shed(&self) {
        let Some(path) = &self.dump_path else { return };
        let _guard = self
            .dump_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let records = self.recorder.peek();
        let mut text = String::new();
        trace_report_json(&records, &self.recorder).write(&mut text);
        text.push('\n');
        if std::fs::write(path, text).is_ok() {
            hmdiv_obs::counter_add("serve.trace.dumps", 1);
        } else {
            hmdiv_obs::counter_add("serve.trace.dump_failures", 1);
        }
    }
}

/// Everything the poller shards and verb router need, shared behind one
/// `Arc`.
pub(crate) struct Ctx {
    pub(crate) signal: Arc<ShutdownSignal>,
    pub(crate) registry: Arc<Registry>,
    admission: Admission,
    threads: usize,
    pub(crate) max_line_bytes: usize,
    pub(crate) default_deadline_ms: Option<u64>,
    pub(crate) snapshot_dir: Option<PathBuf>,
    pub(crate) poller_threads: usize,
    /// Live open sockets, mirrored into the `serve.connections` gauge.
    pub(crate) live_connections: AtomicI64,
    tracer: Option<Tracer>,
}

/// Bumps the live-connection count and gauge for a newly adopted socket.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn connection_opened(ctx: &Ctx) {
    let live = ctx.live_connections.fetch_add(1, Ordering::Relaxed) + 1;
    hmdiv_obs::gauge_set("serve.connections", live as f64);
}

/// Drops the live-connection count and gauge for a released socket.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn connection_closed(ctx: &Ctx) {
    let live = ctx.live_connections.fetch_sub(1, Ordering::Relaxed) - 1;
    hmdiv_obs::gauge_set("serve.connections", live as f64);
}

/// A running evaluation server.
pub struct Server {
    addr: SocketAddr,
    signal: Arc<ShutdownSignal>,
    registry: Arc<Registry>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, restores any registry snapshot, spawns the poller pool and
    /// the accept loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if binding or thread spawning fails;
    /// [`ServeError::Snapshot`]/[`ServeError::Rejected`] if a configured
    /// snapshot directory holds artifacts that no longer restore cleanly.
    pub fn start(config: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let signal = Arc::new(ShutdownSignal::new());
        let registry = Arc::new(Registry::new());
        if let Some(dir) = &config.snapshot_dir {
            registry.restore_from_dir(dir)?;
        }
        let tracer = (config.trace_capacity > 0).then(|| Tracer {
            recorder: FlightRecorder::with_capacity(config.trace_capacity),
            dump_path: config.trace_dump.clone(),
            dump_lock: Mutex::new(()),
        });
        let ctx = Arc::new(Ctx {
            signal: Arc::clone(&signal),
            registry: Arc::clone(&registry),
            admission: Admission::new(config.queue_capacity),
            threads: config.threads,
            max_line_bytes: config.max_line_bytes,
            default_deadline_ms: config.default_deadline_ms,
            snapshot_dir: config.snapshot_dir.clone(),
            poller_threads: config.poller_threads.max(1),
            live_connections: AtomicI64::new(0),
            tracer,
        });
        hmdiv_obs::gauge_set("serve.connections", 0.0);
        let pool = PollerPool::start(ctx.poller_threads, &ctx)?;
        let accept = std::thread::Builder::new()
            .name("hmdiv-serve-accept".into())
            .spawn(move || accept_loop(&listener, &ctx, pool))?;
        Ok(Server {
            addr,
            signal,
            registry,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared model registry (for in-process preloading).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Latches the shutdown signal without waiting for the drain.
    pub fn request_shutdown(&self) {
        self.signal.request();
    }

    /// Blocks until the server has shut down (via the `shutdown` verb or
    /// [`Server::request_shutdown`]) and every in-flight request has
    /// drained.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            drop(accept.join());
        }
    }

    /// Requests shutdown and waits for the drain.
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.signal.request();
        if let Some(accept) = self.accept.take() {
            drop(accept.join());
        }
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>, pool: PollerPool) {
    while !ctx.signal.is_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                hmdiv_obs::counter_add("serve.connections_accepted", 1);
                pool.register(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                readiness::wait_ready(&mut [PollFd::new(listener, true, false)], ACCEPT_POLL);
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); back off briefly.
                // Not a readiness wait: the pending connection keeps the
                // listener readable, so that wait would return at once.
                ctx.signal.wait_timeout(ACCEPT_POLL);
            }
        }
    }
    // The pollers answer every line they have already read and finish
    // writing what they owe before they exit.
    pool.stop_and_join();
}

/// A traced request awaiting its final write stamp: records complete
/// *after* the response bytes hit the socket, so the write stage and the
/// true outcome are both in the flight recorder.
pub(crate) struct PendingTrace {
    trace_id: TraceId,
    verb: String,
    model: Option<String>,
    stages: StageSet,
    outcome: TraceOutcome,
}

/// Stamps the write stage (when the bytes reached the socket), lands the
/// completed record in the flight recorder, and feeds the `serve.stage.*`
/// latency histograms. Returns whether the record is a shed outcome, so
/// the caller can trigger one recorder dump per write batch.
pub(crate) fn complete_trace(
    ctx: &Ctx,
    p: PendingTrace,
    write: Option<(Instant, Instant)>,
) -> bool {
    let Some(tracer) = &ctx.tracer else {
        return false;
    };
    if let Some((start, end)) = write {
        p.stages.stamp(Stage::Write, start, end);
    }
    let record = RequestRecord {
        trace_id: p.trace_id,
        verb: p.verb,
        model: p.model,
        batch_size: p.stages.batch_size(),
        queue_depth: p.stages.queue_depth(),
        stages: p.stages.finish(),
        outcome: p.outcome,
    };
    if hmdiv_obs::enabled() {
        for span in record.stages.iter().flatten() {
            hmdiv_obs::observe_ns(&format!("serve.stage.{}", span.stage.name()), span.dur_ns);
        }
    }
    let shed = record.outcome.is_shed();
    tracer.recorder.record(record);
    shed
}

/// Dumps the flight recorder to the configured shed-dump path, if any.
pub(crate) fn dump_on_shed(ctx: &Ctx) {
    if let Some(tracer) = &ctx.tracer {
        tracer.dump_on_shed();
    }
}

/// Verbs the server understands (unknown verbs share one metrics bucket
/// to keep counter cardinality bounded).
const VERBS: [&str; 18] = [
    "ping",
    "metrics",
    "models",
    "manifest",
    "fetch",
    "shutdown",
    "load",
    "load_cohort",
    "analyze",
    "compare",
    "evaluate",
    "scenarios",
    "extrapolate",
    "importance",
    "cohort",
    "trace",
    "save",
    "restore",
];

/// Sweep length from which one evaluation fans out to the configured
/// `threads`: spawning worker threads costs tens of microseconds, while a
/// shorter sweep evaluates in far less than that on the poller thread.
/// The `_par` entry points are thread-count-invariant, so this is purely
/// a latency policy — results are bit-identical either way. The
/// `metrics` verb reports it.
const PAR_THRESHOLD: usize = 1024;

/// One request being answered, as its evaluation sees it.
struct Job<'a> {
    ctx: &'a Ctx,
    deadline: Option<Instant>,
    /// The request's stage stamps, with tracing on.
    trace: Option<&'a StageSet>,
    /// When the line began parsing: binding counts as parse, so an
    /// admitted evaluation closes the parse stage at admission.
    parse_start: Instant,
    /// Whether an evaluation was admitted; it then stamped its own
    /// stages.
    admitted: bool,
}

impl Job<'_> {
    /// Runs one evaluation of `cost` scalar evaluations over `items` (1,
    /// or a sweep's length) on this thread. It holds its cost against the
    /// shared admission bound until it returns, is shed if the request's
    /// deadline has passed, and stamps the queue (admission → start),
    /// batch (zero-length) and eval stages.
    fn evaluate(
        &mut self,
        cost: usize,
        items: usize,
        run: impl FnOnce() -> Result<Json, ServeError>,
    ) -> Result<Json, ServeError> {
        let (depth, permit) = self.ctx.admission.admit(cost);
        if let Some(set) = self.trace {
            set.set_queue_depth(depth as u64);
        }
        let _permit = permit?;
        let admitted = Instant::now();
        self.admitted = true;
        if let Some(set) = self.trace {
            set.stamp(Stage::Parse, self.parse_start, admitted);
        }
        if self.deadline.is_some_and(|d| admitted >= d) {
            hmdiv_obs::counter_add("serve.deadline_exceeded", 1);
            if let Some(set) = self.trace {
                set.stamp_since(Stage::Queue, admitted);
            }
            return Err(ServeError::DeadlineExceeded);
        }
        hmdiv_obs::counter_add("serve.batch.flushes", 1);
        #[allow(clippy::cast_precision_loss)]
        hmdiv_obs::gauge_set("serve.queue_depth", (depth + 1) as f64);
        hmdiv_obs::observe_count("serve.batch_size", items as u64);
        let start = Instant::now();
        let result = run();
        if let Some(set) = self.trace {
            set.stamp(Stage::Queue, admitted, start);
            set.stamp(Stage::Batch, start, start);
            set.stamp_since(Stage::Eval, start);
            set.set_batch_size(items as u64);
        }
        hmdiv_obs::observe_since("serve.request", admitted);
        result
    }
}

/// Parses, routes and answers one request line. Returns the reply line
/// and, with tracing on, its pending trace record, write-stamped later
/// when its bytes reach the socket. `received` is when the line was
/// framed, `read_start` when the first socket bytes that contributed to
/// it arrived.
pub(crate) fn answer_line(
    line: &str,
    received: Instant,
    read_start: Option<Instant>,
    ctx: &Ctx,
) -> (String, Option<PendingTrace>) {
    let parse_start = Instant::now();
    let mut request = match protocol::decode_request(line) {
        Ok(request) => request,
        Err(e) => {
            // Best effort: echo the id even when the envelope is bad.
            let id = json::parse(line)
                .ok()
                .and_then(|j| j.get("id").cloned())
                .unwrap_or(Json::Null);
            return (error_line(&id, None, &e), None);
        }
    };
    let parse_end = Instant::now();
    let env = &request.envelope;
    if VERBS.contains(&env.verb.as_str()) {
        hmdiv_obs::counter_add(&format!("serve.verb.{}", env.verb), 1);
    } else {
        hmdiv_obs::counter_add("serve.verb.unknown", 1);
    }
    let id = env.id.clone();
    // With tracing on, every request gets a stage set and an id
    // (client-supplied or minted); with it off, a client trace id is
    // still echoed for correlation.
    let trace = ctx.tracer.as_ref().map(|_| {
        let tid = env.trace_id.unwrap_or_else(TraceId::mint);
        let set = StageSet::new(received);
        if let Some(rs) = read_start {
            set.stamp(Stage::Read, rs, received);
        }
        set.stamp(Stage::Parse, parse_start, parse_end);
        let model = env
            .body
            .get("model")
            .or_else(|| env.body.get("cohort"))
            .and_then(Json::as_str)
            .map(str::to_owned);
        (tid, set, env.verb.clone(), model)
    });
    let echo = trace.as_ref().map(|(tid, ..)| *tid).or(env.trace_id);
    let mut job = Job {
        ctx,
        deadline: env
            .deadline_ms
            .or(ctx.default_deadline_ms)
            .map(|ms| received + Duration::from_millis(ms)),
        trace: trace.as_ref().map(|(_, set, ..)| set),
        parse_start,
        admitted: false,
    };
    let result = route(&mut request, &mut job);
    if let Some(set) = job.trace.filter(|_| !job.admitted) {
        // Inline verbs, and evaluations refused before admission, do all
        // their work inside `route`: count it as eval.
        set.stamp_since(Stage::Eval, parse_end);
    }
    let ser_start = Instant::now();
    let (line, outcome) = match result {
        Ok(result) => (protocol::ok_line(&id, echo, result), TraceOutcome::Ok),
        Err(e) => (error_line(&id, echo, &e), e.trace_outcome()),
    };
    let pending = trace.map(|(trace_id, stages, verb, model)| {
        stages.stamp_since(Stage::Serialize, ser_start);
        PendingTrace {
            trace_id,
            verb,
            model,
            stages,
            outcome,
        }
    });
    (line, pending)
}

/// Renders an error reply line and counts it in `serve.errors`.
pub(crate) fn error_line(id: &Json, echo: Option<TraceId>, e: &ServeError) -> String {
    hmdiv_obs::counter_add("serve.errors", 1);
    protocol::err_line(id, echo, e)
}

/// `{"failure": p}`, the `evaluate` verb's result.
fn failure_json(p: Probability) -> Json {
    Json::Obj(vec![("failure".to_owned(), Json::Num(p.value()))])
}

/// Renders an analyzer report as the `analyze` verb's result object.
fn report_json(report: &hmdiv_analyze::Report) -> Json {
    let diags = report
        .diagnostics()
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("code".to_owned(), Json::str(d.code)),
                ("severity".to_owned(), Json::str(d.severity.label())),
                ("pass".to_owned(), Json::str(d.pass)),
                ("message".to_owned(), Json::str(d.message.as_str())),
            ])
        })
        .collect();
    let (errors, warnings, notes) = report.counts();
    Json::Obj(vec![
        ("diagnostics".to_owned(), Json::Arr(diags)),
        ("errors".to_owned(), Json::Num(errors as f64)),
        ("warnings".to_owned(), Json::Num(warnings as f64)),
        ("notes".to_owned(), Json::Num(notes as f64)),
        ("summary".to_owned(), Json::str(report.summary_line())),
    ])
}

/// Renders a differential comparison as the `compare` verb's result
/// object: the verdict, the scope of its certificate, per-class and
/// per-profile gap bounds, and the full diagnostic report.
fn comparison_json(cmp: &hmdiv_analyze::Comparison) -> Json {
    let class_gaps = cmp
        .class_gaps
        .iter()
        .map(|g| {
            Json::Obj(vec![
                ("class".to_owned(), Json::str(g.class.as_str())),
                ("shared".to_owned(), Json::Bool(g.shared)),
                ("gap_lo".to_owned(), Json::Num(g.gap.lo)),
                ("gap_hi".to_owned(), Json::Num(g.gap.hi)),
            ])
        })
        .collect();
    let profile_gaps = cmp
        .profile_gaps
        .iter()
        .map(|g| Json::Arr(vec![Json::Num(g.lo), Json::Num(g.hi)]))
        .collect();
    Json::Obj(vec![
        ("verdict".to_owned(), Json::str(cmp.verdict.label())),
        (
            "uniform".to_owned(),
            match cmp.uniform {
                Some(u) => Json::str(u.label()),
                None => Json::Null,
            },
        ),
        ("class_gaps".to_owned(), Json::Arr(class_gaps)),
        ("profile_gaps".to_owned(), Json::Arr(profile_gaps)),
        ("report".to_owned(), report_json(&cmp.report)),
    ])
}

fn receipt_json(receipt: &LoadReceipt) -> Json {
    Json::Obj(vec![
        ("model_id".to_owned(), Json::str(receipt.id.as_str())),
        (
            "classes".to_owned(),
            Json::Arr(
                receipt
                    .classes
                    .iter()
                    .map(|c| Json::str(c.as_str()))
                    .collect(),
            ),
        ),
        (
            "universe_hash".to_owned(),
            Json::str(protocol::render_hash(receipt.universe_hash)),
        ),
    ])
}

/// Renders one flight-recorder record as the `trace` verb's JSON row:
/// identity and admission facts, a `stages` object of stamped spans, and
/// the parented `spans` tree.
#[allow(clippy::cast_precision_loss)]
fn trace_record_json(r: &RequestRecord) -> Json {
    let stages = r
        .stages
        .iter()
        .flatten()
        .map(|s| {
            (
                s.stage.name().to_owned(),
                Json::Obj(vec![
                    ("start_ns".to_owned(), Json::Num(s.start_ns as f64)),
                    ("dur_ns".to_owned(), Json::Num(s.dur_ns as f64)),
                ]),
            )
        })
        .collect();
    let spans = r
        .spans()
        .into_iter()
        .map(|n| {
            Json::Obj(vec![
                ("id".to_owned(), Json::Num(f64::from(n.id))),
                (
                    "parent".to_owned(),
                    n.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("name".to_owned(), Json::str(n.name)),
                ("start_ns".to_owned(), Json::Num(n.start_ns as f64)),
                ("dur_ns".to_owned(), Json::Num(n.dur_ns as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("trace_id".to_owned(), Json::str(r.trace_id.to_hex())),
        ("verb".to_owned(), Json::str(r.verb.as_str())),
        (
            "model".to_owned(),
            r.model.as_deref().map_or(Json::Null, Json::str),
        ),
        ("batch_size".to_owned(), Json::Num(r.batch_size as f64)),
        ("queue_depth".to_owned(), Json::Num(r.queue_depth as f64)),
        ("outcome".to_owned(), Json::str(r.outcome.label())),
        ("total_ns".to_owned(), Json::Num(r.total_ns() as f64)),
        ("stages".to_owned(), Json::Obj(stages)),
        ("spans".to_owned(), Json::Arr(spans)),
    ])
}

/// The `trace` verb's result (also the shed-dump file's content): the
/// records oldest first plus the recorder's bookkeeping.
#[allow(clippy::cast_precision_loss)]
fn trace_report_json(records: &[RequestRecord], recorder: &FlightRecorder) -> Json {
    Json::Obj(vec![
        (
            "records".to_owned(),
            Json::Arr(records.iter().map(trace_record_json).collect()),
        ),
        ("capacity".to_owned(), Json::Num(recorder.capacity() as f64)),
        ("recorded".to_owned(), Json::Num(recorder.recorded() as f64)),
        ("dropped".to_owned(), Json::Num(recorder.contended() as f64)),
    ])
}

/// Resolves the directory a `save`/`restore` request targets: the
/// request's `dir` member, else the server's configured snapshot dir.
fn snapshot_dir_for(body: &Json, ctx: &Ctx, verb: &str) -> Result<PathBuf, ServeError> {
    body.get("dir")
        .and_then(Json::as_str)
        .map(PathBuf::from)
        .or_else(|| ctx.snapshot_dir.clone())
        .ok_or_else(|| ServeError::BadRequest {
            detail: format!(
                "`{verb}` needs a `dir` string (or start the server with a snapshot dir)"
            ),
        })
}

/// The `save`/`restore` result object: the directory, how many artifacts
/// moved, and their content ids.
#[allow(clippy::cast_precision_loss)]
fn snapshot_result_json(dir: &Path, action: &str, ids: &[String]) -> Json {
    Json::Obj(vec![
        ("dir".to_owned(), Json::str(dir.display().to_string())),
        (action.to_owned(), Json::Num(ids.len() as f64)),
        (
            "ids".to_owned(),
            Json::Arr(ids.iter().map(|id| Json::str(id.as_str())).collect()),
        ),
    ])
}

fn route(request: &mut Request, job: &mut Job<'_>) -> Result<Json, ServeError> {
    let ctx = job.ctx;
    let env = &request.envelope;
    let body = &env.body;
    match env.verb.as_str() {
        "ping" => Ok(Json::Obj(vec![("pong".to_owned(), Json::Bool(true))])),
        "metrics" => {
            let snapshot = hmdiv_obs::snapshot();
            #[allow(clippy::cast_precision_loss)]
            let par_threshold = PAR_THRESHOLD as f64;
            // Histogram summaries (count, sum, and interpolated
            // percentiles) for every registered histogram, `serve.*`
            // stage latencies included, in deterministic name order.
            #[allow(clippy::cast_precision_loss)]
            let histograms = snapshot
                .histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("unit".to_owned(), Json::str(h.unit.label())),
                            ("count".to_owned(), Json::Num(h.count as f64)),
                            ("sum".to_owned(), Json::Num(h.sum as f64)),
                            ("p50".to_owned(), Json::Num(h.p50())),
                            ("p95".to_owned(), Json::Num(h.p95())),
                            ("p99".to_owned(), Json::Num(h.p99())),
                        ]),
                    )
                })
                .collect();
            let (in_progress, in_progress_cost) = ctx.admission.in_progress();
            #[allow(clippy::cast_precision_loss)]
            let queue_depth = in_progress as f64;
            #[allow(clippy::cast_precision_loss)]
            let queue_cost = in_progress_cost as f64;
            #[allow(clippy::cast_precision_loss)]
            let connections = ctx.live_connections.load(Ordering::Relaxed) as f64;
            #[allow(clippy::cast_precision_loss)]
            let pollers = ctx.poller_threads as f64;
            Ok(Json::Obj(vec![
                (
                    "prometheus".to_owned(),
                    Json::str(hmdiv_obs::export::to_prometheus(&snapshot)),
                ),
                ("histograms".to_owned(), Json::Obj(histograms)),
                ("par_threshold".to_owned(), Json::Num(par_threshold)),
                ("queue_depth".to_owned(), Json::Num(queue_depth)),
                ("queue_cost".to_owned(), Json::Num(queue_cost)),
                ("connections".to_owned(), Json::Num(connections)),
                ("pollers".to_owned(), Json::Num(pollers)),
            ]))
        }
        "trace" => {
            let tracer = ctx.tracer.as_ref().ok_or(ServeError::TraceDisabled)?;
            let records = tracer.recorder.drain();
            Ok(trace_report_json(&records, &tracer.recorder))
        }
        "models" => {
            let rows = ctx
                .registry
                .list()
                .into_iter()
                .map(|row| {
                    Json::Obj(vec![
                        ("id".to_owned(), Json::str(row.id)),
                        ("kind".to_owned(), Json::str(row.kind)),
                        ("classes".to_owned(), Json::Num(row.classes as f64)),
                        (
                            "universe_hash".to_owned(),
                            Json::str(protocol::render_hash(row.universe_hash)),
                        ),
                    ])
                })
                .collect();
            Ok(Json::Obj(vec![("models".to_owned(), Json::Arr(rows))]))
        }
        "manifest" => {
            // The fleet sync inventory: content ids + kinds only, in
            // BTreeMap id order, so two replicas with the same artifacts
            // render byte-identical manifests.
            let rows: Vec<Json> = ctx
                .registry
                .list()
                .into_iter()
                .map(|row| {
                    Json::Obj(vec![
                        ("id".to_owned(), Json::str(row.id)),
                        ("kind".to_owned(), Json::str(row.kind)),
                    ])
                })
                .collect();
            #[allow(clippy::cast_precision_loss)]
            let count = rows.len() as f64;
            Ok(Json::Obj(vec![
                ("artifacts".to_owned(), Json::Arr(rows)),
                ("count".to_owned(), Json::Num(count)),
            ]))
        }
        "fetch" => {
            // The sync transfer format: the load-verb wire shape plus the
            // content id, so the receiving side can replay it through its
            // own load path and verify the recomputed id.
            let id = protocol::required_str(body, "model")?;
            ctx.registry.export_wire(id)
        }
        "shutdown" => {
            ctx.signal.request();
            Ok(Json::Obj(vec![("draining".to_owned(), Json::Bool(true))]))
        }
        "save" => {
            let dir = snapshot_dir_for(body, ctx, "save")?;
            let ids = ctx.registry.save_to_dir(&dir)?;
            Ok(snapshot_result_json(&dir, "saved", &ids))
        }
        "restore" => {
            let dir = snapshot_dir_for(body, ctx, "restore")?;
            let ids = ctx.registry.restore_from_dir(&dir)?;
            Ok(snapshot_result_json(&dir, "restored", &ids))
        }
        "load" => {
            let manifest = protocol::parse_manifest(body)?;
            let kind = body
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("sequential");
            let receipt = match kind {
                "sequential" => ctx
                    .registry
                    .load_sequential(protocol::parse_model_params(body)?, manifest.as_ref())?,
                "detection" => ctx
                    .registry
                    .load_detection(protocol::parse_detection_params(body)?, manifest.as_ref())?,
                other => {
                    return Err(ServeError::BadRequest {
                        detail: format!("unknown model kind `{other}`"),
                    })
                }
            };
            Ok(receipt_json(&receipt))
        }
        "load_cohort" => {
            let manifest = protocol::parse_manifest(body)?;
            let members = protocol::parse_cohort_members(body)?;
            let receipt = ctx.registry.load_cohort(members, manifest.as_ref())?;
            Ok(receipt_json(&receipt))
        }
        "analyze" => {
            // Loaded artifacts passed admission, so this reports the
            // warnings and notes the gate let through. Pure and fast, so
            // answered without admission.
            let artifact = ctx.registry.get(protocol::required_str(body, "model")?)?;
            Ok(report_json(&artifact.analyze()))
        }
        "compare" => {
            // Differential comparison of two loaded artifacts. Pure and
            // fast like `analyze`, so answered without admission; error-severity
            // findings (universe mismatch, domain faults) reject with
            // their stable HM code, mirroring load admission.
            let baseline = sequential_artifact(ctx, protocol::required_str(body, "baseline")?)?;
            let candidate = sequential_artifact(ctx, protocol::required_str(body, "candidate")?)?;
            let profiles = match body.get("profile") {
                Some(_) => {
                    let profile = protocol::parse_profile(body)?;
                    vec![baseline
                        .compiled()
                        .bind_profile(&profile)
                        .map_err(ServeError::Model)?]
                }
                None => Vec::new(),
            };
            let cmp = hmdiv_analyze::compare(baseline.compiled(), candidate.compiled(), &profiles);
            if let Some(d) = cmp.report.first_error() {
                return Err(ServeError::Rejected {
                    code: d.code.to_owned(),
                    detail: d.message.clone(),
                });
            }
            Ok(comparison_json(&cmp))
        }
        "evaluate" => {
            let artifact = ctx.registry.get(protocol::required_str(body, "model")?)?;
            let profile = protocol::parse_profile(body)?;
            match artifact {
                Artifact::Sequential(model) => {
                    let compiled = model.compiled();
                    let bound = compiled.bind_profile(&profile).map_err(ServeError::Model)?;
                    job.evaluate(1, 1, || Ok(failure_json(compiled.system_failure(&bound))))
                }
                Artifact::Detection(model) => {
                    let compiled = model.compiled();
                    job.evaluate(1, 1, || {
                        let bound = compiled.bind_profile(&profile).map_err(ServeError::Model)?;
                        Ok(failure_json(compiled.system_failure(&bound)))
                    })
                }
                Artifact::Cohort(_) => Err(ServeError::BadRequest {
                    detail: "cohort artifacts are evaluated with the `cohort` verb".to_owned(),
                }),
            }
        }
        "scenarios" => {
            let (compiled, bound) = sequential_binding(body, ctx)?;
            let scenarios = request.bind_scenarios(&compiled)?;
            // Admission cost: one scalar evaluation per scenario.
            let n = scenarios.len();
            let threads = if n < PAR_THRESHOLD { 1 } else { ctx.threads };
            job.evaluate(n, n, || {
                let failures = compiled
                    .evaluate_bound_scenarios(&scenarios, &bound, threads)
                    .map_err(ServeError::Model)?;
                Ok(Json::Obj(vec![(
                    "failures".to_owned(),
                    Json::Arr(failures.iter().map(|p| Json::Num(p.value())).collect()),
                )]))
            })
        }
        "extrapolate" => {
            let (compiled, bound) = sequential_binding(body, ctx)?;
            let scenario = protocol::parse_scenario(protocol::required(body, "scenario")?)?;
            let scenarios = compiled.bind_scenarios(&[Scenario::new(), scenario]);
            job.evaluate(2, 2, || {
                let pair = compiled
                    .evaluate_bound_scenarios(&scenarios, &bound, 1)
                    .map_err(ServeError::Model)?;
                let (before, after) = (pair[0].value(), pair[1].value());
                Ok(Json::Obj(vec![
                    ("before".to_owned(), Json::Num(before)),
                    ("after".to_owned(), Json::Num(after)),
                    ("improvement".to_owned(), Json::Num(before - after)),
                ]))
            })
        }
        "importance" => {
            let artifact = ctx.registry.get(protocol::required_str(body, "model")?)?;
            let Artifact::Sequential(model) = artifact else {
                return Err(ServeError::BadRequest {
                    detail: "`importance` needs a sequential model".to_owned(),
                });
            };
            job.evaluate(1, 1, || {
                let lines = hmdiv_core::importance::machine_response_lines(&model)
                    .into_iter()
                    .map(|line| {
                        Json::Obj(vec![
                            ("class".to_owned(), Json::str(line.class().name())),
                            (
                                "lower_bound".to_owned(),
                                Json::Num(line.lower_bound().value()),
                            ),
                            (
                                "coherence_index".to_owned(),
                                Json::Num(line.coherence_index()),
                            ),
                            (
                                "current_p_mf".to_owned(),
                                Json::Num(line.current_p_mf().value()),
                            ),
                        ])
                    })
                    .collect();
                Ok(Json::Obj(vec![("lines".to_owned(), Json::Arr(lines))]))
            })
        }
        "cohort" => {
            let artifact = ctx.registry.get(protocol::required_str(body, "cohort")?)?;
            let Artifact::Cohort(cohort) = artifact else {
                return Err(ServeError::BadRequest {
                    detail: "`cohort` needs a cohort artifact (id `c…`)".to_owned(),
                });
            };
            let profile = protocol::parse_profile(body)?;
            // Admission cost: one member-model evaluation per reader in
            // the cohort.
            job.evaluate(cohort.members().len(), 1, || {
                let summary = cohort
                    .evaluate_par(&profile, ctx.threads)
                    .map_err(ServeError::Model)?;
                let rows = summary
                    .rows
                    .iter()
                    .map(|row| {
                        Json::Obj(vec![
                            ("name".to_owned(), Json::str(row.name.as_str())),
                            ("share".to_owned(), Json::Num(row.share)),
                            ("failure".to_owned(), Json::Num(row.failure.value())),
                        ])
                    })
                    .collect();
                Ok(Json::Obj(vec![
                    ("mean".to_owned(), Json::Num(summary.mean.value())),
                    ("best".to_owned(), Json::Num(summary.best.value())),
                    ("worst".to_owned(), Json::Num(summary.worst.value())),
                    ("spread".to_owned(), Json::Num(summary.spread())),
                    ("rows".to_owned(), Json::Arr(rows)),
                ]))
            })
        }
        other => Err(ServeError::UnknownVerb {
            verb: other.to_owned(),
        }),
    }
}

/// Resolves a registry id that must name a sequential model.
fn sequential_artifact(
    ctx: &Ctx,
    id: &str,
) -> Result<Arc<hmdiv_core::SequentialModel>, ServeError> {
    let Artifact::Sequential(model) = ctx.registry.get(id)? else {
        return Err(ServeError::BadRequest {
            detail: "this verb needs a sequential model".to_owned(),
        });
    };
    Ok(model)
}

/// Resolves a sequential model id and binds the request's profile to it.
fn sequential_binding(
    body: &Json,
    ctx: &Ctx,
) -> Result<(Arc<hmdiv_core::CompiledModel>, hmdiv_core::CompiledProfile), ServeError> {
    let artifact = ctx.registry.get(protocol::required_str(body, "model")?)?;
    let Artifact::Sequential(model) = artifact else {
        return Err(ServeError::BadRequest {
            detail: "this verb needs a sequential model".to_owned(),
        });
    };
    let profile = protocol::parse_profile(body)?;
    let compiled = Arc::clone(model.compiled());
    let bound = compiled.bind_profile(&profile).map_err(ServeError::Model)?;
    Ok((compiled, bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_documented_shape() {
        let c = ServerConfig::default();
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.queue_capacity, 1024);
        assert_eq!(c.poller_threads, 4, "a handful of pollers by default");
        assert_eq!(c.max_line_bytes, 1 << 20);
        assert!(c.default_deadline_ms.is_none());
        assert_eq!(c.trace_capacity, 0, "tracing is opt-in");
        assert!(c.trace_dump.is_none());
        assert!(c.snapshot_dir.is_none(), "persistence is opt-in");
    }
}
