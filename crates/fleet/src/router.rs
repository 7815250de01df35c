//! The fleet front router: a thin nonblocking proxy over the replica
//! set.
//!
//! One event-loop thread multiplexes every client connection and every
//! backend connection. Each is a [`LineConn`] — the nonblocking,
//! newline-framed connection that the serve core's poller shards and the
//! loadgen driver run on — and the loop reads them all through one
//! scratch buffer it owns.
//!
//! The loop sweeps every socket (accept, backend writes and reads,
//! client reads, routing, client writes) for as long as sweeps move
//! bytes. When a sweep moves none, it blocks in a `poll(2)` readiness
//! wait ([`hmdiv_serve::readiness`]) over the listener (left out while
//! draining), every client ([`LineConn::interest`]: read interest while
//! the client is read, write interest while reply bytes are unflushed)
//! and every backend (read interest, write interest while request bytes
//! are unflushed), so a reply or request that arrives is forwarded at
//! once. The wait's fixed [`IDLE_WAIT`] timeout bounds how late the loop
//! notices what no socket reports: an ejection by the prober thread, or
//! a shutdown requested from outside. Each pass of the loop counts one
//! `fleet.router.wakeups`, so a loop that spins instead of waiting
//! shows in the `metrics` verb's exposition.
//!
//! Clients get the replica's backpressure ([`LineConn::wants_read`]): a
//! client is read at most [`READ_BUDGET`] bytes per pass, and not at all
//! while [`WRITE_HIGH_WATERMARK`](hmdiv_serve::conn::WRITE_HIGH_WATERMARK)
//! bytes of its replies are unflushed, so a client that pipelines
//! without reading fills its own TCP window instead of the router's
//! memory. Backends are read whenever they have bytes: stalling one
//! would stall every client multiplexed on it.
//!
//! Request lines are *forwarded verbatim* (replies too), so the fleet
//! preserves the serve core's bit-identity guarantee: the router adds
//! routing, never re-serialization. The router reads the wire only
//! through [`hmdiv_serve::protocol`], as a replica does:
//! [`peek_request`] reads each request's verb and id (and stops there),
//! and [`decode_reply`] reads a reply where the router must know whether
//! it succeeded (a broadcast's legs, a health probe's `ping`). Replies
//! are framed with no length limit: a reply's length follows from a
//! request line the replica accepted.
//!
//! Routing:
//!
//! * **stateless verbs** (`evaluate`, `scenarios`, `ping`, …, and
//!   anything unrecognized) hash the client connection onto the
//!   consistent ring and follow it to the first *healthy* backend;
//! * **registry-mutating verbs** (`load`, `load_cohort`, `save`,
//!   `restore`) broadcast to every healthy backend so replicas stay
//!   converged; the reply is the lowest-indexed backend's success (or
//!   its error when none succeeded);
//! * **`metrics`** is answered by the router itself with the fleet
//!   topology — per-backend health, ejection counts, and the
//!   router-side Prometheus exposition;
//! * **`shutdown`** broadcasts to the replicas *and* latches the
//!   router's own drain signal.
//!
//! Failover: when a backend's connection dies (or the prober ejects
//! it), every in-flight request owed to it is answered with the typed
//! `backend_unavailable` wire error — the client knows exactly which
//! requests are in doubt — and subsequent requests re-hash to the
//! survivors. A separate prober thread pings each backend on a fixed
//! cadence, ejects after consecutive failures, and re-admits a
//! recovered backend only after its registry is synced from a healthy
//! peer ([`crate::sync::reconcile`]).

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hmdiv_serve::conn::{LineConn, CHUNK, READ_BUDGET};
use hmdiv_serve::json::Json;
use hmdiv_serve::protocol::{decode_reply, err_line, ok_line, peek_request, LineEvent};
use hmdiv_serve::readiness::{self, PollFd};
use hmdiv_serve::shutdown::ShutdownSignal;
use hmdiv_serve::{Client, ServeError};

use crate::health::{FleetState, HealthPolicy, ProbeVerdict};
use crate::ring::{mix64, HashRing};
use crate::sync;

/// Verbs that must reach every healthy replica to keep their registries
/// converged.
const BROADCAST_VERBS: [&str; 4] = ["load", "load_cohort", "save", "restore"];

/// Longest readiness wait of an idle event loop: how late it notices an
/// ejection or an external shutdown request, which no socket reports.
pub const IDLE_WAIT: Duration = Duration::from_millis(2);

/// Deadline for lazily opening a backend connection.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Replica backend addresses, in ring-index order.
    pub backends: Vec<SocketAddr>,
    /// Ring points per backend.
    pub vnodes: usize,
    /// Longest client request line, in bytes. Give it the replicas'
    /// limit, so that the router rejects no line a replica would accept.
    pub max_line_bytes: usize,
    /// Cadence of the health prober.
    pub probe_interval: Duration,
    /// Per-probe connect/read deadline.
    pub probe_timeout: Duration,
    /// Consecutive failures that eject a backend.
    pub eject_after: u32,
    /// Consecutive successful probes that qualify an ejected backend
    /// for re-admission (after a registry sync).
    pub readmit_after: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            vnodes: 64,
            max_line_bytes: 1 << 20,
            probe_interval: Duration::from_millis(150),
            probe_timeout: Duration::from_millis(1000),
            eject_after: 3,
            readmit_after: 2,
        }
    }
}

/// One reply owed to a client, in request order.
enum Pending {
    /// The reply line is ready to flush.
    Done(String),
    /// Waiting on one backend reply.
    Await {
        token: u64,
        /// The request's id, for synthesizing a failover error.
        id: Json,
    },
    /// Waiting on every healthy backend (registry-mutating verbs). A leg
    /// lost in flight is answered with the request's `id`.
    Broadcast { slots: Vec<BroadcastSlot>, id: Json },
}

/// One backend's leg of a broadcast.
struct BroadcastSlot {
    token: u64,
    reply: Option<String>,
}

/// One client connection's state machine. At EOF it closes once its
/// pending replies flush.
struct ClientConn {
    io: LineConn,
    pending: VecDeque<Pending>,
    /// Consistent-hash key: all of this connection's stateless requests
    /// follow it to the same backend while that backend stays healthy.
    ring_key: u64,
}

/// One backend connection's state machine.
struct BackendConn {
    io: LineConn,
    /// Tokens for requests written to this backend, in reply order (the
    /// serve core answers each connection strictly in request order).
    inflight: VecDeque<u64>,
}

/// The running router.
#[derive(Debug)]
pub struct Router {
    addr: SocketAddr,
    signal: Arc<ShutdownSignal>,
    fleet: Arc<FleetState>,
    event_thread: Option<std::thread::JoinHandle<()>>,
    probe_thread: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Binds the listen socket and starts the event loop and prober.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when no backends are configured;
    /// [`ServeError::Io`] when the listen socket cannot bind.
    pub fn start(config: RouterConfig) -> Result<Router, ServeError> {
        if config.backends.is_empty() {
            return Err(ServeError::BadRequest {
                detail: "router needs at least one backend".to_owned(),
            });
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let signal = Arc::new(ShutdownSignal::new());
        let fleet = Arc::new(FleetState::new(
            &config.backends,
            HealthPolicy {
                eject_after: config.eject_after,
                readmit_after: config.readmit_after,
            },
        ));
        let ring = HashRing::new(config.backends.len(), config.vnodes);
        let event_thread = {
            let signal = Arc::clone(&signal);
            let fleet = Arc::clone(&fleet);
            let config = config.clone();
            std::thread::Builder::new()
                .name("fleet-router".to_owned())
                .spawn(move || EventLoop::new(listener, config, ring, fleet, signal).run())
                .map_err(|e| ServeError::Io {
                    detail: format!("spawning router event loop: {e}"),
                })?
        };
        let probe_thread = {
            let signal = Arc::clone(&signal);
            let fleet = Arc::clone(&fleet);
            let config = config.clone();
            std::thread::Builder::new()
                .name("fleet-prober".to_owned())
                .spawn(move || probe_loop(&config, &fleet, &signal))
                .map_err(|e| ServeError::Io {
                    detail: format!("spawning router prober: {e}"),
                })?
        };
        Ok(Router {
            addr,
            signal,
            fleet,
            event_thread: Some(event_thread),
            probe_thread: Some(probe_thread),
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared fleet health view (for tests and reporting).
    #[must_use]
    pub fn fleet(&self) -> &FleetState {
        &self.fleet
    }

    /// Requests drain-and-stop without blocking.
    pub fn request_shutdown(&self) {
        self.signal.request();
    }

    /// Blocks until the router has drained and stopped.
    pub fn join(mut self) {
        self.join_threads();
    }

    /// [`Router::request_shutdown`] then [`Router::join`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }

    fn join_threads(&mut self) {
        for handle in [self.event_thread.take(), self.probe_thread.take()]
            .into_iter()
            .flatten()
        {
            drop(handle.join());
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.signal.request();
        self.join_threads();
    }
}

/// Synthesizes the typed failover error reply for a lost request.
fn unavailable_line(id: &Json, backend: SocketAddr) -> String {
    err_line(
        id,
        None,
        &ServeError::BackendUnavailable {
            backend: backend.to_string(),
        },
    )
}

/// The router's single-threaded event loop.
struct EventLoop {
    listener: TcpListener,
    config: RouterConfig,
    ring: HashRing,
    fleet: Arc<FleetState>,
    signal: Arc<ShutdownSignal>,
    clients: Vec<Option<ClientConn>>,
    backends: Vec<Option<BackendConn>>,
    /// The one buffer every connection is read through.
    scratch: Vec<u8>,
    next_token: u64,
    /// The last accept failed with something other than `WouldBlock`
    /// (say, out of file descriptors): the listener stays readable, so it
    /// sits out the next wait rather than turn it into a spin.
    accept_failed: bool,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        config: RouterConfig,
        ring: HashRing,
        fleet: Arc<FleetState>,
        signal: Arc<ShutdownSignal>,
    ) -> EventLoop {
        let backend_count = config.backends.len();
        EventLoop {
            listener,
            config,
            ring,
            fleet,
            signal,
            clients: Vec::new(),
            backends: (0..backend_count).map(|_| None).collect(),
            scratch: vec![0_u8; CHUNK],
            next_token: 1,
            accept_failed: false,
        }
    }

    fn run(mut self) {
        let mut interest = Vec::new();
        loop {
            hmdiv_obs::counter_add("fleet.router.wakeups", 1);
            let draining = self.signal.is_requested();
            let mut progressed = false;
            if !draining {
                progressed |= self.accept_new();
            }
            self.enforce_ejections();
            progressed |= self.sweep_backends();
            progressed |= self.sweep_clients();
            self.reap_clients(draining);
            if draining && self.clients.iter().all(Option::is_none) {
                break;
            }
            if !progressed {
                self.wait(draining, &mut interest);
            }
        }
    }

    /// Blocks until a socket the loop can act on is ready, or
    /// [`IDLE_WAIT`] passes. A half-closed client with nothing to flush
    /// is left out: it has no interest left, and a peer reset would
    /// otherwise report it ready on every wait until its replies arrive.
    fn wait(&self, draining: bool, interest: &mut Vec<PollFd>) {
        interest.clear();
        if !draining && !self.accept_failed {
            interest.push(PollFd::new(&self.listener, true, false));
        }
        for conn in self.clients.iter().flatten() {
            interest.extend(conn.io.interest(conn.io.wants_read()));
        }
        for conn in self.backends.iter().flatten() {
            interest.extend(conn.io.interest(true));
        }
        readiness::wait_ready(interest, IDLE_WAIT);
    }

    /// Accepts every waiting connection; returns whether any arrived.
    fn accept_new(&mut self) -> bool {
        let mut any = false;
        self.accept_failed = false;
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let Ok(io) = LineConn::new(stream, self.config.max_line_bytes) else {
                        continue;
                    };
                    any = true;
                    // Hash the peer address (ip + port) onto the ring so
                    // distinct connections spread across backends while
                    // one connection stays put.
                    let mut key = match peer.ip() {
                        std::net::IpAddr::V4(ip) => u64::from(u32::from(ip)),
                        std::net::IpAddr::V6(ip) => {
                            let o = ip.octets();
                            u64::from_le_bytes([o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]])
                        }
                    };
                    key = mix64(key ^ (u64::from(peer.port()) << 48));
                    let conn = ClientConn {
                        io,
                        pending: VecDeque::new(),
                        ring_key: key,
                    };
                    if let Some(slot) = self.clients.iter_mut().find(|s| s.is_none()) {
                        *slot = Some(conn);
                    } else {
                        self.clients.push(Some(conn));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.accept_failed = true;
                    break;
                }
            }
        }
        any
    }

    /// Tears down connections to backends the prober has ejected, so
    /// their in-flight requests fail over promptly.
    fn enforce_ejections(&mut self) {
        for b in 0..self.backends.len() {
            if self.backends[b].is_some() && !self.fleet.is_healthy(b) {
                self.fail_backend(b);
            }
        }
    }

    /// Kills backend `b`'s connection and answers everything in flight
    /// on it with `backend_unavailable`.
    fn fail_backend(&mut self, b: usize) {
        let Some(conn) = self.backends[b].take() else {
            return;
        };
        let addr = self.fleet.addr(b);
        for token in conn.inflight {
            self.resolve_token(token, None, addr);
        }
    }

    /// Fills the pending slot waiting on `token`. `reply` is the
    /// forwarded backend line (newline included), or `None` to
    /// synthesize a `backend_unavailable` error from `addr`.
    fn resolve_token(&mut self, token: u64, reply: Option<String>, addr: SocketAddr) {
        for client in self.clients.iter_mut().flatten() {
            for pending in &mut client.pending {
                match pending {
                    Pending::Await { token: t, id } if *t == token => {
                        let line = reply.unwrap_or_else(|| unavailable_line(id, addr));
                        *pending = Pending::Done(line);
                        return;
                    }
                    Pending::Broadcast { slots, id } => {
                        if let Some(slot) = slots
                            .iter_mut()
                            .find(|s| s.token == token && s.reply.is_none())
                        {
                            slot.reply = Some(reply.unwrap_or_else(|| unavailable_line(id, addr)));
                            return;
                        }
                    }
                    _ => {}
                }
            }
        }
        // No owner: the client hung up before its reply arrived.
    }

    /// Sweeps every backend connection: flush writes, read replies,
    /// detect death. Returns whether any byte moved.
    fn sweep_backends(&mut self) -> bool {
        let mut progressed = false;
        for b in 0..self.backends.len() {
            let Some(conn) = self.backends[b].as_mut() else {
                continue;
            };
            progressed |= conn.io.write() > 0;
            progressed |= conn.io.read(&mut self.scratch, usize::MAX) > 0;
            let mut failed = conn.io.eof() || conn.io.dead();
            let mut resolved: Vec<(u64, String)> = Vec::new();
            while let Some(event) = conn.io.next_event() {
                let Some(token) = conn.inflight.pop_front() else {
                    // A reply with nothing in flight: protocol breach,
                    // drop the connection.
                    failed = true;
                    break;
                };
                match event {
                    LineEvent::Line(mut line) => {
                        line.push('\n');
                        resolved.push((token, line));
                    }
                    // An oversized or non-UTF-8 reply cannot be
                    // forwarded; the request it answered fails with the
                    // connection, in order.
                    LineEvent::TooLong { .. } | LineEvent::InvalidUtf8 => {
                        conn.inflight.push_front(token);
                        failed = true;
                        break;
                    }
                }
            }
            let addr = self.fleet.addr(b);
            for (token, line) in resolved {
                self.resolve_token(token, Some(line), addr);
            }
            if failed {
                progressed = true;
                self.fail_backend(b);
                // A dead connection counts toward ejection; the prober
                // owns re-admission.
                self.fleet.record_failure(b);
            }
        }
        progressed
    }

    /// Sweeps every client connection: read (within the read budget and
    /// under the write high-watermark) and route new requests, flush
    /// ready replies. Returns whether any byte moved.
    fn sweep_clients(&mut self) -> bool {
        let mut progressed = false;
        for c in 0..self.clients.len() {
            let Some(conn) = self.clients[c].as_mut() else {
                continue;
            };
            if conn.io.dead() {
                continue;
            }
            if conn.io.wants_read() {
                progressed |= conn.io.read(&mut self.scratch, READ_BUDGET) > 0;
            }
            let mut lines: Vec<Result<String, ServeError>> = Vec::new();
            while let Some(event) = conn.io.next_event() {
                lines.push(match event {
                    LineEvent::Line(line) => Ok(line),
                    LineEvent::TooLong { limit } => Err(ServeError::LineTooLong { limit }),
                    LineEvent::InvalidUtf8 => Err(ServeError::Parse {
                        detail: "request line is not valid UTF-8".to_owned(),
                    }),
                });
            }
            for line in lines {
                progressed = true;
                match line {
                    Ok(line) => self.route_request(c, &line),
                    Err(e) => {
                        if let Some(conn) = self.clients[c].as_mut() {
                            conn.pending
                                .push_back(Pending::Done(err_line(&Json::Null, None, &e)));
                        }
                    }
                }
            }
            if let Some(conn) = self.clients[c].as_mut() {
                progressed |= flush_client(conn);
            }
        }
        progressed
    }

    /// Routes one complete request line from client `c`.
    fn route_request(&mut self, c: usize, line: &str) {
        let (verb, id) = peek_request(line);
        match verb.as_deref() {
            Some("metrics") => {
                let reply = self.metrics_line(&id);
                if let Some(conn) = self.clients[c].as_mut() {
                    conn.pending.push_back(Pending::Done(reply));
                }
            }
            Some("shutdown") => {
                // Drain the router too; the broadcast tells every
                // replica to drain as well.
                self.broadcast(c, line, id);
                self.signal.request();
            }
            Some(verb) if BROADCAST_VERBS.contains(&verb) => self.broadcast(c, line, id),
            _ => self.route_stateless(c, line, id),
        }
    }

    /// Sends `line` to the first healthy backend on the client's ring
    /// walk, lazily connecting. Synthesizes `backend_unavailable` when
    /// no backend is reachable.
    fn route_stateless(&mut self, c: usize, line: &str, id: Json) {
        let Some(ring_key) = self.clients[c].as_ref().map(|conn| conn.ring_key) else {
            return;
        };
        // Walk the ring: the owner first, then the failover order. Each
        // reachable-check may eject an unreachable backend, so re-filter
        // through `is_healthy` on every step.
        loop {
            let fleet = Arc::clone(&self.fleet);
            let Some(b) = self
                .ring
                .route_filtered(ring_key, |b| fleet.is_healthy(b as usize))
            else {
                // Whole fleet down.
                let addr = self.fleet.addr(0);
                if let Some(conn) = self.clients[c].as_mut() {
                    conn.pending
                        .push_back(Pending::Done(unavailable_line(&id, addr)));
                }
                return;
            };
            let b = b as usize;
            if let Some(token) = self.send_to_backend(b, line) {
                if let Some(conn) = self.clients[c].as_mut() {
                    conn.pending.push_back(Pending::Await { token, id });
                }
                return;
            }
            // Connect failed: counts toward ejection; if the backend is
            // now ejected the ring walk moves on, otherwise give up on
            // this request (transient refusals stay rare).
            if !self.fleet.record_failure(b) && self.fleet.is_healthy(b) {
                let addr = self.fleet.addr(b);
                if let Some(conn) = self.clients[c].as_mut() {
                    conn.pending
                        .push_back(Pending::Done(unavailable_line(&id, addr)));
                }
                return;
            }
        }
    }

    /// Sends `line` to every healthy backend; the pending entry
    /// resolves once all legs answer (or die).
    fn broadcast(&mut self, c: usize, line: &str, id: Json) {
        let healthy = self.fleet.healthy_indices();
        let mut slots = Vec::new();
        for b in healthy {
            if let Some(token) = self.send_to_backend(b, line) {
                slots.push(BroadcastSlot { token, reply: None });
            } else {
                self.fleet.record_failure(b);
            }
        }
        let pending = if slots.is_empty() {
            // No backend reachable at all.
            Pending::Done(unavailable_line(&id, self.fleet.addr(0)))
        } else {
            Pending::Broadcast { slots, id }
        };
        if let Some(conn) = self.clients[c].as_mut() {
            conn.pending.push_back(pending);
        }
    }

    /// Queues `line` on backend `b`'s connection (opening it lazily),
    /// returning the in-flight token, or `None` when the backend is
    /// unreachable. Replies are framed with no length limit, as
    /// [`Client`] frames them: `max_line_bytes` limits client requests.
    fn send_to_backend(&mut self, b: usize, line: &str) -> Option<u64> {
        if self.backends[b].is_none() {
            let addr = self.fleet.addr(b);
            let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
            self.backends[b] = Some(BackendConn {
                io: LineConn::new(stream, usize::MAX).ok()?,
                inflight: VecDeque::new(),
            });
        }
        let conn = self.backends[b].as_mut()?;
        let token = self.next_token;
        self.next_token += 1;
        conn.io.queue(line.as_bytes());
        conn.io.queue(b"\n");
        conn.inflight.push_back(token);
        Some(token)
    }

    /// The router-local `metrics` reply: fleet topology plus the
    /// process-wide Prometheus exposition.
    fn metrics_line(&self, id: &Json) -> String {
        let snapshot = hmdiv_obs::snapshot();
        let backends: Vec<Json> = (0..self.fleet.len())
            .map(|b| {
                let s = self.fleet.snapshot(b);
                Json::Obj(vec![
                    ("addr".to_owned(), Json::str(s.addr.to_string())),
                    ("healthy".to_owned(), Json::Bool(s.healthy)),
                    (
                        "consecutive_failures".to_owned(),
                        Json::Num(f64::from(s.consecutive_failures)),
                    ),
                    #[allow(clippy::cast_precision_loss)]
                    ("ejections".to_owned(), Json::Num(s.ejections as f64)),
                ])
            })
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let result = Json::Obj(vec![
            (
                "prometheus".to_owned(),
                Json::str(hmdiv_obs::export::to_prometheus(&snapshot)),
            ),
            (
                "fleet".to_owned(),
                Json::Obj(vec![
                    ("backends".to_owned(), Json::Num(self.fleet.len() as f64)),
                    (
                        "healthy".to_owned(),
                        Json::Num(self.fleet.healthy_indices().len() as f64),
                    ),
                    ("members".to_owned(), Json::Arr(backends)),
                ]),
            ),
        ]);
        ok_line(id, None, result)
    }

    /// Drops finished/dead client connections. While draining, an idle
    /// connection (every owed reply flushed) is closed rather than held
    /// open — otherwise a client that simply stays connected would stall
    /// the drain forever.
    fn reap_clients(&mut self, draining: bool) {
        for slot in &mut self.clients {
            let close = match slot {
                Some(conn) => {
                    conn.io.dead()
                        || ((conn.io.eof() || draining)
                            && conn.pending.is_empty()
                            && conn.io.unflushed() == 0)
                }
                None => false,
            };
            if close {
                *slot = None;
            }
        }
    }
}

/// Flushes resolved head-of-queue replies into the socket, preserving
/// request order per connection. Returns whether any byte moved.
fn flush_client(conn: &mut ClientConn) -> bool {
    // Resolve fully-answered broadcasts at the head.
    loop {
        match conn.pending.front_mut() {
            Some(Pending::Broadcast { slots, .. }) if slots.iter().all(|s| s.reply.is_some()) => {
                let line = pick_broadcast_reply(slots);
                *conn.pending.front_mut().expect("front exists") = Pending::Done(line);
            }
            _ => {}
        }
        match conn.pending.front() {
            Some(Pending::Done(_)) => {
                let Some(Pending::Done(line)) = conn.pending.pop_front() else {
                    unreachable!("front was just matched as Done");
                };
                conn.io.queue(line.as_bytes());
            }
            _ => break,
        }
    }
    conn.io.write() > 0
}

/// The broadcast reply the client sees: the lowest-indexed backend's
/// success, or (when every leg failed) the lowest-indexed reply.
fn pick_broadcast_reply(slots: &[BroadcastSlot]) -> String {
    let lines: Vec<&String> = slots.iter().filter_map(|s| s.reply.as_ref()).collect();
    lines
        .iter()
        .find(|line| decode_reply(line).result.is_ok())
        .or_else(|| lines.first())
        .map_or_else(String::new, |line| (*line).clone())
}

/// The health prober: pings every backend each interval, ejects after
/// consecutive failures, re-admits after recovery probes plus a
/// registry sync from a healthy peer.
fn probe_loop(config: &RouterConfig, fleet: &FleetState, signal: &ShutdownSignal) {
    while !signal.wait_timeout(config.probe_interval) {
        for b in 0..fleet.len() {
            let addr = fleet.addr(b);
            if !probe_once(addr, config.probe_timeout) {
                fleet.record_probe_failure(b);
                continue;
            }
            if fleet.record_success(b) == ProbeVerdict::ReadyToReadmit {
                // Two-gate re-admission: the probes proved the process
                // answers; now converge its registry from the
                // lowest-indexed healthy peer before routing to it.
                match sync_from_peer(fleet, b) {
                    Ok(()) => fleet.readmit(b),
                    Err(_) => fleet.recovery_setback(b),
                }
            }
        }
    }
}

/// One health probe: a `ping` on a fresh connection, every step bounded
/// by `timeout`.
fn probe_once(addr: SocketAddr, timeout: Duration) -> bool {
    Client::connect_timeout(addr, timeout)
        .and_then(|mut client| client.request("ping", Vec::new()))
        .is_ok()
}

/// Reconciles backend `b`'s registry from the lowest-indexed healthy
/// peer. A fleet with no healthy peer left has nothing to converge
/// from, which counts as success (the returning backend *is* the
/// fleet).
fn sync_from_peer(fleet: &FleetState, b: usize) -> Result<(), ServeError> {
    let Some(peer) = fleet.healthy_indices().into_iter().find(|&p| p != b) else {
        return Ok(());
    };
    let mut source = Client::connect(fleet.addr(peer))?;
    let mut dest = Client::connect(fleet.addr(b))?;
    sync::reconcile(&mut source, &mut dest).map(drop)
}
