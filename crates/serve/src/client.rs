//! A small blocking client for the JSON-lines protocol.
//!
//! One request per call with [`Client::request`], or many at once with
//! [`Client::pipeline`] — the latter writes every request before reading
//! any response, so the server frames and answers them together in one
//! pass per read. Each reply line is parsed once, by
//! [`protocol::decode_reply`](crate::protocol::decode_reply).
//! [`Client::connect_timeout`] bounds the connect and every later read
//! and write, for callers such as a health prober that must not hang on
//! a stalled server.
//!
//! Reconnection is **off by default**: a connection failure surfaces as a
//! typed [`ServeError::Io`]. Opting in with [`Client::with_retry`] makes
//! the client survive a server restart (or a fleet failover) by
//! reconnecting with jittered exponential backoff and replaying the
//! in-flight pipeline — safe because every verb in the protocol is
//! idempotent (loads are content-addressed, evaluations are pure).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ServeError;
use crate::json::Json;
use crate::protocol::{decode_reply, LineEvent, LineReader, TracedResponse};

/// Bounded reconnect-with-backoff policy for [`Client::with_retry`].
///
/// On a retryable transport failure (`ConnectionRefused`,
/// `ConnectionReset`, `ConnectionAborted`, `BrokenPipe`, or the server
/// closing mid-response) the client sleeps `base_delay * 2^(attempt-1)`
/// — capped at `max_delay` and jittered to 50–100% of the nominal value
/// by a [`StdRng`] seeded from `seed`, so a herd of restarted clients
/// does not reconnect in lockstep — then reconnects and replays the
/// whole pipeline. After `budget` failed attempts the original error
/// surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum reconnect attempts per exchange (and per initial connect
    /// in [`Client::connect_with_retry`]).
    pub budget: u32,
    /// Nominal delay before the first retry; doubles every attempt.
    pub base_delay: Duration,
    /// Upper bound on the nominal backoff delay.
    pub max_delay: Duration,
    /// Seed for the jitter RNG (deterministic per client).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 3,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_millis(500),
            seed: 2003,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff delay before retry `attempt` (1-based).
    fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let nominal = self
            .base_delay
            .saturating_mul(1_u32 << doublings)
            .min(self.max_delay);
        nominal.mul_f64(rng.gen_range(0.5..=1.0))
    }
}

/// Whether a transport failure is worth a reconnect: the kinds a server
/// restart or a fleet failover produces, as opposed to protocol bugs.
fn retryable(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof
    )
}

/// A transport-level exchange failure, split into the kinds a reconnect
/// can cure and the ones it cannot (malformed responses).
enum ExchangeError {
    Transport(std::io::Error),
    Fatal(ServeError),
}

/// A blocking connection to an evaluation server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// The resolved peer address, kept so reconnects hit the same server.
    addr: SocketAddr,
    /// Frames response lines, which have no length limit.
    reader: LineReader,
    next_id: u64,
    retry: Option<(RetryPolicy, StdRng)>,
}

impl Client {
    /// Connects to a server. No reconnection: transport failures surface
    /// immediately (see [`Client::with_retry`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Client::new(connect_stream(addr)?, None)
    }

    /// Connects within `timeout`, and bounds every later read and write
    /// on the connection by it too, so a server that stops answering
    /// fails the call instead of hanging it. No reconnection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connection failure; later, a read or write
    /// that times out fails its call with [`ServeError::Io`].
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<Client, ServeError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Client::new(stream, None)
    }

    fn new(stream: TcpStream, retry: Option<(RetryPolicy, StdRng)>) -> Result<Client, ServeError> {
        Ok(Client {
            addr: stream.peer_addr()?,
            stream,
            reader: LineReader::new(usize::MAX),
            next_id: 1,
            retry,
        })
    }

    /// Connects with `policy` applied to the initial connection *and* to
    /// every later exchange, so a client started before its server (or
    /// pointed at a restarting replica) rides out the gap.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] once the retry budget is exhausted.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<Client, ServeError> {
        let mut rng = StdRng::seed_from_u64(policy.seed);
        let mut attempt = 0_u32;
        let stream = loop {
            match connect_stream(&addr) {
                Ok(stream) => break stream,
                Err(e) => {
                    let ServeError::Io { .. } = &e else {
                        return Err(e);
                    };
                    if attempt >= policy.budget {
                        return Err(e);
                    }
                    attempt += 1;
                    std::thread::sleep(policy.delay(attempt, &mut rng));
                }
            }
        };
        Client::new(stream, Some((policy, rng)))
    }

    /// Enables reconnect-with-backoff on an existing client.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client {
        let rng = StdRng::seed_from_u64(policy.seed);
        self.retry = Some((policy, rng));
        self
    }

    /// Sends one request and waits for its response.
    ///
    /// `fields` are the verb's body members; `id` and `verb` are filled
    /// in automatically. Returns the `result` object of a successful
    /// response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] carrying the server's wire error;
    /// [`ServeError::Io`]/[`ServeError::Parse`] for transport failures.
    pub fn request(&mut self, verb: &str, fields: Vec<(String, Json)>) -> Result<Json, ServeError> {
        let mut results = self.pipeline(vec![(verb.to_owned(), fields)])?;
        results.pop().ok_or_else(|| ServeError::Io {
            detail: "server closed without responding".to_owned(),
        })?
    }

    /// Sends every request before reading any response, then returns the
    /// per-request outcomes in order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`]/[`ServeError::Parse`] for transport failures;
    /// per-request server errors come back inside the result vector.
    #[allow(clippy::type_complexity)]
    pub fn pipeline(
        &mut self,
        requests: Vec<(String, Vec<(String, Json)>)>,
    ) -> Result<Vec<Result<Json, ServeError>>, ServeError> {
        Ok(self
            .pipeline_traced(requests)?
            .into_iter()
            .map(|r| r.result)
            .collect())
    }

    /// [`Client::pipeline`], keeping each response's echoed `trace_id` so
    /// callers can correlate replies with server-side flight-recorder
    /// records. The id is `None` when the server echoed none (tracing
    /// disabled and no client-supplied `trace_id` field).
    ///
    /// # Errors
    ///
    /// As [`Client::pipeline`].
    pub fn pipeline_traced(
        &mut self,
        requests: Vec<(String, Vec<(String, Json)>)>,
    ) -> Result<Vec<TracedResponse>, ServeError> {
        let mut wire = String::new();
        let count = requests.len();
        for (verb, fields) in requests {
            let mut members = vec![
                ("id".to_owned(), Json::Num(self.next_id as f64)),
                ("verb".to_owned(), Json::str(verb)),
            ];
            self.next_id += 1;
            members.extend(fields);
            Json::Obj(members).write(&mut wire);
            wire.push('\n');
        }
        let mut attempt = 0_u32;
        let lines = loop {
            match self.exchange(&wire, count) {
                Ok(lines) => break lines,
                Err(ExchangeError::Fatal(e)) => return Err(e),
                Err(ExchangeError::Transport(e)) => {
                    let can_retry = self
                        .retry
                        .as_ref()
                        .is_some_and(|(policy, _)| attempt < policy.budget)
                        && retryable(e.kind());
                    if !can_retry {
                        return Err(e.into());
                    }
                    attempt += 1;
                    // Partial responses from the dead connection are
                    // stale; the replay reads a fresh, complete set.
                    self.reader = LineReader::new(usize::MAX);
                    if let Some((policy, rng)) = self.retry.as_mut() {
                        std::thread::sleep(policy.delay(attempt, rng));
                    }
                    match TcpStream::connect(self.addr) {
                        Ok(stream) => {
                            stream.set_nodelay(true).map_err(ServeError::from)?;
                            self.stream = stream;
                        }
                        // A refused reconnect burns an attempt and loops:
                        // the next exchange's write fails fast and lands
                        // back here until the budget runs out.
                        Err(e) if retryable(e.kind()) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
            }
        };
        Ok(lines.iter().map(|line| decode_reply(line)).collect())
    }

    /// One write-then-read-all exchange over the current stream.
    fn exchange(&mut self, wire: &str, count: usize) -> Result<Vec<String>, ExchangeError> {
        self.stream
            .write_all(wire.as_bytes())
            .map_err(ExchangeError::Transport)?;
        self.stream.flush().map_err(ExchangeError::Transport)?;
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            lines.push(self.read_line()?);
        }
        Ok(lines)
    }

    /// Reads one newline-terminated response line.
    fn read_line(&mut self) -> Result<String, ExchangeError> {
        let mut chunk = [0_u8; 8 * 1024];
        loop {
            match self.reader.next_event() {
                Some(LineEvent::Line(line)) => return Ok(line),
                Some(LineEvent::InvalidUtf8 | LineEvent::TooLong { .. }) => {
                    return Err(ExchangeError::Fatal(ServeError::Parse {
                        detail: "response line is not valid UTF-8".to_owned(),
                    }));
                }
                None => {}
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(ExchangeError::Transport)?;
            if n == 0 {
                return Err(ExchangeError::Transport(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                )));
            }
            self.reader.push(&chunk[..n]);
        }
    }
}

/// Connects and sets `TCP_NODELAY` (request lines are latency-sensitive).
fn connect_stream(addr: impl ToSocketAddrs) -> Result<TcpStream, ServeError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let policy = RetryPolicy {
            budget: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(35),
            seed: 7,
        };
        let mut rng = StdRng::seed_from_u64(policy.seed);
        for (attempt, nominal_ms) in [(1_u32, 10.0_f64), (2, 20.0), (3, 35.0), (4, 35.0)] {
            let d = policy.delay(attempt, &mut rng).as_secs_f64() * 1e3;
            assert!(
                d >= nominal_ms * 0.5 - 1e-9 && d <= nominal_ms + 1e-9,
                "attempt {attempt}: {d}ms outside [{:.1}, {nominal_ms}]",
                nominal_ms * 0.5
            );
        }
        // Determinism: the same seed replays the same jitter sequence.
        let mut a = StdRng::seed_from_u64(policy.seed);
        let mut b = StdRng::seed_from_u64(policy.seed);
        assert_eq!(policy.delay(2, &mut a), policy.delay(2, &mut b));
    }

    #[test]
    fn retryable_kinds_are_exactly_the_restart_signatures() {
        for kind in [
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(retryable(kind), "{kind:?}");
        }
        assert!(!retryable(ErrorKind::PermissionDenied));
        assert!(!retryable(ErrorKind::InvalidData));
    }

    #[test]
    fn exhausted_budget_surfaces_the_connect_error() {
        // Nothing listens on a bound-then-dropped port most of the time;
        // either way the budget bounds the attempts and a typed Io error
        // (never a panic or a hang) comes back.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            budget: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            seed: 1,
        };
        match Client::connect_with_retry(addr, policy) {
            Err(ServeError::Io { .. }) => {}
            Err(other) => panic!("expected Io, got {other:?}"),
            // The OS may hand the port to someone else between bind and
            // connect; a successful connect is not a retry-logic failure.
            Ok(_) => {}
        }
    }
}
