//! A built-in load generator for the event-driven server.
//!
//! One thread drives an arbitrary number of concurrent keep-alive
//! connections, each a [`LineConn`] — the nonblocking, newline-framed
//! connection the server's poller shards run on — read through one
//! scratch buffer, so a single benchmark process can hold a thousand open
//! sockets against a poller pool without spawning a thousand client
//! threads. Each connection pipelines up to `pipeline_depth` copies of
//! one request line and keeps refilling until its per-connection quota
//! is sent, then half-closes and drains. When a sweep moves no bytes,
//! the driver blocks in a [`readiness`] wait on its
//! unfinished connections, at most 2 ms at a time and never past its
//! timeout.
//!
//! Replies are decoded by
//! [`protocol::decode_reply`](crate::protocol::decode_reply) and
//! classified by their wire shape — served (`"ok":true`), shed
//! (`overloaded` / `deadline_exceeded` error codes), or other errors —
//! which is exactly the data the shed-vs-served admission curves in the
//! benchmark reports need.
//!
//! Multiple [`targets`](LoadgenConfig::targets) are driven in one run:
//! connections round-robin across them and the report carries a
//! [per-target split](LoadgenReport::per_target) alongside the totals,
//! so one run can compare direct-to-replica against through-router
//! service or spot an unhealthy fleet member by its error share.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::conn::{LineConn, CHUNK};
use crate::error::ServeError;
use crate::protocol::{decode_reply, LineEvent};
use crate::readiness;

/// Longest single readiness wait between sweeps that moved no bytes.
const IDLE_WAIT: Duration = Duration::from_millis(2);

/// What the generator should drive at the server(s).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server addresses; connections are assigned round-robin
    /// (connection `i` targets `targets[i % targets.len()]`).
    pub targets: Vec<SocketAddr>,
    /// Concurrent keep-alive connections to hold open, across all
    /// targets.
    pub connections: usize,
    /// Requests each connection keeps in flight.
    pub pipeline_depth: usize,
    /// Requests each connection sends before half-closing.
    pub requests_per_connection: usize,
    /// The request to send, newline included (the same line is repeated;
    /// the server's framing does not need unique ids).
    pub request_line: String,
    /// Abort the run if it has not drained by then.
    pub timeout: Duration,
}

/// One target's share of the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSplit {
    /// The target address.
    pub addr: SocketAddr,
    /// Connections assigned to this target (including ones that failed
    /// to open).
    pub connections: usize,
    /// Request lines fully queued on this target's connections.
    pub sent: u64,
    /// Replies with `"ok":true`.
    pub served: u64,
    /// Replies rejected by admission control (`overloaded`).
    pub shed_overloaded: u64,
    /// Replies past their deadline (`deadline_exceeded`).
    pub shed_deadline: u64,
    /// Every other reply or transport failure.
    pub errors: u64,
}

impl TargetSplit {
    fn new(addr: SocketAddr) -> TargetSplit {
        TargetSplit {
            addr,
            connections: 0,
            sent: 0,
            served: 0,
            shed_overloaded: 0,
            shed_deadline: 0,
            errors: 0,
        }
    }
}

/// What came back, bucketed for shed-vs-served curves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadgenReport {
    /// Connections the run opened.
    pub connections: usize,
    /// Connections that sent their full quota and drained every reply.
    pub completed_connections: usize,
    /// Request lines fully written to sockets.
    pub sent: u64,
    /// Replies with `"ok":true`.
    pub served: u64,
    /// Replies rejected by admission control (`overloaded`).
    pub shed_overloaded: u64,
    /// Replies past their deadline (`deadline_exceeded`).
    pub shed_deadline: u64,
    /// Every other reply or transport failure.
    pub errors: u64,
    /// Wall-clock for the whole run, in nanoseconds (kept integral so
    /// reports serialize without float noise).
    pub elapsed_ns: u128,
    /// The same ledger split by target, in [`LoadgenConfig::targets`]
    /// order. Column sums equal the totals above.
    pub per_target: Vec<TargetSplit>,
}

impl LoadgenReport {
    /// Replies accounted for across all buckets.
    #[must_use]
    pub fn replies(&self) -> u64 {
        self.served + self.shed_overloaded + self.shed_deadline + self.errors
    }

    /// Charges one classified reply to the totals and to `target`'s
    /// split.
    fn charge(&mut self, target: usize, bucket: Bucket) {
        let split = &mut self.per_target[target];
        match bucket {
            Bucket::Served => {
                self.served += 1;
                split.served += 1;
            }
            Bucket::ShedOverloaded => {
                self.shed_overloaded += 1;
                split.shed_overloaded += 1;
            }
            Bucket::ShedDeadline => {
                self.shed_deadline += 1;
                split.shed_deadline += 1;
            }
            Bucket::Error => {
                self.errors += 1;
                split.errors += 1;
            }
        }
    }

    fn charge_sent(&mut self, target: usize) {
        self.sent += 1;
        self.per_target[target].sent += 1;
    }

    fn charge_errors(&mut self, target: usize, n: u64) {
        self.errors += n;
        self.per_target[target].errors += n;
    }
}

/// One driven connection's progress.
struct Driven {
    /// Frames replies of any length.
    io: LineConn,
    /// Index into [`LoadgenConfig::targets`] this connection drives.
    target: usize,
    /// Request lines fully queued (the kernel may still owe some of
    /// their bytes).
    sent: usize,
    /// Reply lines consumed.
    got: usize,
    /// Set when the socket died before the ledger balanced.
    failed: bool,
    done: bool,
}

impl Driven {
    fn connect(addr: SocketAddr, target: usize) -> std::io::Result<Driven> {
        Ok(Driven {
            io: LineConn::new(TcpStream::connect(addr)?, usize::MAX)?,
            target,
            sent: 0,
            got: 0,
            failed: false,
            done: false,
        })
    }

    /// Runs one nonblocking step: top up the pipeline, push writes, pull
    /// and classify replies. Returns whether any byte moved.
    fn step(
        &mut self,
        cfg: &LoadgenConfig,
        report: &mut LoadgenReport,
        scratch: &mut [u8],
    ) -> bool {
        if self.done {
            return false;
        }
        let quota = cfg.requests_per_connection;
        // Keep `pipeline_depth` requests outstanding until the quota is
        // queued.
        while self.sent < quota && self.sent - self.got < cfg.pipeline_depth {
            self.io.queue(cfg.request_line.as_bytes());
            self.sent += 1;
            report.charge_sent(self.target);
        }
        let wrote = self.io.write();
        if wrote > 0 && self.io.unflushed() == 0 && self.sent == quota {
            // Quota fully written: half-close so the server sees EOF
            // once its replies drain.
            self.io.half_close();
        }
        let read = self.io.read(scratch, usize::MAX);
        while let Some(event) = self.io.next_event() {
            let bucket = match event {
                LineEvent::Line(line) => classify(&line),
                LineEvent::TooLong { .. } | LineEvent::InvalidUtf8 => Bucket::Error,
            };
            report.charge(self.target, bucket);
            self.got += 1;
        }
        let owed = self.got < self.sent || self.sent < quota;
        if self.io.dead() || (self.io.eof() && owed) {
            // The socket died, or the server hung up with replies (or
            // quota) owed.
            self.fail(report);
        } else if !owed && self.io.unflushed() == 0 {
            // Full quota sent, every reply in, nothing left to write.
            // The server will close after our half-close, but the
            // ledger is already balanced.
            self.done = true;
        }
        wrote > 0 || read > 0 || self.done
    }

    /// Marks the connection dead and charges every unanswered request to
    /// the error bucket so the ledger still balances.
    fn fail(&mut self, report: &mut LoadgenReport) {
        report.charge_errors(self.target, (self.sent - self.got) as u64);
        self.failed = true;
        self.done = true;
    }
}

/// A classified reply line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Served,
    ShedOverloaded,
    ShedDeadline,
    Error,
}

/// Buckets one reply line by its wire shape.
fn classify(line: &str) -> Bucket {
    match decode_reply(line).result {
        Ok(_) => Bucket::Served,
        Err(ServeError::Remote { code, .. }) => match code.as_str() {
            "overloaded" => Bucket::ShedOverloaded,
            "deadline_exceeded" => Bucket::ShedDeadline,
            _ => Bucket::Error,
        },
        Err(_) => Bucket::Error,
    }
}

/// Drives the configured load at the targets and reports the buckets.
///
/// # Errors
///
/// [`ServeError::BadRequest`] when `targets` is empty;
/// [`ServeError::Io`] if the very first connection cannot be opened
/// (later connection failures are tallied in the report instead).
#[allow(clippy::missing_panics_doc)] // timeout arithmetic cannot panic
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, ServeError> {
    assert!(cfg.pipeline_depth > 0, "pipeline_depth must be positive");
    if cfg.targets.is_empty() {
        return Err(ServeError::BadRequest {
            detail: "loadgen needs at least one target".to_owned(),
        });
    }
    let start = Instant::now();
    let mut report = LoadgenReport {
        per_target: cfg.targets.iter().copied().map(TargetSplit::new).collect(),
        ..LoadgenReport::default()
    };
    let mut conns = Vec::with_capacity(cfg.connections);
    for i in 0..cfg.connections {
        let target = i % cfg.targets.len();
        report.per_target[target].connections += 1;
        match Driven::connect(cfg.targets[target], target) {
            Ok(c) => conns.push(c),
            Err(e) if i == 0 => return Err(ServeError::from(e)),
            Err(_) => report.charge_errors(target, 1),
        }
        // Pace the connect burst: the listener's accept backlog is
        // finite and the accept loop shares the box with the pollers.
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    report.connections = conns.len();
    let mut interest = Vec::new();
    let mut scratch = vec![0_u8; CHUNK];
    while conns.iter().any(|c| !c.done) {
        if start.elapsed() > cfg.timeout {
            for c in &mut conns {
                if !c.done {
                    c.fail(&mut report);
                }
            }
            break;
        }
        let mut progressed = false;
        for c in &mut conns {
            progressed |= c.step(cfg, &mut report, &mut scratch);
        }
        if !progressed {
            interest.clear();
            interest.extend(
                conns
                    .iter()
                    .filter(|c| !c.done)
                    .filter_map(|c| c.io.interest(true)),
            );
            let left = cfg.timeout.saturating_sub(start.elapsed());
            readiness::wait_ready(&mut interest, left.min(IDLE_WAIT));
        }
    }
    report.completed_connections = conns.iter().filter(|c| c.done && !c.failed).count();
    report.elapsed_ns = start.elapsed().as_nanos();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_buckets_by_wire_shape() {
        assert_eq!(
            classify(r#"{"id":1,"ok":true,"result":{"pong":true}}"#),
            Bucket::Served
        );
        assert_eq!(
            classify(r#"{"id":2,"ok":false,"error":{"code":"overloaded","message":"x"}}"#),
            Bucket::ShedOverloaded
        );
        assert_eq!(
            classify(r#"{"id":3,"ok":false,"error":{"code":"deadline_exceeded","message":"x"}}"#),
            Bucket::ShedDeadline
        );
        assert_eq!(
            classify(r#"{"id":4,"ok":false,"error":{"code":"bad_request"}}"#),
            Bucket::Error
        );
        assert_eq!(classify("not json at all"), Bucket::Error);
    }

    #[test]
    fn per_target_splits_sum_to_the_totals() {
        let a: SocketAddr = "127.0.0.1:1001".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:1002".parse().unwrap();
        let mut report = LoadgenReport {
            per_target: vec![TargetSplit::new(a), TargetSplit::new(b)],
            ..LoadgenReport::default()
        };
        report.charge_sent(0);
        report.charge_sent(1);
        report.charge_sent(1);
        report.charge(0, Bucket::Served);
        report.charge(1, Bucket::Served);
        report.charge(1, Bucket::ShedOverloaded);
        report.charge(0, Bucket::ShedDeadline);
        report.charge_errors(1, 3);
        assert_eq!(report.sent, 3);
        assert_eq!(
            report.per_target.iter().map(|t| t.sent).sum::<u64>(),
            report.sent
        );
        assert_eq!(
            report.per_target.iter().map(|t| t.served).sum::<u64>(),
            report.served
        );
        assert_eq!(
            report.per_target.iter().map(|t| t.errors).sum::<u64>(),
            report.errors
        );
        assert_eq!(report.per_target[1].shed_overloaded, 1);
        assert_eq!(report.per_target[0].shed_deadline, 1);
        assert_eq!(report.replies(), 7);
    }

    #[test]
    fn empty_target_list_is_a_typed_error() {
        let cfg = LoadgenConfig {
            targets: Vec::new(),
            connections: 1,
            pipeline_depth: 1,
            requests_per_connection: 1,
            request_line: "{}\n".into(),
            timeout: Duration::from_secs(1),
        };
        assert!(matches!(run(&cfg), Err(ServeError::BadRequest { .. })));
    }
}
