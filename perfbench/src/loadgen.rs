//! The closed-loop load generator: one thread, nonblocking sockets, `poll`
//! readiness. Each connection keeps a fixed number of requests in flight;
//! a reply frees its slot and the next request goes out at once, so a
//! slow server receives less load. Every request is timed from the
//! moment it is written to the moment its reply line arrives, and every
//! reply is checked against the oracle the request was generated with.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hmdiv_serve::json::{self, Json};

use crate::inputs::request_line;
use crate::ledger::{Ledger, Op};
use crate::sys::{self, PollFd};

/// What a correct reply must carry, computed in process when the
/// request was generated.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `{"failure": p}` with `p.to_bits()` equal to this.
    Failure(u64),
    /// `{"failures": [...]}`, element-wise `to_bits` equal.
    Failures(Rc<Vec<u64>>),
    /// A load receipt carrying this content id.
    Receipt(String),
    /// A comparison with this verdict and uniform certificate.
    Verdict {
        verdict: &'static str,
        uniform: Option<&'static str>,
    },
}

/// One request to send: its body after the envelope, whether it writes
/// the registry, and its oracle.
#[derive(Debug, Clone)]
pub struct Request {
    pub tail: Rc<str>,
    pub write: bool,
    pub expect: Expect,
}

/// A request stream: the workload's traffic mix.
pub trait Mix {
    /// The next request on connection `conn`.
    fn next(&mut self, conn: usize) -> Request;
}

/// One completed (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub id: u64,
    pub write: bool,
    pub latency_ns: u64,
    pub ok: bool,
    /// Sent after the warm-up, so it counts in the results.
    pub measured: bool,
    /// When the reply arrived, in nanoseconds from the end of the warm-up.
    pub done_ns: u64,
}

/// A captured request line and the result its reply carried, for the
/// layer replays.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub line: String,
    pub result: Json,
}

/// What one load-generator run produced.
#[derive(Debug, Default)]
pub struct Run {
    pub samples: Vec<Sample>,
    /// Hypervisor steal over the run, sampled every [`STEAL_EVERY`].
    pub steal: Vec<(u64, u64)>,
    /// The generator thread's CPU time over wall time, across the run.
    pub busy_share: f64,
    /// The first few oracle mismatches, for the report.
    pub errors: Vec<String>,
    pub exchanges: Vec<Exchange>,
}

impl Run {
    /// The measured writes.
    pub fn writes(&self) -> Ledger {
        let mut ledger = Ledger::default();
        for s in self.samples.iter().filter(|s| s.measured && s.write) {
            if s.ok {
                ledger.ok(s.latency_ns);
            } else {
                ledger.fail();
            }
        }
        ledger
    }

    /// The measured operations in completion order, for slicing.
    pub fn ops(&self) -> Vec<Op> {
        self.samples
            .iter()
            .filter(|s| s.measured)
            .map(|s| Op {
                done_ns: s.done_ns,
                latency_ns: s.ok.then_some(s.latency_ns),
            })
            .collect()
    }
}

/// How many exchanges (the first ones sent) a run keeps for replays.
const KEEP_EXCHANGES: u64 = 256;
/// How often a run samples hypervisor steal time.
pub const STEAL_EVERY: Duration = Duration::from_millis(50);
/// How long in-flight requests may take to drain after the window.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

struct Inflight {
    id: u64,
    line: Option<String>,
    request: Request,
    at: Instant,
}

struct Conn<'a> {
    stream: &'a mut TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    inflight: VecDeque<Inflight>,
}

impl Conn<'_> {
    fn flush(&mut self) -> Result<(), String> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err("connection closed while writing".into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(())
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed by the server".into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// Checks one reply line against its request's oracle.
pub fn check_reply(id: u64, expect: &Expect, reply: &str) -> Result<Json, String> {
    let value = json::parse(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    if value.get("id").and_then(Json::as_u64) != Some(id) {
        return Err(format!("reply id mismatch for request {id}"));
    }
    if value.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = value.get("error").map_or_else(String::new, |e| {
            let mut s = String::new();
            e.write(&mut s);
            s
        });
        return Err(format!("request {id} failed: {error}"));
    }
    let result = value
        .get("result")
        .cloned()
        .ok_or_else(|| format!("reply {id} has no result"))?;
    let matches = match expect {
        Expect::Failure(bits) => {
            result
                .get("failure")
                .and_then(Json::as_f64)
                .map(f64::to_bits)
                == Some(*bits)
        }
        Expect::Failures(bits) => {
            result
                .get("failures")
                .and_then(Json::as_arr)
                .is_some_and(|got| {
                    got.len() == bits.len()
                        && got
                            .iter()
                            .zip(bits.iter())
                            .all(|(g, b)| g.as_f64().map(f64::to_bits) == Some(*b))
                })
        }
        Expect::Receipt(model_id) => {
            result.get("model_id").and_then(Json::as_str) == Some(model_id.as_str())
        }
        Expect::Verdict { verdict, uniform } => {
            result.get("verdict").and_then(Json::as_str) == Some(*verdict)
                && result.get("uniform").and_then(Json::as_str) == *uniform
        }
    };
    if matches {
        Ok(result)
    } else {
        Err(format!("reply {id} disagrees with the in-process oracle"))
    }
}

/// Drives `streams` with `depth` requests in flight each for `warmup`
/// plus `measure`, then drains what is still in flight. Only requests
/// sent after the warm-up count. Request ids continue from `next_id`.
pub fn run(
    streams: &mut [TcpStream],
    depth: usize,
    mix: &mut dyn Mix,
    (warmup, measure): (Duration, Duration),
    next_id: &mut u64,
) -> Result<Run, String> {
    for s in streams.iter() {
        s.set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
    }
    let mut conns: Vec<Conn<'_>> = streams
        .iter_mut()
        .map(|stream| Conn {
            stream,
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
        })
        .collect();
    let mut out = Run::default();
    let cpu_start = sys::thread_cpu_time();
    let start = Instant::now();
    let measure_start = start + warmup;
    let deadline = measure_start + measure;
    let since_window = |t: Instant| {
        u64::try_from(t.saturating_duration_since(measure_start).as_nanos()).unwrap_or(u64::MAX)
    };
    let mut steal_at = start;
    out.steal.push((0, sys::steal_ticks()));
    let mut sent = 0u64;

    let mut send = |conn: &mut Conn<'_>, index: usize, sent: &mut u64| -> Result<(), String> {
        let request = mix.next(index);
        let id = *next_id;
        *next_id += 1;
        let line = request_line(id, &request.tail);
        conn.out.extend_from_slice(line.as_bytes());
        let keep = *sent < KEEP_EXCHANGES;
        conn.inflight.push_back(Inflight {
            id,
            line: keep.then_some(line),
            request,
            at: Instant::now(),
        });
        *sent += 1;
        conn.flush()
    };

    for (index, conn) in conns.iter_mut().enumerate() {
        for _ in 0..depth {
            send(conn, index, &mut sent)?;
        }
    }
    let mut pollfds: Vec<PollFd> = Vec::with_capacity(conns.len());
    loop {
        if conns.iter().all(|c| c.inflight.is_empty()) {
            break;
        }
        if Instant::now() > deadline + DRAIN_LIMIT {
            return Err("requests still in flight long after the window closed".into());
        }
        if steal_at.elapsed() >= STEAL_EVERY {
            steal_at = Instant::now();
            out.steal.push((since_window(steal_at), sys::steal_ticks()));
        }
        pollfds.clear();
        pollfds.extend(
            conns
                .iter()
                .map(|c| PollFd::new(c.stream.as_raw_fd(), c.written < c.out.len())),
        );
        if sys::wait_ready(&mut pollfds, Duration::from_millis(50)) == 0 {
            continue;
        }
        for (index, (conn, ready)) in conns.iter_mut().zip(&pollfds).enumerate() {
            if ready.writable() {
                conn.flush()?;
            }
            if !ready.readable() {
                continue;
            }
            conn.fill()?;
            let now = Instant::now();
            let mut consumed = 0;
            while let Some(nl) = conn.inbuf[consumed..].iter().position(|&b| b == b'\n') {
                let end = consumed + nl;
                let flight = conn
                    .inflight
                    .pop_front()
                    .ok_or("a reply arrived for no request")?;
                let reply = std::str::from_utf8(&conn.inbuf[consumed..end])
                    .map_err(|_| "reply is not UTF-8".to_string());
                consumed = end + 1;
                let checked =
                    reply.and_then(|text| check_reply(flight.id, &flight.request.expect, text));
                let measured = flight.at >= measure_start;
                let ok = match checked {
                    Ok(result) => {
                        if let Some(line) = flight.line {
                            out.exchanges.push(Exchange { line, result });
                        }
                        true
                    }
                    Err(e) => {
                        if out.errors.len() < 5 {
                            out.errors.push(e);
                        }
                        false
                    }
                };
                out.samples.push(Sample {
                    id: flight.id,
                    write: flight.request.write,
                    latency_ns: u64::try_from(now.duration_since(flight.at).as_nanos())
                        .unwrap_or(u64::MAX),
                    ok,
                    measured,
                    done_ns: since_window(now),
                });
                if now < deadline {
                    send(conn, index, &mut sent)?;
                }
            }
            conn.inbuf.drain(..consumed);
        }
    }
    out.steal
        .push((since_window(Instant::now()), sys::steal_ticks()));
    let wall = start.elapsed();
    out.busy_share = (sys::thread_cpu_time() - cpu_start).as_secs_f64() / wall.as_secs_f64();
    for s in streams.iter() {
        s.set_nonblocking(false)
            .map_err(|e| format!("blocking: {e}"))?;
    }
    Ok(out)
}
