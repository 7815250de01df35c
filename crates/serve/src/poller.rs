//! The readiness-poller pool: a small fixed set of threads multiplexing
//! every client connection over nonblocking `std::net` sockets.
//!
//! Accepted sockets are registered round-robin onto poller **shards**.
//! Each shard owns its connections outright — no cross-thread connection
//! state — and runs every request it frames to completion on its own
//! thread. Each connection is a [`LineConn`] plus the trace stamps of the
//! replies it owes, and a pass over it makes three moves:
//!
//! 1. **read**: pull at most [`READ_BUDGET`] bytes through the shard's one
//!    scratch buffer, unless the connection is over its write
//!    high-watermark ([`LineConn::wants_read`]) — backpressure propagates
//!    to the client's TCP window instead of server memory;
//! 2. **answer**: frame each complete line and answer it — parse, admit,
//!    evaluate, render — into the write queue, in request order. A reply
//!    that leaves at least [`CHUNK`] bytes queued is written at once, so
//!    the client reads it while later lines are answered; smaller replies
//!    leave together in the pass's write;
//! 3. **write**: push queued bytes until the socket would block,
//!    completing trace records as their byte ranges reach the kernel.
//!
//! Each line is answered before the next is framed, so pipelined clients
//! get their replies in request order, bit-identical to a direct
//! in-process evaluation.
//!
//! When a pass moves nothing, the shard blocks in one `poll(2)` wait
//! ([`readiness::wait_ready`]) on its connections and its **doorbell**, a
//! socket pair that the accept loop rings after handing the shard a
//! connection and at shutdown. A connection asks to be read unless it is
//! at EOF, dead, shutting down or over the watermark — a level-triggered
//! EOF left in the set would end every wait and spin the shard — and to
//! be written while bytes are queued. The shard empties the doorbell
//! after each wait and before it takes its inbox, so a handoff that lands
//! mid-pass ends the next wait. [`IDLE_WAIT`] bounds the wait only as a
//! backstop.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conn::{LineConn, CHUNK, READ_BUDGET};
use crate::error::ServeError;
use crate::json::Json;
use crate::protocol::LineEvent;
use crate::readiness::{self, PollFd};
use crate::server::{self, Ctx, PendingTrace};

/// Timeout of the shard's readiness wait. Every event a shard acts on
/// ends the wait sooner, so this is only a backstop.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// One poller shard's shared half: the accept loop hands it connections
/// through here.
struct Shard {
    inbox: Mutex<Vec<TcpStream>>,
    /// The doorbell's write end; the shard thread owns the read end.
    bell: UnixStream,
}

impl Shard {
    fn inbox(&self) -> MutexGuard<'_, Vec<TcpStream>> {
        self.inbox
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Queues `stream` for the shard and rings its doorbell.
    fn hand(&self, stream: TcpStream) {
        self.inbox().push(stream);
        self.ring();
    }

    /// Writes one byte to the doorbell. `WouldBlock` means the doorbell
    /// is full, so a ring is already pending.
    fn ring(&self) {
        drop((&self.bell).write(&[1]));
    }
}

/// Empties a doorbell: the pass that follows answers every ring it held.
fn silence(mut doorbell: &UnixStream) {
    let mut rings = [0_u8; 64];
    while matches!(doorbell.read(&mut rings), Ok(n) if n > 0) {}
}

/// The fixed pool of readiness-poller threads.
pub(crate) struct PollerPool {
    shards: Vec<Arc<Shard>>,
    handles: Vec<JoinHandle<()>>,
    next: AtomicUsize,
}

impl std::fmt::Debug for PollerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollerPool")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl PollerPool {
    /// Spawns `threads` poller shards (at least one).
    pub(crate) fn start(threads: usize, ctx: &Arc<Ctx>) -> Result<PollerPool, ServeError> {
        let threads = threads.max(1);
        let mut shards = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (bell, doorbell) = UnixStream::pair()?;
            bell.set_nonblocking(true)?;
            doorbell.set_nonblocking(true)?;
            let shard = Arc::new(Shard {
                inbox: Mutex::new(Vec::new()),
                bell,
            });
            let thread_shard = Arc::clone(&shard);
            let thread_ctx = Arc::clone(ctx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hmdiv-serve-poll-{i}"))
                    .spawn(move || run_shard(&thread_shard, &doorbell, &thread_ctx))?,
            );
            shards.push(shard);
        }
        Ok(PollerPool {
            shards,
            handles,
            next: AtomicUsize::new(0),
        })
    }

    /// Hands an accepted socket to the next shard, round-robin.
    pub(crate) fn register(&self, stream: TcpStream) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[i].hand(stream);
    }

    /// Rings every shard (the shutdown signal is already latched) and
    /// joins them; each shard answers the lines it has read and finishes
    /// writing what it owes before exiting.
    pub(crate) fn stop_and_join(self) {
        for shard in &self.shards {
            shard.ring();
        }
        for handle in self.handles {
            drop(handle.join());
        }
    }
}

fn run_shard(shard: &Shard, doorbell: &UnixStream, ctx: &Ctx) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut interest = Vec::new();
    let mut scratch = vec![0_u8; CHUNK];
    loop {
        hmdiv_obs::counter_add("serve.poll.wakeups", 1);
        let shutdown = ctx.signal.is_requested();
        let newcomers = std::mem::take(&mut *shard.inbox());
        for stream in newcomers {
            match Conn::adopt(stream, ctx.max_line_bytes) {
                Some(conn) => {
                    conns.push(conn);
                    server::connection_opened(ctx);
                }
                None => hmdiv_obs::counter_add("serve.conn_setup_failures", 1),
            }
        }
        let mut progress = false;
        for conn in &mut conns {
            progress |= conn.pass(ctx, shutdown, &mut scratch);
        }
        conns.retain(|conn| {
            if conn.done(shutdown) {
                server::connection_closed(ctx);
                false
            } else {
                true
            }
        });
        if shutdown && conns.is_empty() && shard.inbox().is_empty() {
            return;
        }
        if !progress {
            wait(doorbell, &conns, shutdown, &mut interest);
            // Before the signal and the inbox are read again: a ring
            // that lands after this stays pending and ends the next wait.
            silence(doorbell);
        }
    }
}

/// Blocks until the doorbell rings, a connection is ready for what it
/// asks, or [`IDLE_WAIT`] passes.
fn wait(doorbell: &UnixStream, conns: &[Conn], shutdown: bool, interest: &mut Vec<PollFd>) {
    interest.clear();
    interest.push(PollFd::new(doorbell, true, false));
    interest.extend(
        conns
            .iter()
            .filter_map(|conn| conn.io.interest(conn.wants_read(shutdown))),
    );
    readiness::wait_ready(interest, IDLE_WAIT);
}

/// A byte range of the write queue whose flush completes a traced
/// request: once `end` bytes have reached the kernel (an offset on the
/// connection's lifetime [`LineConn::flushed`] scale), the record's write
/// stage is stamped and it lands in the flight recorder.
struct WriteMark {
    end: u64,
    trace: PendingTrace,
}

/// One multiplexed connection: its line I/O plus the trace stamps of
/// the requests it is answering.
struct Conn {
    io: LineConn,
    marks: VecDeque<WriteMark>,
    /// When the oldest still-queued reply started waiting — the
    /// write-stage start for every mark completed in this drain cycle.
    write_start: Option<Instant>,
    /// When the first pass of the current read batch got bytes (the
    /// read-stage start for the requests they frame).
    read_start: Option<Instant>,
}

impl Conn {
    /// Puts the socket into multiplexed mode; `None` if setup syscalls
    /// fail (the stream drops, resetting the connection).
    fn adopt(stream: TcpStream, max_line_bytes: usize) -> Option<Conn> {
        Some(Conn {
            io: LineConn::new(stream, max_line_bytes).ok()?,
            marks: VecDeque::new(),
            write_start: None,
            read_start: None,
        })
    }

    /// Whether the connection should be read: [`LineConn::wants_read`],
    /// and not shutting down.
    fn wants_read(&self, shutdown: bool) -> bool {
        !shutdown && self.io.wants_read()
    }

    /// One full state-machine pass; returns whether anything moved.
    fn pass(&mut self, ctx: &Ctx, shutdown: bool, scratch: &mut [u8]) -> bool {
        let mut progress = false;
        if self.wants_read(shutdown) {
            if self.io.read(scratch, READ_BUDGET) > 0 {
                self.read_start.get_or_insert_with(Instant::now);
                progress = true;
            }
            progress |= self.io.eof() || self.io.dead();
        }
        progress |= self.answer_lines(ctx);
        progress |= self.write_some(ctx);
        progress
    }

    /// Everything owed has been written (or can never be): drop the
    /// connection.
    fn done(&self, shutdown: bool) -> bool {
        self.io.dead()
            || (self.io.unflushed() == 0 && self.marks.is_empty() && (self.io.eof() || shutdown))
    }

    /// Frames each complete buffered line and answers it into the write
    /// queue, in order. Framing faults become error replies — the
    /// connection survives both over-limit lines (the reader resyncs to
    /// the next newline) and invalid UTF-8.
    fn answer_lines(&mut self, ctx: &Ctx) -> bool {
        let mut framed = None;
        while let Some(event) = self.io.next_event() {
            // One receive instant per pass: everything framed together
            // traces the same read span.
            let (received, read_start) =
                *framed.get_or_insert_with(|| (Instant::now(), self.read_start.take()));
            let (line, trace) = match event {
                LineEvent::Line(line) => server::answer_line(&line, received, read_start, ctx),
                LineEvent::TooLong { limit } => {
                    hmdiv_obs::counter_add("serve.line_too_long", 1);
                    let e = ServeError::LineTooLong { limit };
                    (server::error_line(&Json::Null, None, &e), None)
                }
                LineEvent::InvalidUtf8 => {
                    let e = ServeError::Parse {
                        detail: "request line is not valid UTF-8".to_owned(),
                    };
                    (server::error_line(&Json::Null, None, &e), None)
                }
            };
            self.write_start.get_or_insert_with(Instant::now);
            self.io.queue(line.as_bytes());
            if let Some(trace) = trace {
                let end = self.io.flushed() + self.io.unflushed() as u64;
                self.marks.push_back(WriteMark { end, trace });
            }
            if self.io.unflushed() >= CHUNK {
                self.write_some(ctx);
            }
        }
        framed.is_some()
    }

    /// Writes queued bytes until the socket would block, completing
    /// trace records whose byte ranges have fully reached the kernel. A
    /// dead connection completes its records without a write stamp — the
    /// replies never made it, but sheds stay observable.
    fn write_some(&mut self, ctx: &Ctx) -> bool {
        if self.io.unflushed() == 0 && self.marks.is_empty() {
            return false;
        }
        let mut progress = self.io.write() > 0;
        let span = self.write_start.map(|start| (start, Instant::now()));
        let mut shed = false;
        while let Some(mark) = self.marks.pop_front_if(|m| m.end <= self.io.flushed()) {
            shed |= server::complete_trace(ctx, mark.trace, span);
            progress = true;
        }
        if self.io.dead() {
            for mark in self.marks.drain(..) {
                shed |= server::complete_trace(ctx, mark.trace, None);
                progress = true;
            }
        }
        if shed {
            server::dump_on_shed(ctx);
        }
        if self.io.unflushed() == 0 && self.marks.is_empty() {
            self.write_start = None;
        }
        progress
    }
}

#[cfg(test)]
mod tests {
    //! The doorbell handoff. These tests need a socket pair and
    //! `poll(2)`, which Miri does not run; the shards' one shared state,
    //! admission, has its Miri tests in `crate::admission`.

    use super::*;
    use std::net::TcpListener;

    fn shard() -> (Shard, UnixStream) {
        let (bell, doorbell) = UnixStream::pair().expect("socket pair");
        bell.set_nonblocking(true).expect("nonblocking bell");
        doorbell
            .set_nonblocking(true)
            .expect("nonblocking doorbell");
        let shard = Shard {
            inbox: Mutex::new(Vec::new()),
            bell,
        };
        (shard, doorbell)
    }

    fn rung(doorbell: &UnixStream, timeout: Duration) -> bool {
        readiness::wait_ready(&mut [PollFd::new(doorbell, true, false)], timeout) == 1
    }

    #[test]
    fn rings_coalesce_and_silence_empties_the_doorbell() {
        let (shard, doorbell) = shard();
        assert!(!rung(&doorbell, Duration::from_millis(1)));
        // Far more rings than the doorbell holds: the excess is dropped
        // and no ring blocks.
        for _ in 0..10_000 {
            shard.ring();
        }
        assert!(rung(&doorbell, Duration::from_secs(10)));
        silence(&doorbell);
        assert!(!rung(&doorbell, Duration::from_millis(1)));
    }

    #[test]
    fn a_handoff_during_a_pass_ends_the_next_wait() {
        let (shard, doorbell) = shard();
        // The shard has emptied its doorbell and inbox and is mid-pass
        // when the accept loop hands it a connection.
        silence(&doorbell);
        assert!(shard.inbox().is_empty());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        shard.hand(stream);
        // The wait that ends the pass returns at once, and the next pass
        // takes the connection.
        let start = Instant::now();
        assert!(rung(&doorbell, Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_secs(5));
        silence(&doorbell);
        assert_eq!(std::mem::take(&mut *shard.inbox()).len(), 1);
    }
}
