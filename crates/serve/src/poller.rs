//! The readiness-poller pool: a small fixed set of threads multiplexing
//! every client connection over nonblocking `std::net` sockets.
//!
//! Accepted sockets are registered round-robin onto poller **shards**.
//! Each shard owns its connections outright — no cross-thread connection
//! state — and runs every request it frames to completion on its own
//! thread. A pass over a connection makes three moves:
//!
//! 1. **read**: drain readable bytes into the resumable
//!    [`LineReader`](crate::protocol::LineReader) (budgeted, and skipped
//!    while the write buffer is over the high-watermark — backpressure
//!    propagates to the client's TCP window instead of server memory);
//! 2. **answer**: frame each complete line and answer it — parse, admit,
//!    evaluate, render — into the write buffer, in request order. A reply
//!    that leaves at least [`CHUNK`] bytes buffered is written at once, so
//!    the client reads it while later lines are answered; smaller replies
//!    leave together in the pass's write;
//! 3. **write**: push buffered bytes until the socket would block,
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
//! be written while bytes are buffered. The shard empties the doorbell
//! after each wait and before it takes its inbox, so a handoff that lands
//! mid-pass ends the next wait. [`IDLE_WAIT`] bounds the wait only as a
//! backstop.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::json::Json;
use crate::protocol::{LineEvent, LineReader};
use crate::readiness::{self, PollFd};
use crate::server::{self, Ctx, PendingTrace};

/// Read budget per connection per pass, so one firehose client cannot
/// starve its shard-mates.
const READ_BUDGET: usize = 256 * 1024;
/// Per-read chunk size, and the buffered reply size that is written
/// without waiting for the end of the pass.
const CHUNK: usize = 16 * 1024;
/// Buffered-response bytes above which a connection stops being read —
/// the slow-consumer backpressure threshold.
const WRITE_HIGH_WATERMARK: usize = 1 << 20;
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
            progress |= conn.pass(ctx, shutdown);
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
    for conn in conns {
        let (read, write) = (conn.wants_read(shutdown), conn.out.pending() > 0);
        if read || write {
            interest.push(PollFd::new(&conn.stream, read, write));
        }
    }
    readiness::wait_ready(interest, IDLE_WAIT);
}

/// A byte range of the write buffer whose flush completes a traced
/// request: once `end` bytes have reached the kernel, the record's write
/// stage is stamped and it lands in the flight recorder.
struct WriteMark {
    end: u64,
    trace: PendingTrace,
}

/// The buffered, backpressured write half of a connection.
struct OutBuf {
    buf: Vec<u8>,
    cursor: usize,
    /// Total bytes ever appended / flushed to the kernel — mark ranges are
    /// absolute offsets on this monotone scale, surviving buffer resets.
    appended: u64,
    flushed: u64,
    marks: VecDeque<WriteMark>,
    /// When the oldest still-buffered response started waiting — the
    /// write-stage start for every mark completed in this drain cycle.
    write_start: Option<Instant>,
}

impl OutBuf {
    fn new() -> OutBuf {
        OutBuf {
            buf: Vec::new(),
            cursor: 0,
            appended: 0,
            flushed: 0,
            marks: VecDeque::new(),
            write_start: None,
        }
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.cursor
    }

    fn append(&mut self, bytes: &[u8], trace: Option<PendingTrace>) {
        if self.write_start.is_none() {
            self.write_start = Some(Instant::now());
        }
        self.buf.extend_from_slice(bytes);
        self.appended += bytes.len() as u64;
        if let Some(trace) = trace {
            self.marks.push_back(WriteMark {
                end: self.appended,
                trace,
            });
        }
    }
}

/// One multiplexed connection's state machine.
struct Conn {
    stream: TcpStream,
    reader: LineReader,
    chunk: Vec<u8>,
    out: OutBuf,
    /// First socket bytes of the current read batch (the read-stage start
    /// for the requests they frame).
    read_start: Option<Instant>,
    peer_closed: bool,
    dead: bool,
}

impl Conn {
    /// Puts the socket into multiplexed mode; `None` if setup syscalls
    /// fail (the stream drops, resetting the connection).
    fn adopt(stream: TcpStream, max_line_bytes: usize) -> Option<Conn> {
        // Nagle would hold back small replies behind unacknowledged ones.
        drop(stream.set_nodelay(true));
        stream.set_nonblocking(true).ok()?;
        Some(Conn {
            stream,
            reader: LineReader::new(max_line_bytes),
            chunk: vec![0_u8; CHUNK],
            out: OutBuf::new(),
            read_start: None,
            peer_closed: false,
            dead: false,
        })
    }

    /// Whether the connection should be read: not at EOF, dead or
    /// shutting down, and not over the write watermark.
    fn wants_read(&self, shutdown: bool) -> bool {
        !self.dead && !self.peer_closed && !shutdown && self.out.pending() < WRITE_HIGH_WATERMARK
    }

    /// One full state-machine pass; returns whether anything moved.
    fn pass(&mut self, ctx: &Ctx, shutdown: bool) -> bool {
        let mut progress = false;
        if self.wants_read(shutdown) {
            progress |= self.read_some();
        }
        progress |= self.answer_lines(ctx);
        progress |= self.write_some(ctx);
        progress
    }

    /// Everything owed has been written (or can never be): drop the
    /// connection.
    fn done(&self, shutdown: bool) -> bool {
        self.dead
            || (self.out.pending() == 0
                && self.out.marks.is_empty()
                && (self.peer_closed || shutdown))
    }

    /// Drains readable bytes (budgeted) into the line reader.
    fn read_some(&mut self) -> bool {
        let mut total = 0;
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    return true;
                }
                Ok(n) => {
                    self.read_start.get_or_insert_with(Instant::now);
                    self.reader.push(&self.chunk[..n]);
                    total += n;
                    if total >= READ_BUDGET {
                        return true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return total > 0,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
    }

    /// Frames each complete buffered line and answers it into the write
    /// buffer, in order. Framing faults become error replies — the
    /// connection survives both over-limit lines (the reader resyncs to
    /// the next newline) and invalid UTF-8.
    fn answer_lines(&mut self, ctx: &Ctx) -> bool {
        let mut framed = None;
        while let Some(event) = self.reader.next_event() {
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
            self.out.append(line.as_bytes(), trace);
            if self.out.pending() >= CHUNK {
                self.write_some(ctx);
            }
        }
        framed.is_some()
    }

    /// Writes buffered bytes until the socket would block, completing
    /// trace records whose byte ranges have fully reached the kernel. A
    /// dead connection completes its records without a write stamp — the
    /// replies never made it, but sheds stay observable.
    fn write_some(&mut self, ctx: &Ctx) -> bool {
        if self.out.pending() == 0 && self.out.marks.is_empty() {
            return false;
        }
        let mut progress = false;
        if !self.dead {
            while self.out.cursor < self.out.buf.len() {
                match self.stream.write(&self.out.buf[self.out.cursor..]) {
                    Ok(0) => {
                        self.dead = true;
                        break;
                    }
                    Ok(n) => {
                        self.out.cursor += n;
                        self.out.flushed += n as u64;
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            if self.out.cursor == self.out.buf.len() && self.out.cursor > 0 {
                self.out.buf.clear();
                self.out.cursor = 0;
                drop(self.stream.flush());
            }
        }
        let now = Instant::now();
        let mut shed = false;
        while self
            .out
            .marks
            .front()
            .is_some_and(|m| m.end <= self.out.flushed)
        {
            let mark = self
                .out
                .marks
                .pop_front()
                .expect("front() just matched this mark");
            let span = self.out.write_start.map(|start| (start, now));
            shed |= server::complete_trace(ctx, mark.trace, span);
            progress = true;
        }
        if self.dead {
            self.out.buf.clear();
            self.out.cursor = 0;
            while let Some(mark) = self.out.marks.pop_front() {
                shed |= server::complete_trace(ctx, mark.trace, None);
                progress = true;
            }
        }
        if shed {
            server::dump_on_shed(ctx);
        }
        if self.out.pending() == 0 && self.out.marks.is_empty() {
            self.out.write_start = None;
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
