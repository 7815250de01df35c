//! One nonblocking, newline-framed connection: the socket half that the
//! replica's poller shards, the fleet router and the
//! [`loadgen`](crate::loadgen) driver share.
//!
//! A [`LineConn`] owns a nonblocking [`TcpStream`], the [`LineReader`]
//! that frames what it reads, and the bytes queued for it to write. Its
//! loop reads it within a budget through a scratch buffer the loop owns,
//! writes it until the socket would block, and waits on its
//! [`interest`](LineConn::interest) in [`crate::readiness`]. Outside the
//! accept loops, this is the only code that handles `WouldBlock`. A read
//! of zero bytes latches [`eof`](LineConn::eof); any other failure
//! latches [`dead`](LineConn::dead) and drops the queue.
//!
//! Backpressure is one rule, [`LineConn::wants_read`]: a connection is
//! read only while fewer than [`WRITE_HIGH_WATERMARK`] bytes queued for
//! its peer are unflushed, so a peer that pipelines without reading fills
//! its own TCP window instead of this process's memory.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};

use crate::protocol::{LineEvent, LineReader};
use crate::readiness::PollFd;

/// Per-read size of the loops' scratch buffers, and the unflushed reply
/// size at which a replica shard writes without waiting for the end of
/// its pass.
pub const CHUNK: usize = 16 * 1024;
/// Read budget per connection per pass, so one firehose peer cannot
/// starve the connections that share its loop.
pub const READ_BUDGET: usize = 256 * 1024;
/// Unflushed bytes at or above which a connection stops being read — the
/// slow-consumer backpressure threshold.
pub const WRITE_HIGH_WATERMARK: usize = 1 << 20;

/// A nonblocking `TcpStream` with line framing on its read side and a
/// queue on its write side.
#[derive(Debug)]
pub struct LineConn {
    stream: TcpStream,
    reader: LineReader,
    out: Vec<u8>,
    /// Bytes of `out` already written.
    cursor: usize,
    flushed: u64,
    eof: bool,
    dead: bool,
}

impl LineConn {
    /// Puts `stream` into nonblocking mode with Nagle off (a line should
    /// not wait behind unacknowledged ones) and frames lines of at most
    /// `max_line_bytes`.
    ///
    /// # Errors
    ///
    /// The failing socket call's error.
    pub fn new(stream: TcpStream, max_line_bytes: usize) -> std::io::Result<LineConn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(LineConn {
            stream,
            reader: LineReader::new(max_line_bytes),
            out: Vec::new(),
            cursor: 0,
            flushed: 0,
            eof: false,
            dead: false,
        })
    }

    /// Reads what the socket holds, at most `budget` bytes, through
    /// `scratch` (which must not be empty) into the line reader, and
    /// returns how many bytes it read. A connection at EOF or dead reads
    /// nothing.
    pub fn read(&mut self, scratch: &mut [u8], budget: usize) -> usize {
        let mut total = 0;
        while total < budget && !self.eof && !self.dead {
            let want = scratch.len().min(budget - total);
            match self.stream.read(&mut scratch[..want]) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.reader.push(&scratch[..n]);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.die(),
            }
        }
        total
    }

    /// Pops the next framing event from the bytes read so far.
    pub fn next_event(&mut self) -> Option<LineEvent> {
        self.reader.next_event()
    }

    /// Appends `bytes` to the write queue; a dead connection drops them.
    pub fn queue(&mut self, bytes: &[u8]) {
        if !self.dead {
            self.out.extend_from_slice(bytes);
        }
    }

    /// Writes queued bytes until the socket would block and returns how
    /// many it wrote.
    pub fn write(&mut self) -> usize {
        let mut total = 0;
        while self.cursor < self.out.len() {
            match self.stream.write(&self.out[self.cursor..]) {
                Ok(0) => self.die(),
                Ok(n) => {
                    self.cursor += n;
                    self.flushed += n as u64;
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.die(),
            }
        }
        if self.cursor == self.out.len() {
            self.out.clear();
            self.cursor = 0;
        }
        total
    }

    /// Queued bytes not yet written.
    #[must_use]
    pub fn unflushed(&self) -> usize {
        self.out.len() - self.cursor
    }

    /// Every byte written to the kernel over the connection's life.
    #[must_use]
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// The peer closed its write half.
    #[must_use]
    pub fn eof(&self) -> bool {
        self.eof
    }

    /// A read or write failed; the connection is unusable.
    #[must_use]
    pub fn dead(&self) -> bool {
        self.dead
    }

    /// Whether the connection should be read: not at EOF or dead, and
    /// under the [`WRITE_HIGH_WATERMARK`].
    #[must_use]
    pub fn wants_read(&self) -> bool {
        !self.eof && !self.dead && self.unflushed() < WRITE_HIGH_WATERMARK
    }

    /// The connection's entry in a readiness wait: read interest when
    /// `read`, write interest while bytes are queued. `None` when it wants
    /// neither, since an error or hang-up on the socket would otherwise
    /// end every wait.
    #[must_use]
    pub fn interest(&self, read: bool) -> Option<PollFd> {
        let write = self.unflushed() > 0;
        (read || write).then(|| PollFd::new(&self.stream, read, write))
    }

    /// Shuts the socket's write half: the peer reads EOF after the bytes
    /// already written, so call it once the queue is empty.
    pub fn half_close(&self) {
        drop(self.stream.shutdown(Shutdown::Write));
    }

    fn die(&mut self) {
        self.dead = true;
        self.out.clear();
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    //! These tests drive real loopback sockets and `poll(2)`.

    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    use crate::readiness::wait_ready;

    /// A `LineConn` and the blocking peer socket it talks to.
    fn pair(max_line_bytes: usize) -> (LineConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        (
            LineConn::new(stream, max_line_bytes).expect("nonblocking"),
            peer,
        )
    }

    /// Blocks until `conn` has something for [`LineConn::read`].
    fn readable(conn: &LineConn) {
        let mut fds: Vec<PollFd> = conn.interest(true).into_iter().collect();
        assert_eq!(wait_ready(&mut fds, Duration::from_secs(10)), 1);
    }

    #[test]
    fn read_stops_at_the_budget_and_resumes_on_the_next_pass() {
        let (mut conn, mut peer) = pair(1 << 20);
        let line = format!("{}\n", "x".repeat(999));
        peer.write_all(line.repeat(5).as_bytes()).expect("write");
        let mut scratch = vec![0_u8; 300];
        let (mut total, mut passes, mut lines) = (0, 0, 0);
        while total < 5_000 {
            readable(&conn);
            let n = conn.read(&mut scratch, 1_000);
            assert!(n <= 1_000, "a pass read {n} bytes over its budget");
            total += n;
            passes += 1;
            while let Some(event) = conn.next_event() {
                assert_eq!(event, LineEvent::Line("x".repeat(999)));
                lines += 1;
            }
        }
        assert!(passes >= 5, "{passes} passes read 5,000 bytes");
        assert_eq!((total, lines), (5_000, 5));
        assert!(!conn.eof() && !conn.dead());
    }

    #[test]
    fn a_peer_eof_sets_eof() {
        let (mut conn, mut peer) = pair(64);
        peer.write_all(b"last\n").expect("write");
        peer.shutdown(Shutdown::Write).expect("half-close");
        let mut scratch = [0_u8; 64];
        while !conn.eof() {
            readable(&conn);
            conn.read(&mut scratch, READ_BUDGET);
        }
        assert!(!conn.dead());
        assert_eq!(conn.next_event(), Some(LineEvent::Line("last".into())));
        assert!(!conn.wants_read());
        assert_eq!(conn.read(&mut scratch, READ_BUDGET), 0);
    }

    #[test]
    fn a_peer_reset_sets_dead_and_drops_the_queue() {
        let (mut conn, peer) = pair(64);
        conn.queue(b"unread\n");
        assert_eq!(conn.write(), 7);
        // Closing with unread bytes in its receive buffer makes the peer
        // send a reset instead of a FIN.
        peer.peek(&mut [0_u8; 1]).expect("the bytes arrived");
        drop(peer);
        let mut scratch = [0_u8; 64];
        while !conn.dead() {
            readable(&conn);
            conn.read(&mut scratch, READ_BUDGET);
            assert!(!conn.eof(), "a reset must not read as EOF");
        }
        conn.queue(b"never sent\n");
        assert_eq!(conn.unflushed(), 0);
        assert_eq!(conn.write(), 0);
        assert!(conn.interest(false).is_none());
    }

    #[test]
    fn a_queue_larger_than_the_socket_buffers_drains_across_writes() {
        let (mut conn, mut peer) = pair(64);
        let payload: Vec<u8> = (0..16 << 20).map(|i: u32| (i % 251) as u8).collect();
        conn.queue(&payload);
        // The peer reads nothing yet, so the kernel takes only what its
        // buffers hold.
        let first = conn.write();
        assert!(
            first > 0 && first < payload.len(),
            "first write took {first}"
        );
        let reader = std::thread::spawn(move || {
            let mut got = Vec::with_capacity(16 << 20);
            peer.read_to_end(&mut got).expect("read");
            got
        });
        let mut writes = 1;
        while conn.unflushed() > 0 {
            let mut fds: Vec<PollFd> = conn.interest(false).into_iter().collect();
            wait_ready(&mut fds, Duration::from_secs(10));
            conn.write();
            writes += 1;
        }
        assert!(writes >= 2);
        assert_eq!(conn.flushed(), payload.len() as u64);
        conn.half_close();
        assert!(
            reader.join().expect("reader") == payload,
            "bytes changed in flight"
        );
    }

    #[test]
    fn flushed_keeps_counting_across_buffer_resets() {
        let (mut conn, mut peer) = pair(64);
        conn.queue(b"a\n");
        assert_eq!(conn.write(), 2);
        assert_eq!((conn.unflushed(), conn.flushed()), (0, 2));
        conn.queue(b"bc\n");
        assert_eq!(conn.flushed() + conn.unflushed() as u64, 5);
        assert_eq!(conn.write(), 3);
        assert_eq!((conn.unflushed(), conn.flushed()), (0, 5));
        let mut got = [0_u8; 5];
        peer.read_exact(&mut got).expect("read");
        assert_eq!(&got, b"a\nbc\n");
    }

    #[test]
    fn interest_asks_for_write_only_while_bytes_are_queued() {
        let (mut conn, _peer) = pair(64);
        assert!(conn.interest(false).is_none());
        // Read interest alone: an idle socket is not ready, although it
        // is writable.
        let mut fds: Vec<PollFd> = conn.interest(true).into_iter().collect();
        assert_eq!(wait_ready(&mut fds, Duration::from_millis(5)), 0);
        conn.queue(b"x\n");
        let mut fds: Vec<PollFd> = conn.interest(false).into_iter().collect();
        assert_eq!(wait_ready(&mut fds, Duration::from_secs(10)), 1);
        conn.write();
        assert!(conn.interest(false).is_none());
    }
}
