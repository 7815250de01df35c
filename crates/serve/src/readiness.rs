//! Readiness waits over nonblocking sockets: a one-call binding of
//! `poll(2)`.
//!
//! The fleet router, the server's poller shards and the
//! [`loadgen`](crate::loadgen) driver sweep their nonblocking
//! [`LineConn`](crate::conn::LineConn)s for as long as sweeps move bytes.
//! When a sweep moves none, they block in [`wait_ready`] on each
//! connection's [`interest`](crate::conn::LineConn::interest) until one
//! is ready or a timeout passes, instead of sleeping a fixed interval: a
//! request or reply that lands during the wait is handled at once rather
//! than after the nap.
//! The server's accept loop waits on its listener the same way, so a
//! fresh connection is accepted as soon as it arrives.
//!
//! `poll` comes from the C library that `std` already links, so the
//! binding is one `extern "C"` declaration. Its one call is the
//! workspace's only `unsafe` block; the workspace denies `unsafe_code`
//! everywhere else. Interest is level-triggered: a caller that leaves
//! bytes unread is simply woken again, so callers sweep as before and
//! never need to know which socket a wait reported.

#![deny(unsafe_op_in_unsafe_fn)]

use std::io::ErrorKind;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

/// One socket's interest: `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug)]
pub struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

extern "C" {
    /// `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

impl PollFd {
    /// Interest in `socket`: readable when `read`, writable when
    /// `write`. An error or hang-up on the socket ends a wait either way.
    pub fn new(socket: &impl AsRawFd, read: bool, write: bool) -> PollFd {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

/// Blocks until one of `fds` is ready or `timeout` passes, then returns
/// how many are ready: 0 on timeout and on a wait interrupted by a
/// signal. The timeout is rounded up to whole milliseconds, so a
/// non-zero wait never degenerates into a spin; should `poll` itself
/// fail, the caller's thread sleeps out the timeout instead.
pub fn wait_ready(fds: &mut [PollFd], timeout: Duration) -> usize {
    let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
    let nfds = c_ulong::try_from(fds.len()).unwrap_or(c_ulong::MAX);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd structs and `nfds` is its exact length, so the kernel reads
    // and writes only inside it, and only for the duration of the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
    if let Ok(n) = usize::try_from(ready) {
        return n;
    }
    if std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
        std::thread::sleep(timeout);
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn an_idle_socket_waits_out_the_timeout() {
        let (client, _server) = pair();
        let mut fds = [PollFd::new(&client, true, false)];
        let start = Instant::now();
        assert_eq!(wait_ready(&mut fds, Duration::from_millis(20)), 0);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn a_sub_millisecond_timeout_still_waits() {
        let (client, _server) = pair();
        let mut fds = [PollFd::new(&client, true, false)];
        let start = Instant::now();
        assert_eq!(wait_ready(&mut fds, Duration::from_micros(10)), 0);
        assert!(start.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn arriving_bytes_end_the_wait_early() {
        let (client, mut server) = pair();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            server.write_all(b"x\n").expect("write");
            server
        });
        let mut fds = [PollFd::new(&client, true, false)];
        let start = Instant::now();
        assert_eq!(wait_ready(&mut fds, Duration::from_secs(10)), 1);
        assert!(start.elapsed() < Duration::from_secs(5));
        drop(writer.join());
    }

    #[test]
    fn write_interest_reports_a_writable_socket() {
        let (client, _server) = pair();
        let mut fds = [PollFd::new(&client, false, true)];
        assert_eq!(wait_ready(&mut fds, Duration::from_secs(10)), 1);
        let mut no_interest = [PollFd::new(&client, false, false)];
        assert_eq!(wait_ready(&mut no_interest, Duration::from_millis(5)), 0);
    }

    #[test]
    fn a_peer_hang_up_ends_the_wait() {
        let (client, server) = pair();
        drop(server);
        let mut fds = [PollFd::new(&client, true, false)];
        assert_eq!(wait_ready(&mut fds, Duration::from_secs(10)), 1);
    }
}
