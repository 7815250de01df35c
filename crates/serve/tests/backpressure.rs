//! A client that pipelines without reading must not grow the replica's
//! memory: a poller shard stops reading a connection once a write
//! high-watermark of its replies is unflushed, so the client's own writes
//! block instead.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hmdiv_serve::readiness::{wait_ready, PollFd};
use hmdiv_serve::{Client, Server, ServerConfig};

/// How long a write must stay blocked to count as backpressure rather
/// than a momentarily busy reader.
const STALL: Duration = Duration::from_secs(1);
/// Bytes after which a flood that never blocked fails. The replica
/// blocks the flood after ~2,000 lines (~8.5 MB) on Linux; without
/// backpressure it would buffer every reply.
const CAP: usize = 32 << 20;

/// Writes `line` over and over on a fresh nonblocking connection to
/// `addr`, never reading, until a write stays blocked for [`STALL`] or
/// [`CAP`] bytes are written. Returns the connection and the bytes
/// written before the stall, or `None` when the cap came first.
fn flood(addr: SocketAddr, line: &[u8]) -> (TcpStream, Option<usize>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nonblocking(true).expect("nonblocking");
    let (mut sent, mut at) = (0, 0);
    while sent < CAP {
        match stream.write(&line[at..]) {
            Ok(n) => {
                sent += n;
                at = (at + n) % line.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // A busy reader frees room again; one that stopped
                // reading never does.
                let mut fds = [PollFd::new(&stream, false, true)];
                if wait_ready(&mut fds, STALL) == 0 {
                    return (stream, Some(sent));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("flood write failed after {sent} bytes: {e}"),
        }
    }
    (stream, None)
}

fn ping(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect");
    client.request("ping", Vec::new()).expect("ping answered");
}

#[test]
fn a_client_that_never_reads_pings_is_stopped_by_backpressure() {
    let server = Server::start(ServerConfig {
        poller_threads: 1,
        ..ServerConfig::default()
    })
    .expect("server start");
    // The padded id, echoed in each reply, fills the kernel buffers
    // within a few thousand lines.
    let line = format!(r#"{{"id":"{}","verb":"ping"}}"#, "p".repeat(4096)) + "\n";
    let (flooder, blocked) = flood(server.addr(), line.as_bytes());
    let sent = blocked.unwrap_or_else(|| panic!("{CAP} bytes of pings never blocked"));
    eprintln!(
        "replica flood blocked after {sent} bytes ({} lines)",
        sent / line.len()
    );
    // The stalled client wedges nobody else on its shard, before or
    // after it leaves.
    ping(server.addr());
    drop(flooder);
    ping(server.addr());
    server.shutdown();
}
