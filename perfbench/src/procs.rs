//! Server and router processes, and blocking one-shot calls to them.
//!
//! Every process is owned by a [`Proc`], whose drop kills and reaps it,
//! so no exit path — success, error or panic — leaves a process or a
//! listening port behind. Children also die with the benchmark process
//! itself (see [`crate::sys::kill_with_parent`]).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use crate::sys;

/// Pause after a process reports its listen address (see [`Proc::spawn`]).
const SETTLE: Duration = Duration::from_millis(2);

/// A running `repro serve` or `repro route` process.
#[derive(Debug)]
pub struct Proc {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Proc {
    /// Starts `repro ARGS…` and waits for its `… listening on ADDR` line.
    pub fn spawn(repro: &Path, args: &[String]) -> Result<Proc, String> {
        let mut command = Command::new(repro);
        command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        sys::kill_with_parent(&mut command);
        let mut child = command
            .spawn()
            .map_err(|e| format!("starting {}: {e}", repro.display()))?;
        let stdout = child.stdout.take().ok_or("child has no stdout pipe")?;
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line);
            match read {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("repro {} exited before listening", args.join(" ")));
                }
                Ok(_) => {
                    if let Some((_, addr)) = line.trim_end().split_once(" listening on ") {
                        break addr
                            .parse()
                            .map_err(|e| format!("bad listen address {addr}: {e}"))?;
                    }
                }
            }
        };
        // A replica's accept loop naps between polls. Whether the first
        // connection beats its first nap is a thread-start race that would
        // make set-up time bimodal; connecting once the loop has settled
        // into its cadence makes every set-up wait the same way.
        std::thread::sleep(SETTLE);
        Ok(Proc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The process's peak resident set size, in kibibytes.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        sys::peak_rss_kib(&self.child.id().to_string())
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // Errors here mean the child is already gone; nothing to undo.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Opens a client connection with Nagle off (requests are whole lines).
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(stream)
}

/// Sends one request line on a blocking stream with nothing else in
/// flight and returns its reply line (newline stripped).
pub fn call(stream: &mut TcpStream, line: &str) -> Result<String, String> {
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    while reply.last() != Some(&b'\n') {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed before the reply".into()),
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    reply.pop();
    String::from_utf8(reply).map_err(|_| "reply is not UTF-8".into())
}
