//! The router's event loop under injected backend faults, over real
//! sockets.
//!
//! Each case fronts two fake backends with a router: a scripted one that
//! misbehaves on one request, and a healthy one. Both answer the
//! prober's `ping`s on its probe connections, so the prober keeps them
//! in the ring and only the scripted fault decides what clients see. One
//! client is steered onto each backend. Every case asserts that:
//!
//! * every request the scripted backend held gets its reply or a typed
//!   `backend_unavailable`, in request order;
//! * the client on the healthy backend is served throughout;
//! * the event loop survives: a fresh client on the scripted backend is
//!   served again, and the router answers `metrics`.
//!
//! The mid-line stall and the half-close also guard against a spinning
//! loop: while the router waits on a backend, it may wake only a few
//! times per idle timeout.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmdiv_fleet::router::IDLE_WAIT;
use hmdiv_fleet::{Router, RouterConfig};
use hmdiv_serve::json::{self, Json};
use hmdiv_serve::protocol::ok_line;

/// `fleet.router.wakeups` is a process-wide counter, so the cases run one
/// router at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a test client waits for any one reply before failing.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// What the scripted backend does with its scripted `work` request.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Writes half the reply line, then closes with the requests behind
    /// it unread, which the kernel turns into a reset.
    ResetMidLine,
    /// Writes a reply line that is not UTF-8, then carries on.
    InvalidUtf8,
    /// Writes half the reply line, waits for release, then closes.
    StallMidLine,
    /// Waits for release, then replies.
    Hold,
}

/// Lets the test see a waiting fault in place and decide when it ends.
struct Gate {
    waiting: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Gate {
    fn wait(&self) {
        let _ = self.waiting.send(());
        let release = self.release.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = release.recv_timeout(READ_TIMEOUT);
    }
}

/// A fake replica. It answers `ping` and any other verb with an `ok`
/// reply naming itself, except the `work` request its script picks out
/// (counted from 0 across connections).
struct FakeBackend {
    addr: SocketAddr,
    waiting: mpsc::Receiver<()>,
    release: mpsc::Sender<()>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl FakeBackend {
    fn start(name: &'static str, script: Option<(usize, Fault)>) -> FakeBackend {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
        let addr = listener.local_addr().expect("fake backend addr");
        let (waiting_tx, waiting) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let gate = Arc::new(Gate {
            waiting: waiting_tx,
            release: Mutex::new(release_rx),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (stop, conns) = (Arc::clone(&stop), Arc::clone(&conns));
            let work = Arc::new(AtomicUsize::new(0));
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let (work, gate) = (Arc::clone(&work), Arc::clone(&gate));
                    let conn =
                        std::thread::spawn(move || serve_conn(stream, name, script, &work, &gate));
                    conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(conn);
                }
            })
        };
        FakeBackend {
            addr,
            waiting,
            release,
            stop,
            acceptor: Some(acceptor),
            conns,
        }
    }

    /// Blocks until the scripted fault waits for release.
    fn await_fault(&self) {
        self.waiting
            .recv_timeout(READ_TIMEOUT)
            .expect("the scripted fault is in place");
    }

    fn release(&self) {
        self.release.send(()).expect("the fake backend is running");
    }

    /// Stops accepting, releases a waiting fault and joins every thread.
    /// Returns whether any of them panicked; later calls do nothing.
    fn stop(&mut self) -> bool {
        let Some(acceptor) = self.acceptor.take() else {
            return false;
        };
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.release.send(());
        // Wake the acceptor so it sees the flag.
        drop(TcpStream::connect(self.addr));
        let mut panicked = acceptor.join().is_err();
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for conn in conns {
            panicked |= conn.join().is_err();
        }
        panicked
    }
}

impl Drop for FakeBackend {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads one `\n`-terminated line a byte at a time, so the requests
/// behind it stay queued in the kernel. `None` at EOF or on an error.
fn read_line(stream: &mut TcpStream) -> Option<String> {
    let mut line = Vec::new();
    let mut byte = [0_u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(1) if byte[0] == b'\n' => return String::from_utf8(line).ok(),
            Ok(1) => line.push(byte[0]),
            _ => return None,
        }
    }
}

fn serve_conn(
    mut stream: TcpStream,
    name: &'static str,
    script: Option<(usize, Fault)>,
    work: &AtomicUsize,
    gate: &Gate,
) {
    while let Some(line) = read_line(&mut stream) {
        let request = json::parse(&line).expect("the router forwards request lines verbatim");
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let reply = ok_line(
            &id,
            None,
            Json::Obj(vec![("backend".to_owned(), Json::str(name))]),
        );
        let half = &reply.as_bytes()[..reply.len() / 2];
        let fault = match request.get("verb").and_then(Json::as_str) {
            Some("work") => {
                let n = work.fetch_add(1, Ordering::SeqCst);
                script.filter(|&(at, _)| at == n).map(|(_, fault)| fault)
            }
            _ => None,
        };
        let written = match fault {
            None => stream.write_all(reply.as_bytes()),
            Some(Fault::ResetMidLine) => {
                let _ = stream.write_all(half);
                return;
            }
            Some(Fault::InvalidUtf8) => stream.write_all(b"{\"id\":\xff\xfe}\n"),
            Some(Fault::StallMidLine) => {
                let _ = stream.write_all(half);
                gate.wait();
                return;
            }
            Some(Fault::Hold) => {
                gate.wait();
                stream.write_all(reply.as_bytes())
            }
        };
        if written.is_err() {
            return;
        }
    }
}

/// A blocking JSON-lines client with a read deadline.
struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    fn connect(addr: SocketAddr) -> LineClient {
        let stream = TcpStream::connect(addr).expect("connect router");
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        LineClient {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Writes every line in one go, so the router sees them pipelined.
    fn send(&mut self, lines: &[String]) {
        self.writer
            .write_all(lines.concat().as_bytes())
            .expect("send requests");
    }

    /// The next reply, or `None` once the router closes the connection.
    fn recv(&mut self) -> Option<Json> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .expect("a UTF-8 reply line within the read timeout");
        (n > 0).then(|| json::parse(&line).expect("every reply line is JSON"))
    }

    fn call(&mut self, line: String) -> Json {
        self.send(&[line]);
        self.recv().expect("a reply")
    }
}

fn work(id: usize) -> String {
    format!("{{\"id\":{id},\"verb\":\"work\"}}\n")
}

fn served_by(reply: &Json) -> Option<&str> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    reply
        .get("result")
        .and_then(|r| r.get("backend"))
        .and_then(Json::as_str)
}

/// Reconnects until the router's ring puts the connection on `backend`.
fn client_on(router: SocketAddr, backend: &str) -> LineClient {
    for _ in 0..64 {
        let mut client = LineClient::connect(router);
        let reply = client.call("{\"id\":\"who\",\"verb\":\"whoami\"}\n".to_owned());
        if served_by(&reply) == Some(backend) {
            return client;
        }
    }
    panic!("no connection hashed onto {backend} in 64 tries");
}

fn expect_served(client: &mut LineClient, id: usize, backend: &str) {
    let reply = client.call(work(id));
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id as u64));
    assert_eq!(served_by(&reply), Some(backend), "{reply}");
}

/// Reads one reply per id and asserts that each, in order, was served by
/// `backend` or is the typed `backend_unavailable` error. Returns how
/// many were unavailable.
fn expect_in_order(client: &mut LineClient, ids: Range<usize>, backend: &str) -> usize {
    let mut unavailable = 0;
    for id in ids {
        let reply = client.recv().expect("a reply for every request");
        assert_eq!(
            reply.get("id").and_then(Json::as_u64),
            Some(id as u64),
            "replies out of request order: {reply}"
        );
        if served_by(&reply).is_none() {
            let code = reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str);
            assert_eq!(code, Some("backend_unavailable"), "{reply}");
            unavailable += 1;
        } else {
            assert_eq!(served_by(&reply), Some(backend), "{reply}");
        }
    }
    unavailable
}

/// The router's `fleet.router.wakeups` count, read through its `metrics`
/// verb.
fn wakeups(client: &mut LineClient) -> u64 {
    let reply = client.call("{\"id\":\"m\",\"verb\":\"metrics\"}\n".to_owned());
    let text = reply
        .get("result")
        .and_then(|r| r.get("prometheus"))
        .and_then(Json::as_str)
        .expect("metrics carries the Prometheus exposition");
    text.lines()
        .find_map(|line| line.strip_prefix("hmdiv_fleet_router_wakeups "))
        .and_then(|n| n.parse().ok())
        .expect("the router counts its wakeups")
}

/// Asserts that the router woke at most four times per idle timeout
/// that fits in `window`: generous, where a loop that spun instead of
/// waiting would be orders of magnitude over.
fn assert_no_spin(before: u64, after: u64, window: Duration) {
    let timeouts = window.as_micros() / IDLE_WAIT.as_micros() + 1;
    let bound = 4 * u64::try_from(timeouts).expect("a short window");
    assert!(
        after - before <= bound,
        "{} router wakeups in {window:?} (bound {bound})",
        after - before,
    );
}

/// A router over one scripted and one healthy fake backend. The router is
/// declared first, so it stops before the fakes do.
struct Fixture {
    router: Router,
    scripted: FakeBackend,
    healthy: FakeBackend,
}

impl Fixture {
    /// The scripted backend faults on its second `work` request.
    fn start(fault: Fault) -> Fixture {
        let scripted = FakeBackend::start("scripted", Some((1, fault)));
        let healthy = FakeBackend::start("healthy", None);
        let router = Router::start(RouterConfig {
            backends: vec![scripted.addr, healthy.addr],
            probe_interval: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        })
        .expect("router start");
        Fixture {
            router,
            scripted,
            healthy,
        }
    }

    /// The event loop came through the fault: a fresh client on the
    /// scripted backend is served on a fresh backend connection, the
    /// healthy backend's client still is, and `metrics` answers.
    fn assert_still_serving(&self, healthy: &mut LineClient) {
        let mut again = client_on(self.router.addr(), "scripted");
        expect_served(&mut again, 100, "scripted");
        expect_served(healthy, 100, "healthy");
        let reply = healthy.call("{\"id\":\"m\",\"verb\":\"metrics\"}\n".to_owned());
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert!(self.router.fleet().is_healthy(0) && self.router.fleet().is_healthy(1));
    }

    /// Drains the router, then stops both fakes and checks that none of
    /// their threads panicked.
    fn finish(self) {
        let Fixture {
            router,
            mut scripted,
            mut healthy,
        } = self;
        router.shutdown();
        assert!(!scripted.stop(), "a scripted backend thread panicked");
        assert!(!healthy.stop(), "a healthy backend thread panicked");
    }
}

#[test]
fn a_reset_after_half_a_reply_line_fails_what_was_in_flight() {
    let _serial = serial();
    let fx = Fixture::start(Fault::ResetMidLine);
    let mut scripted = client_on(fx.router.addr(), "scripted");
    let mut healthy = client_on(fx.router.addr(), "healthy");
    expect_served(&mut healthy, 0, "healthy");

    scripted.send(&(0..4).map(work).collect::<Vec<_>>());
    // Request 0's reply was whole; whether it outran the reset is up to
    // the kernel. The half line is never forwarded.
    let unavailable = expect_in_order(&mut scripted, 0..4, "scripted");
    assert!(
        unavailable >= 3,
        "requests 1..4 were lost with the connection"
    );

    expect_served(&mut healthy, 1, "healthy");
    fx.assert_still_serving(&mut healthy);
    fx.finish();
}

#[test]
fn a_non_utf8_reply_line_fails_its_request_and_those_behind_it() {
    let _serial = serial();
    let fx = Fixture::start(Fault::InvalidUtf8);
    let mut scripted = client_on(fx.router.addr(), "scripted");
    let mut healthy = client_on(fx.router.addr(), "healthy");
    expect_served(&mut healthy, 0, "healthy");

    scripted.send(&(0..4).map(work).collect::<Vec<_>>());
    let first = scripted.recv().expect("reply 0");
    assert_eq!(served_by(&first), Some("scripted"), "{first}");
    // The request the bad line answered is in doubt, and so is every
    // request behind it on the dropped connection.
    assert_eq!(expect_in_order(&mut scripted, 1..4, "scripted"), 3);

    expect_served(&mut healthy, 1, "healthy");
    fx.assert_still_serving(&mut healthy);
    fx.finish();
}

#[test]
fn a_stall_mid_line_is_waited_out_without_spinning() {
    let _serial = serial();
    hmdiv_obs::set_enabled(true);
    let fx = Fixture::start(Fault::StallMidLine);
    let mut scripted = client_on(fx.router.addr(), "scripted");
    let mut healthy = client_on(fx.router.addr(), "healthy");

    scripted.send(&(0..4).map(work).collect::<Vec<_>>());
    fx.scripted.await_fault();
    let start = Instant::now();
    let before = wakeups(&mut healthy);
    // The healthy backend's client is served while the other backend
    // stalls mid-line, then the stall runs on for ~300 ms in all.
    for id in 0..5 {
        expect_served(&mut healthy, id, "healthy");
    }
    std::thread::sleep(Duration::from_millis(300).saturating_sub(start.elapsed()));
    assert_no_spin(before, wakeups(&mut healthy), start.elapsed());
    fx.scripted.release();

    let first = scripted.recv().expect("reply 0");
    assert_eq!(served_by(&first), Some("scripted"), "{first}");
    assert_eq!(expect_in_order(&mut scripted, 1..4, "scripted"), 3);

    expect_served(&mut healthy, 5, "healthy");
    fx.assert_still_serving(&mut healthy);
    fx.finish();
}

#[test]
fn a_client_that_half_closes_gets_every_pending_reply() {
    let _serial = serial();
    hmdiv_obs::set_enabled(true);
    let fx = Fixture::start(Fault::Hold);
    let mut scripted = client_on(fx.router.addr(), "scripted");
    let mut healthy = client_on(fx.router.addr(), "healthy");

    // Request 0 is answered; request 1 is held, so the half-close reaches
    // the router with replies 1..4 still owed. The healthy client's round
    // trips take router sweeps, each of which reads the half-closed
    // client, so the router has seen its EOF before the hold ends. That
    // EOF stays readable: the router must stop reading the client, not
    // wake on it for the ~200 ms the hold lasts.
    scripted.send(&(0..4).map(work).collect::<Vec<_>>());
    scripted
        .writer
        .shutdown(Shutdown::Write)
        .expect("half-close");
    fx.scripted.await_fault();
    let start = Instant::now();
    let before = wakeups(&mut healthy);
    for id in 0..3 {
        expect_served(&mut healthy, id, "healthy");
    }
    std::thread::sleep(Duration::from_millis(200).saturating_sub(start.elapsed()));
    assert_no_spin(before, wakeups(&mut healthy), start.elapsed());
    fx.scripted.release();
    assert_eq!(expect_in_order(&mut scripted, 0..4, "scripted"), 0);
    assert!(
        scripted.recv().is_none(),
        "the router closes a half-closed client once its replies flush"
    );

    fx.assert_still_serving(&mut healthy);
    fx.finish();
}
