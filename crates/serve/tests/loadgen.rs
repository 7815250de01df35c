//! The load generator's ledger against an in-process server: every
//! request sent is answered and every connection completes on a healthy
//! run, and requests a server leaves unanswered are charged to `errors`.

use std::net::SocketAddr;
use std::time::Duration;

use hmdiv_serve::loadgen::{self, LoadgenConfig, LoadgenReport};
use hmdiv_serve::{Server, ServerConfig};

fn config(target: SocketAddr, requests_per_connection: usize) -> LoadgenConfig {
    LoadgenConfig {
        targets: vec![target],
        connections: 8,
        pipeline_depth: 4,
        requests_per_connection,
        request_line: "{\"id\":1,\"verb\":\"ping\"}\n".to_owned(),
        timeout: Duration::from_secs(60),
    }
}

/// The totals balance, and the single target's split equals them.
fn assert_balanced(report: &LoadgenReport) {
    assert_eq!(report.replies(), report.sent, "{report:?}");
    let split = &report.per_target[0];
    assert_eq!(
        (split.sent, split.served, split.errors),
        (report.sent, report.served, report.errors),
        "{report:?}"
    );
}

#[test]
fn a_healthy_run_serves_every_request_it_sends() {
    let server = Server::start(ServerConfig {
        poller_threads: 2,
        ..ServerConfig::default()
    })
    .expect("server start");
    let report = loadgen::run(&config(server.addr(), 50)).expect("loadgen run");
    assert_eq!(report.sent, 8 * 50);
    assert_eq!(report.served, report.sent, "{report:?}");
    assert_eq!(report.connections, 8);
    assert_eq!(report.completed_connections, report.connections);
    assert_eq!(report.per_target[0].connections, 8);
    assert_balanced(&report);
    server.shutdown();
}

#[test]
fn requests_a_stopped_server_never_answers_are_charged_to_errors() {
    let server = Server::start(ServerConfig::default()).expect("server start");
    let addr = server.addr();
    // A quota no run finishes: the server stops mid-run.
    let stopper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        server.shutdown();
    });
    let report = loadgen::run(&config(addr, usize::MAX / 2)).expect("loadgen run");
    stopper.join().expect("stopper");
    assert!(report.served > 0, "{report:?}");
    assert!(report.errors > 0, "{report:?}");
    assert_eq!(report.completed_connections, 0, "{report:?}");
    assert_balanced(&report);
}
