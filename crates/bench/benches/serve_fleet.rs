//! Throughput scaling of the replicated fleet: the same loadgen sweep
//! driven through the `hmdiv-fleet` consistent-hash router at 1, 2, and
//! 4 replicas.
//!
//! Each replica is pinned to a *single* evaluation thread and a single
//! poller (`threads: 1, poller_threads: 1`), so adding replicas is the
//! only way the fleet gains compute — the scaling curve measures the
//! router's fan-out, not incidental intra-replica parallelism. On a
//! multi-core host the served-rate ratio at 4 replicas vs 1 approaches
//! the core count; on a single-core host the replicas time-slice one
//! CPU and the ratio stays near 1, which is why `host_parallelism` is
//! recorded alongside the curve.
//!
//! Not a criterion microbenchmark — the quantity of interest is the
//! sustained served rate per fleet size, one JSON row each. The default
//! run is smoke-sized for CI; set `HMDIV_FLEET=1` for the full
//! acceptance sweep and `HMDIV_FLEET_OUT=PATH` to write the JSON report
//! — the source of `BENCH_pr9.json`.

use std::io::Write as _;
use std::time::Duration;

use hmdiv_fleet::{Router, RouterConfig};
use hmdiv_serve::loadgen::{self, LoadgenConfig};
use hmdiv_serve::{json, Client, Json, Server, ServerConfig};

/// Starts `n` single-threaded replicas plus the router, and loads the
/// paper model through the router (a broadcast, so every replica admits
/// it under the same content id).
fn start_fleet(n: usize) -> (Vec<Server>, Router, String) {
    let replicas: Vec<Server> = (0..n)
        .map(|_| {
            Server::start(ServerConfig {
                threads: 1,
                poller_threads: 1,
                queue_capacity: 4096,
                ..ServerConfig::default()
            })
            .expect("bind replica")
        })
        .collect();
    let router = Router::start(RouterConfig {
        backends: replicas.iter().map(Server::addr).collect(),
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut client = Client::connect(router.addr()).expect("connect router");
    let receipt = client
        .request(
            "load",
            vec![(
                "classes".into(),
                json::parse(
                    r#"{"easy":      {"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
                        "difficult": {"p_mf":0.41,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}"#,
                )
                .expect("static JSON"),
            )],
        )
        .expect("broadcast load");
    let model_id = receipt
        .get("model_id")
        .and_then(Json::as_str)
        .expect("receipt carries model_id")
        .to_owned();
    (replicas, router, model_id)
}

fn main() {
    let full = std::env::var("HMDIV_FLEET").is_ok_and(|v| v == "1");
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let (connections, requests_per_connection) = if full { (64, 256) } else { (16, 16) };

    let mut rows = Vec::new();
    let mut rates = Vec::new();
    for replicas in [1_usize, 2, 4] {
        let (servers, router, model_id) = start_fleet(replicas);
        let request_line = format!(
            "{{\"id\":0,\"verb\":\"evaluate\",\"model\":\"{model_id}\",\
             \"profile\":{{\"easy\":0.9,\"difficult\":0.1}},\"deadline_ms\":10000}}\n"
        );
        let report = loadgen::run(&LoadgenConfig {
            targets: vec![router.addr()],
            connections,
            pipeline_depth: 8,
            requests_per_connection,
            request_line,
            timeout: Duration::from_secs(300),
        })
        .expect("loadgen run");
        assert_eq!(
            report.replies(),
            report.sent,
            "every request must be accounted for"
        );
        assert_eq!(report.errors, 0, "a healthy fleet sheds, never errors");
        router.shutdown();
        for server in servers {
            server.shutdown();
        }
        let secs = report.elapsed_ns as f64 / 1e9;
        #[allow(clippy::cast_precision_loss)]
        let rate = report.served as f64 / secs;
        rates.push(rate);
        let row = format!(
            "{{\"replicas\": {replicas}, \"connections\": {connections}, \
             \"sent\": {}, \"served\": {}, \"shed_overloaded\": {}, \
             \"shed_deadline\": {}, \"elapsed_s\": {secs:.3}, \"served_per_s\": {rate:.0}}}",
            report.sent, report.served, report.shed_overloaded, report.shed_deadline,
        );
        println!("serve_fleet: {row}");
        rows.push(row);
    }

    let scaling_4v1 = if rates[0] > 0.0 {
        rates[2] / rates[0]
    } else {
        0.0
    };
    println!("serve_fleet: host_parallelism={host_parallelism} scaling_4v1={scaling_4v1:.2}");
    let report = format!(
        "{{\"host_parallelism\": {host_parallelism},\n \"scaling_4v1\": {scaling_4v1:.2},\n \
         \"curve\": [\n  {}\n]}}\n",
        rows.join(",\n  ")
    );
    if let Ok(path) = std::env::var("HMDIV_FLEET_OUT") {
        let mut file = std::fs::File::create(&path).expect("open HMDIV_FLEET_OUT");
        file.write_all(report.as_bytes()).expect("write curve");
        println!("serve_fleet: curve written to {path}");
    }
}
