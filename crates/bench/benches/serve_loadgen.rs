//! Concurrency scaling of the event-driven serve core: shed-vs-served
//! curves under hundreds-to-thousands of concurrent keep-alive
//! connections, driven by the crate's own single-threaded
//! [`hmdiv_serve::loadgen`] event loop against a fixed poller pool.
//!
//! Not a criterion microbenchmark — the quantity of interest is the
//! admission ledger (served / shed-overloaded / shed-deadline and the
//! sustained request rate) at each concurrency step, so this harness
//! prints one JSON report per step instead of timing distributions.
//!
//! Default run (what `cargo bench` / `cargo bench -- --test` executes) is
//! a smoke-sized sweep so CI stays fast. Set `HMDIV_LOADGEN=1` for the
//! full curve (1024 connections on an 8-thread-or-fewer poller pool, the
//! PR-8 acceptance run) and `HMDIV_LOADGEN_OUT=PATH` to also write the
//! JSON report to a file — the source of `BENCH_pr8.json`.

use std::io::Write as _;
use std::time::Duration;

use hmdiv_serve::loadgen::{self, LoadgenConfig};
use hmdiv_serve::{json, Client, Json, Server, ServerConfig};

/// One concurrency step of the sweep.
struct Step {
    connections: usize,
    pipeline_depth: usize,
    requests_per_connection: usize,
}

/// Starts a server sized like the acceptance run and loads the paper
/// model, returning its registry id.
fn start_loaded_server(queue_capacity: usize, pollers: usize) -> (Server, String) {
    let server = Server::start(ServerConfig {
        queue_capacity,
        poller_threads: pollers,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
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
        .expect("load paper model");
    let model_id = receipt
        .get("model_id")
        .and_then(Json::as_str)
        .expect("receipt carries model_id")
        .to_owned();
    (server, model_id)
}

fn main() {
    let full = std::env::var("HMDIV_LOADGEN").is_ok_and(|v| v == "1");
    let pollers = 8_usize.min(
        std::thread::available_parallelism()
            .map_or(4, usize::from)
            .max(2),
    );
    let steps: Vec<Step> = if full {
        // The acceptance curve: hold >=1000 keep-alive sockets on <=8
        // poller threads and sweep pipeline depth so load rises; the
        // ledger shows whether any request sheds on the way.
        [1, 2, 4, 8]
            .into_iter()
            .map(|depth| Step {
                connections: 1024,
                pipeline_depth: depth,
                requests_per_connection: 16,
            })
            .collect()
    } else {
        // Smoke-sized: same machinery, two quick steps.
        vec![
            Step {
                connections: 128,
                pipeline_depth: 1,
                requests_per_connection: 4,
            },
            Step {
                connections: 128,
                pipeline_depth: 4,
                requests_per_connection: 8,
            },
        ]
    };

    let (server, model_id) = start_loaded_server(1024, pollers);
    let request_line = format!(
        "{{\"id\":0,\"verb\":\"evaluate\",\"model\":\"{model_id}\",\
         \"profile\":{{\"easy\":0.9,\"difficult\":0.1}},\"deadline_ms\":2000}}\n"
    );

    let mut rows = Vec::new();
    for step in &steps {
        let report = loadgen::run(&LoadgenConfig {
            targets: vec![server.addr()],
            connections: step.connections,
            pipeline_depth: step.pipeline_depth,
            requests_per_connection: step.requests_per_connection,
            request_line: request_line.clone(),
            timeout: Duration::from_secs(120),
        })
        .expect("loadgen run");
        assert_eq!(
            report.replies(),
            report.sent,
            "every request must be accounted for"
        );
        let secs = report.elapsed_ns as f64 / 1e9;
        #[allow(clippy::cast_precision_loss)]
        let rate = report.replies() as f64 / secs;
        let row = format!(
            "{{\"connections\": {}, \"pipeline_depth\": {}, \"pollers\": {}, \
             \"sent\": {}, \"served\": {}, \"shed_overloaded\": {}, \
             \"shed_deadline\": {}, \"errors\": {}, \"completed_connections\": {}, \
             \"elapsed_s\": {:.3}, \"replies_per_s\": {:.0}}}",
            report.connections,
            step.pipeline_depth,
            pollers,
            report.sent,
            report.served,
            report.shed_overloaded,
            report.shed_deadline,
            report.errors,
            report.completed_connections,
            secs,
            rate,
        );
        println!("serve_loadgen: {row}");
        rows.push(row);
    }
    server.shutdown();

    let report = format!("{{\"curve\": [\n  {}\n]}}\n", rows.join(",\n  "));
    if let Ok(path) = std::env::var("HMDIV_LOADGEN_OUT") {
        let mut file = std::fs::File::create(&path).expect("open HMDIV_LOADGEN_OUT");
        file.write_all(report.as_bytes()).expect("write curve");
        println!("serve_loadgen: curve written to {path}");
    }
}
