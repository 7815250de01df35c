//! Loopback throughput of the `hmdiv-serve` JSON-lines server.
//!
//! Two questions, both over real TCP on 127.0.0.1:
//!
//! 1. `round_trips`: requests/second at 1, 4 and 8 concurrent
//!    connections, comparing one-request-per-round-trip clients
//!    (`unbatched`) against pipelined clients (`batched`), whose requests
//!    the server frames and answers together in one pass per read.
//! 2. `scenarios_1k`: a 1000-scenario design sweep issued as 1000
//!    synchronous round trips vs 1000 pipelined single-scenario requests
//!    vs one request carrying all 1000 scenarios. The pipelined/batched
//!    ratio is the PR-4 acceptance gate recorded in `BENCH_pr4.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hmdiv_serve::{json, Client, Json, Server, ServerConfig};

/// Requests per measured iteration of the `round_trips` group.
const ROUND_TRIP_REQS: usize = 64;

/// The paper's two-class machine parameters as a `load` body.
fn paper_classes() -> Json {
    json::parse(
        r#"{"easy":      {"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
            "difficult": {"p_mf":0.41,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}"#,
    )
    .expect("static JSON")
}

/// The paper's field demand profile as a request member.
fn field_profile() -> Json {
    json::parse(r#"{"easy":0.9,"difficult":0.1}"#).expect("static JSON")
}

/// Starts a server and loads the paper model, returning its registry id.
fn start_loaded_server() -> (Server, String) {
    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let receipt = client
        .request("load", vec![("classes".into(), paper_classes())])
        .expect("load paper model");
    let model_id = receipt
        .get("model_id")
        .and_then(Json::as_str)
        .expect("receipt carries model_id")
        .to_owned();
    (server, model_id)
}

/// Body of one `evaluate` request against the field profile.
fn evaluate_fields(model_id: &str) -> Vec<(String, Json)> {
    vec![
        ("model".into(), Json::str(model_id)),
        ("profile".into(), field_profile()),
    ]
}

/// A 1000-scenario sweep: machine improvement factors fanned over the
/// two classes, one scenario per element.
fn sweep_scenarios() -> Vec<Json> {
    (0..1000)
        .map(|i| {
            let class = if i % 2 == 0 { "difficult" } else { "easy" };
            let factor = 1.5 + (i / 2) as f64 * 0.01;
            json::parse(&format!(
                r#"[{{"op":"improve_machine","class":"{class}","factor":{factor}}}]"#
            ))
            .expect("static JSON")
        })
        .collect()
}

/// Body of one `scenarios` request carrying the given scenario list.
fn scenarios_fields(model_id: &str, scenarios: Vec<Json>) -> Vec<(String, Json)> {
    vec![
        ("model".into(), Json::str(model_id)),
        ("profile".into(), field_profile()),
        ("scenarios".into(), Json::Arr(scenarios)),
    ]
}

fn bench_round_trips(c: &mut Criterion) {
    let (server, model_id) = start_loaded_server();
    let addr = server.addr();
    let mut group = c.benchmark_group("serve_round_trips");
    group.throughput(Throughput::Elements(ROUND_TRIP_REQS as u64));
    for conns in [1usize, 4, 8] {
        let per_conn = ROUND_TRIP_REQS / conns;
        let mut clients: Vec<Client> = (0..conns)
            .map(|_| Client::connect(addr).expect("connect"))
            .collect();
        group.bench_with_input(BenchmarkId::new("unbatched", conns), &conns, |b, _| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for client in clients.iter_mut() {
                        let model_id = model_id.as_str();
                        scope.spawn(move || {
                            for _ in 0..per_conn {
                                client
                                    .request("evaluate", evaluate_fields(model_id))
                                    .expect("evaluate");
                            }
                        });
                    }
                });
            });
        });
        let mut clients: Vec<Client> = (0..conns)
            .map(|_| Client::connect(addr).expect("connect"))
            .collect();
        group.bench_with_input(BenchmarkId::new("batched", conns), &conns, |b, _| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for client in clients.iter_mut() {
                        let model_id = model_id.as_str();
                        scope.spawn(move || {
                            let requests = (0..per_conn)
                                .map(|_| ("evaluate".to_owned(), evaluate_fields(model_id)))
                                .collect();
                            for outcome in client.pipeline(requests).expect("pipeline") {
                                outcome.expect("evaluate");
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
    server.shutdown();
}

fn bench_scenarios_1k(c: &mut Criterion) {
    let (server, model_id) = start_loaded_server();
    let addr = server.addr();
    let scenarios = sweep_scenarios();
    let mut group = c.benchmark_group("serve_scenarios_1k");
    group.throughput(Throughput::Elements(scenarios.len() as u64));

    let mut client = Client::connect(addr).expect("connect");
    group.bench_function("unbatched_round_trips", |b| {
        b.iter(|| {
            for scenario in &scenarios {
                client
                    .request(
                        "scenarios",
                        scenarios_fields(&model_id, vec![scenario.clone()]),
                    )
                    .expect("scenarios");
            }
        });
    });

    let mut client = Client::connect(addr).expect("connect");
    group.bench_function("batched_pipeline", |b| {
        b.iter(|| {
            let requests = scenarios
                .iter()
                .map(|scenario| {
                    (
                        "scenarios".to_owned(),
                        scenarios_fields(&model_id, vec![scenario.clone()]),
                    )
                })
                .collect();
            for outcome in client.pipeline(requests).expect("pipeline") {
                outcome.expect("scenarios");
            }
        });
    });

    let mut client = Client::connect(addr).expect("connect");
    group.bench_function("single_bulk_request", |b| {
        b.iter(|| {
            client
                .request("scenarios", scenarios_fields(&model_id, scenarios.clone()))
                .expect("scenarios");
        });
    });

    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench_round_trips, bench_scenarios_1k);
criterion_main!(benches);
