//! End-to-end tests for request-lifecycle tracing over a loopback socket:
//! trace-id round-trips, flight-recorder drain ordering, shed capture
//! (`overloaded` / `deadline_exceeded`) with automatic dump files, and —
//! the invariant everything else hangs off — bit-identity of trace-enabled
//! replies against direct in-process evaluation under concurrent load.

use std::path::PathBuf;
use std::sync::Arc;

use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::{paper, ClassId};
use hmdiv_serve::{json, Client, Json, ServeError, Server, ServerConfig};

/// The paper's Table 2 parameter table, as a `load` request body member.
fn paper_classes() -> (String, Json) {
    (
        "classes".to_owned(),
        json::parse(
            r#"{"easy":      {"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
                "difficult": {"p_mf":0.41,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}"#,
        )
        .expect("static JSON"),
    )
}

/// The paper's field demand profile as a wire object.
fn field_profile() -> (String, Json) {
    (
        "profile".to_owned(),
        json::parse(r#"{"easy":0.9,"difficult":0.1}"#).expect("static JSON"),
    )
}

fn start_traced(capacity: usize) -> Server {
    Server::start(ServerConfig {
        trace_capacity: capacity,
        ..ServerConfig::default()
    })
    .expect("server start")
}

fn load_paper_model(client: &mut Client) -> String {
    let receipt = client
        .request("load", vec![paper_classes()])
        .expect("load should succeed");
    receipt
        .get("model_id")
        .and_then(Json::as_str)
        .expect("receipt carries model_id")
        .to_owned()
}

/// Drains the flight recorder with the `trace` verb and returns the
/// records array.
fn drain_records(client: &mut Client) -> Vec<Json> {
    let report = client.request("trace", vec![]).expect("trace verb");
    report
        .get("records")
        .and_then(Json::as_arr)
        .expect("records array")
        .to_vec()
}

#[test]
fn trace_verb_is_rejected_when_tracing_is_disabled() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.request("trace", vec![]).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Remote { ref code, .. } if code == "trace_disabled"
    ));
    server.shutdown();
}

#[test]
fn client_supplied_trace_ids_echo_even_without_tracing() {
    // With tracing off the server mints nothing, but a caller-supplied
    // correlation id still comes back on the response envelope.
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let responses = client
        .pipeline_traced(vec![
            (
                "ping".to_owned(),
                vec![("trace_id".to_owned(), Json::str("00000000000000ff"))],
            ),
            ("ping".to_owned(), vec![]),
        ])
        .unwrap();
    assert_eq!(responses[0].trace_id.as_deref(), Some("00000000000000ff"));
    assert!(responses[0].result.is_ok());
    assert_eq!(responses[1].trace_id, None, "no id supplied, none echoed");
    server.shutdown();
}

#[test]
fn malformed_trace_ids_are_rejected() {
    let server = start_traced(8);
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .request("ping", vec![("trace_id".to_owned(), Json::str("xyzzy"))])
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::Remote { ref code, .. } if code == "bad_request"
    ));
    server.shutdown();
}

/// The round-trip at the heart of the tentpole: a client-supplied
/// `trace_id` is echoed on the wire AND names the server-side
/// flight-recorder record, which carries the full stage breakdown.
#[test]
fn trace_id_round_trips_into_the_flight_recorder() {
    let server = start_traced(64);
    let mut client = Client::connect(server.addr()).unwrap();
    let model_id = load_paper_model(&mut client);
    let responses = client
        .pipeline_traced(vec![(
            "evaluate".to_owned(),
            vec![
                ("model".to_owned(), Json::str(model_id.as_str())),
                field_profile(),
                ("trace_id".to_owned(), Json::str("00000000000000ff")),
            ],
        )])
        .unwrap();
    assert_eq!(responses[0].trace_id.as_deref(), Some("00000000000000ff"));
    assert!(responses[0].result.is_ok());

    let records = drain_records(&mut client);
    let record = records
        .iter()
        .find(|r| r.get("trace_id").and_then(Json::as_str) == Some("00000000000000ff"))
        .expect("the correlated record is in the ring");
    assert_eq!(record.get("verb").and_then(Json::as_str), Some("evaluate"));
    assert_eq!(
        record.get("model").and_then(Json::as_str),
        Some(model_id.as_str())
    );
    assert_eq!(record.get("outcome").and_then(Json::as_str), Some("ok"));
    assert_eq!(record.get("batch_size").and_then(Json::as_f64), Some(1.0));
    // An evaluate passes through every stage of the pipeline.
    let stages = record.get("stages").expect("stages object");
    for stage in [
        "read",
        "parse",
        "queue",
        "batch",
        "eval",
        "serialize",
        "write",
    ] {
        let span = stages
            .get(stage)
            .unwrap_or_else(|| panic!("stage `{stage}` must be stamped"));
        assert!(span.get("start_ns").and_then(Json::as_f64).is_some());
        assert!(span.get("dur_ns").and_then(Json::as_f64).is_some());
    }
    assert!(record.get("total_ns").and_then(Json::as_f64).unwrap() > 0.0);
    // The span tree parents every stage under the root verb span.
    let spans = record.get("spans").and_then(Json::as_arr).unwrap();
    assert_eq!(spans[0].get("parent"), Some(&Json::Null), "root span");
    assert!(spans.len() > 1);
    for child in &spans[1..] {
        assert_eq!(child.get("parent").and_then(Json::as_f64), Some(0.0));
    }
    server.shutdown();
}

/// Records drain oldest-first, minted ids are unique, and a drain empties
/// the ring (the next drain only sees requests issued in between).
#[test]
fn flight_recorder_drains_oldest_first_and_empties() {
    let server = start_traced(64);
    let mut client = Client::connect(server.addr()).unwrap();
    // Distinct client-supplied ids, issued strictly in sequence.
    let ids: Vec<String> = (0x10..0x18_u64).map(|n| format!("{n:016x}")).collect();
    for id in &ids {
        client
            .request(
                "ping",
                vec![("trace_id".to_owned(), Json::str(id.as_str()))],
            )
            .unwrap();
    }
    let records = drain_records(&mut client);
    let seen: Vec<&str> = records
        .iter()
        .filter_map(|r| r.get("trace_id").and_then(Json::as_str))
        .filter(|t| ids.iter().any(|id| id == t))
        .collect();
    assert_eq!(seen, ids, "drain must preserve admission order");

    // The drain consumed the ring: only the `trace` request itself (and
    // anything after) can show up now.
    let records = drain_records(&mut client);
    assert!(
        records
            .iter()
            .filter_map(|r| r.get("trace_id").and_then(Json::as_str))
            .all(|t| ids.iter().all(|id| id != t)),
        "drained records must not reappear"
    );
    server.shutdown();
}

/// The ring keeps the newest `capacity` records; older ones age out but
/// stay counted in `recorded`.
#[test]
fn flight_recorder_ring_overwrites_oldest_at_capacity() {
    let server = start_traced(2);
    let mut client = Client::connect(server.addr()).unwrap();
    for n in 0x20..0x26_u64 {
        client
            .request(
                "ping",
                vec![("trace_id".to_owned(), Json::str(format!("{n:016x}")))],
            )
            .unwrap();
    }
    let report = client.request("trace", vec![]).unwrap();
    assert_eq!(report.get("capacity").and_then(Json::as_f64), Some(2.0));
    assert_eq!(report.get("recorded").and_then(Json::as_f64), Some(6.0));
    let seen: Vec<&str> = report
        .get("records")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|r| r.get("trace_id").and_then(Json::as_str))
        .collect();
    assert_eq!(seen, ["0000000000000024", "0000000000000025"]);
    server.shutdown();
}

/// A scratch dump path that is unique per test, cleaned up on drop.
struct DumpFile(PathBuf);

impl DumpFile {
    fn new(tag: &str) -> DumpFile {
        DumpFile(
            std::env::temp_dir().join(format!("hmdiv_trace_{tag}_{}.json", std::process::id())),
        )
    }
}

impl Drop for DumpFile {
    fn drop(&mut self) {
        drop(std::fs::remove_file(&self.0));
    }
}

/// Saturating a zero-capacity queue sheds with `overloaded`; the shed is
/// captured in the flight recorder with its stage timings and admission
/// queue depth, and the recorder dumps itself to the configured path.
#[test]
fn shed_events_are_recorded_and_dumped() {
    let dump = DumpFile::new("shed");
    let server = Server::start(ServerConfig {
        queue_capacity: 0,
        trace_capacity: 64,
        trace_dump: Some(dump.0.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // `load` is inline (no queue) and must still work while saturated.
    let model_id = load_paper_model(&mut client);
    let err = client
        .request(
            "evaluate",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                field_profile(),
            ],
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::Remote { ref code, .. } if code == "overloaded"
    ));

    // Every shed event lands in the ring with per-stage timings.
    let records = drain_records(&mut client);
    let shed = records
        .iter()
        .find(|r| r.get("outcome").and_then(Json::as_str) == Some("overloaded"))
        .expect("the shed evaluate is recorded");
    assert_eq!(shed.get("verb").and_then(Json::as_str), Some("evaluate"));
    assert_eq!(shed.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    let stages = shed.get("stages").expect("stages object");
    for stage in ["read", "parse", "serialize", "write"] {
        assert!(
            stages.get(stage).is_some(),
            "shed record must still stamp `{stage}`"
        );
    }

    // The shed also triggered an automatic dump: same JSON as the verb.
    let text = std::fs::read_to_string(&dump.0).expect("dump file written on shed");
    let report = json::parse(text.trim()).expect("dump is valid JSON");
    assert!(report
        .get("records")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .any(|r| r.get("outcome").and_then(Json::as_str) == Some("overloaded")));
    assert_eq!(report.get("capacity").and_then(Json::as_f64), Some(64.0));
    server.shutdown();
}

/// An already-expired deadline is captured as `deadline_exceeded` and
/// triggers the dump just like an overload shed.
#[test]
fn deadline_sheds_are_recorded_and_dumped() {
    let dump = DumpFile::new("deadline");
    let server = Server::start(ServerConfig {
        trace_capacity: 64,
        trace_dump: Some(dump.0.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let model_id = load_paper_model(&mut client);
    let err = client
        .request(
            "evaluate",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                field_profile(),
                ("deadline_ms".into(), Json::Num(0.0)),
            ],
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::Remote { ref code, .. } if code == "deadline_exceeded"
    ));
    let records = drain_records(&mut client);
    assert!(
        records
            .iter()
            .any(|r| r.get("outcome").and_then(Json::as_str) == Some("deadline_exceeded")),
        "deadline shed must be recorded"
    );
    assert!(dump.0.exists(), "deadline shed must trigger a dump");
    server.shutdown();
}

/// The PR-2 invariant, extended to tracing: with the flight recorder on,
/// replies under concurrent, pipelined, batched load from 1, 2, and 7
/// client threads are bit-for-bit the numbers a direct in-process
/// `CompiledModel` evaluation produces. Tracing observes; it never
/// perturbs.
#[test]
fn trace_enabled_replies_are_bit_identical_to_direct_evaluation() {
    let model = paper::example_model().unwrap();
    let compiled = model.compiled();
    let profile = paper::field_profile().unwrap();
    let bound = compiled.bind_profile(&profile).unwrap();
    let expected_eval = compiled.system_failure(&bound).value().to_bits();
    let scenarios: Vec<Scenario> = (1..=4)
        .map(|i| Scenario::new().improve_machine(ClassId::new("difficult"), f64::from(i) * 3.0))
        .collect();
    let expected_scen: Vec<u64> = compiled
        .evaluate_scenarios(&scenarios, &bound)
        .unwrap()
        .iter()
        .map(|p| p.value().to_bits())
        .collect();
    let scenario_wire = json::parse(
        r#"[[{"op":"improve_machine","class":"difficult","factor":3}],
            [{"op":"improve_machine","class":"difficult","factor":6}],
            [{"op":"improve_machine","class":"difficult","factor":9}],
            [{"op":"improve_machine","class":"difficult","factor":12}]]"#,
    )
    .unwrap();

    let server = start_traced(256);
    {
        let mut setup = Client::connect(server.addr()).unwrap();
        load_paper_model(&mut setup);
    }
    let addr = server.addr();
    let expected_scen = Arc::new(expected_scen);

    for client_threads in [1_usize, 2, 7] {
        let workers: Vec<_> = (0..client_threads)
            .map(|_| {
                let scenario_wire = scenario_wire.clone();
                let expected_scen = Arc::clone(&expected_scen);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let model_id = load_paper_model(&mut client);
                    for _round in 0..10 {
                        let mut requests = Vec::new();
                        for _ in 0..5 {
                            requests.push((
                                "evaluate".to_owned(),
                                vec![
                                    ("model".to_owned(), Json::str(model_id.as_str())),
                                    field_profile(),
                                ],
                            ));
                        }
                        requests.push((
                            "scenarios".to_owned(),
                            vec![
                                ("model".to_owned(), Json::str(model_id.as_str())),
                                field_profile(),
                                ("scenarios".to_owned(), scenario_wire.clone()),
                            ],
                        ));
                        let responses = client.pipeline_traced(requests).unwrap();
                        for response in &responses {
                            // Every traced response carries a minted id.
                            let id = response.trace_id.as_deref().expect("minted trace id");
                            assert_eq!(id.len(), 16, "wire ids are 16 hex digits");
                        }
                        for response in &responses[..5] {
                            let failure = response
                                .result
                                .as_ref()
                                .unwrap()
                                .get("failure")
                                .and_then(Json::as_f64)
                                .unwrap();
                            assert_eq!(failure.to_bits(), expected_eval, "evaluate drifted");
                        }
                        let failures: Vec<u64> = responses[5]
                            .result
                            .as_ref()
                            .unwrap()
                            .get("failures")
                            .and_then(Json::as_arr)
                            .unwrap()
                            .iter()
                            .map(|v| v.as_f64().unwrap().to_bits())
                            .collect();
                        assert_eq!(failures, *expected_scen, "scenarios drifted");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client worker panicked");
        }
    }

    // The recorder saw the whole run (350 evaluations + loads + pings
    // exceed the ring; `recorded` counts them all).
    let mut client = Client::connect(addr).unwrap();
    let report = client.request("trace", vec![]).unwrap();
    assert!(report.get("recorded").and_then(Json::as_f64).unwrap() >= 600.0);
    server.shutdown();
}
