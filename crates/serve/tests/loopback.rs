//! End-to-end tests over a real loopback socket: golden request/response
//! fixtures for every verb, wire-error mapping, robustness (malformed
//! input, oversized lines, deadlines, overload), bit-identity against
//! direct in-process evaluation — including under concurrent batched
//! load — and graceful-shutdown draining.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::{paper, ClassId, UniverseManifest};
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

fn start() -> Server {
    Server::start(ServerConfig::default()).expect("server start")
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

#[test]
fn golden_fixtures_for_every_verb() {
    // The metrics verb exports whatever the obs layer recorded; recording
    // is off by default, so opt in for this test binary.
    hmdiv_obs::set_enabled(true);
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();

    // ping
    let pong = client.request("ping", vec![]).unwrap();
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    // load: content-addressed receipt with the interned universe.
    let receipt = client.request("load", vec![paper_classes()]).unwrap();
    let model_id = receipt.get("model_id").and_then(Json::as_str).unwrap();
    assert!(model_id.starts_with('m'));
    let classes: Vec<&str> = receipt
        .get("classes")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(classes, ["difficult", "easy"]);
    let expected_hash = UniverseManifest::of(paper::example_model().unwrap().compiled().universe());
    assert_eq!(
        receipt.get("universe_hash").and_then(Json::as_str),
        Some(format!("{:016x}", expected_hash.hash()).as_str())
    );
    let model_id = model_id.to_owned();

    // evaluate: the paper's field estimate, to full double precision.
    let result = client
        .request(
            "evaluate",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                field_profile(),
            ],
        )
        .unwrap();
    let direct = {
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        let bound = compiled
            .bind_profile(&paper::field_profile().unwrap())
            .unwrap();
        compiled.system_failure(&bound)
    };
    let failure = result.get("failure").and_then(Json::as_f64).unwrap();
    assert_eq!(failure.to_bits(), direct.value().to_bits());
    assert!((failure - 0.18902).abs() < 1e-9);

    // scenarios: a grid of machine improvements.
    let result = client
        .request(
            "scenarios",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                field_profile(),
                (
                    "scenarios".into(),
                    json::parse(
                        r#"[[{"op":"improve_machine","class":"difficult","factor":10}],
                            [{"op":"improve_machine_everywhere","factor":2}]]"#,
                    )
                    .unwrap(),
                ),
            ],
        )
        .unwrap();
    let failures = result.get("failures").and_then(Json::as_arr).unwrap();
    assert_eq!(failures.len(), 2);
    // §6.2: improving the machine on difficult demands barely helps — the
    // reader's high coherence there caps the gain.
    assert!(failures[0].as_f64().unwrap() < 0.18902);

    // extrapolate: before/after/improvement in one call.
    let result = client
        .request(
            "extrapolate",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                field_profile(),
                (
                    "scenario".into(),
                    json::parse(r#"[{"op":"improve_machine","class":"easy","factor":10}]"#)
                        .unwrap(),
                ),
            ],
        )
        .unwrap();
    let before = result.get("before").and_then(Json::as_f64).unwrap();
    let after = result.get("after").and_then(Json::as_f64).unwrap();
    let improvement = result.get("improvement").and_then(Json::as_f64).unwrap();
    assert_eq!(before.to_bits(), direct.value().to_bits());
    assert!(after < before);
    assert!((improvement - (before - after)).abs() < 1e-15);

    // importance: the Fig. 4 lines per class.
    let result = client
        .request(
            "importance",
            vec![("model".into(), Json::str(model_id.as_str()))],
        )
        .unwrap();
    let lines = result.get("lines").and_then(Json::as_arr).unwrap();
    assert_eq!(lines.len(), 2);
    let difficult = lines
        .iter()
        .find(|l| l.get("class").and_then(Json::as_str) == Some("difficult"))
        .unwrap();
    assert!(
        (difficult
            .get("coherence_index")
            .and_then(Json::as_f64)
            .unwrap()
            - 0.5)
            .abs()
            < 1e-12
    );
    assert!((difficult.get("lower_bound").and_then(Json::as_f64).unwrap() - 0.4).abs() < 1e-12);

    // load_cohort + cohort: mean/best/worst/spread plus per-reader rows.
    let receipt = client
        .request(
            "load_cohort",
            vec![(
                "members".into(),
                json::parse(
                    r#"[{"name":"r1","weight":2,
                         "classes":{"easy":{"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
                                    "difficult":{"p_mf":0.41,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}},
                        {"name":"r2","weight":1,
                         "classes":{"easy":{"p_mf":0.07,"p_hf_given_ms":0.10,"p_hf_given_mf":0.12},
                                    "difficult":{"p_mf":0.41,"p_hf_given_ms":0.30,"p_hf_given_mf":0.55}}}]"#,
                )
                .unwrap(),
            )],
        )
        .unwrap();
    let cohort_id = receipt
        .get("model_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    assert!(cohort_id.starts_with('c'));
    let summary = client
        .request(
            "cohort",
            vec![
                ("cohort".into(), Json::str(cohort_id.as_str())),
                field_profile(),
            ],
        )
        .unwrap();
    let mean = summary.get("mean").and_then(Json::as_f64).unwrap();
    let best = summary.get("best").and_then(Json::as_f64).unwrap();
    let worst = summary.get("worst").and_then(Json::as_f64).unwrap();
    assert!(best <= mean && mean <= worst);
    assert_eq!(summary.get("rows").and_then(Json::as_arr).unwrap().len(), 2);
    // Worst reader first, and r1 is the paper-average (worse) reader.
    assert_eq!(
        summary.get("rows").and_then(Json::as_arr).unwrap()[0]
            .get("name")
            .and_then(Json::as_str),
        Some("r1")
    );

    // models: both artifacts listed.
    let listing = client.request("models", vec![]).unwrap();
    let rows = listing.get("models").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 2);

    // metrics: Prometheus text with serve counters present, plus the
    // sweep length from which one evaluation runs in parallel.
    let metrics = client.request("metrics", vec![]).unwrap();
    let text = metrics.get("prometheus").and_then(Json::as_str).unwrap();
    assert!(text.contains("serve_verb_evaluate"), "got: {text}");
    assert!(text.contains("serve_batch_flushes"), "got: {text}");
    // The per-evaluation metrics, sampled as each evaluation starts, and
    // the percentile gauges derived from each histogram.
    assert!(text.contains("hmdiv_serve_queue_depth"), "got: {text}");
    assert!(
        text.contains("hmdiv_serve_batch_size_bucket"),
        "got: {text}"
    );
    assert!(
        text.contains("hmdiv_serve_request_seconds_p99"),
        "got: {text}"
    );
    let threshold = metrics.get("par_threshold").and_then(Json::as_f64).unwrap();
    assert!(threshold > 0.0, "got: {threshold}");
    // Golden JSON shape of the histogram summaries: every histogram
    // carries exactly unit/count/sum/p50/p95/p99, and the serve.*
    // histograms the verbs above produced are present with the right
    // units and ordered percentiles.
    let histograms = metrics.get("histograms").expect("histograms member");
    let obj = histograms.as_obj().expect("histograms is an object");
    assert!(!obj.is_empty(), "histograms must not be empty");
    for (name, h) in obj {
        let members: Vec<&str> = h
            .as_obj()
            .unwrap_or_else(|| panic!("`{name}` must be an object"))
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            members,
            ["unit", "count", "sum", "p50", "p95", "p99"],
            "summary shape drifted for `{name}`"
        );
        let p50 = h.get("p50").and_then(Json::as_f64).unwrap();
        let p95 = h.get("p95").and_then(Json::as_f64).unwrap();
        let p99 = h.get("p99").and_then(Json::as_f64).unwrap();
        assert!(p50 <= p95 && p95 <= p99, "`{name}`: {p50} {p95} {p99}");
    }
    let request = histograms.get("serve.request").expect("serve.request");
    assert_eq!(request.get("unit").and_then(Json::as_str), Some("ns"));
    assert!(request.get("count").and_then(Json::as_f64).unwrap() > 0.0);
    let batch = histograms
        .get("serve.batch_size")
        .expect("serve.batch_size");
    assert_eq!(batch.get("unit").and_then(Json::as_str), Some("count"));
    assert!(batch.get("count").and_then(Json::as_f64).unwrap() > 0.0);
    // The evaluations in progress ride along (none by now), with their
    // summed admission cost, plus the poller pool's live view: one open
    // connection (ours) multiplexed over the default pool.
    assert_eq!(metrics.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    assert_eq!(metrics.get("queue_cost").and_then(Json::as_f64), Some(0.0));
    assert_eq!(metrics.get("connections").and_then(Json::as_f64), Some(1.0));
    assert_eq!(metrics.get("pollers").and_then(Json::as_f64), Some(4.0));
    // The event-loop satellites are registered: the live-socket gauge and
    // the poller wakeup counter flow through the exporters too.
    assert!(text.contains("serve_connections"), "got: {text}");
    assert!(text.contains("serve_poll_wakeups"), "got: {text}");

    server.shutdown();
}

#[test]
fn wire_errors_carry_stable_codes() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let model_id = load_paper_model(&mut client);

    let code_of = |r: Result<Json, ServeError>| match r.unwrap_err() {
        ServeError::Remote { code, .. } => code,
        other => panic!("expected Remote error, got {other:?}"),
    };

    // Serve-layer errors.
    assert_eq!(code_of(client.request("warp", vec![])), "unknown_verb");
    assert_eq!(
        code_of(client.request(
            "evaluate",
            vec![
                ("model".into(), Json::str("m0000000000000000")),
                field_profile()
            ],
        )),
        "unknown_model"
    );
    assert_eq!(
        code_of(client.request("evaluate", vec![field_profile()])),
        "bad_request"
    );

    // Model-layer errors, each with its own code.
    assert_eq!(
        code_of(client.request(
            "evaluate",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                ("profile".into(), json::parse(r#"{"ghost":1.0}"#).unwrap()),
            ],
        )),
        "unknown_class"
    );
    assert_eq!(
        code_of(client.request(
            "evaluate",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                ("profile".into(), json::parse("{}").unwrap()),
            ],
        )),
        "empty"
    );
    assert_eq!(
        code_of(client.request(
            "evaluate",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                (
                    "profile".into(),
                    json::parse(r#"{"easy":0.5,"easy":0.5}"#).unwrap()
                ),
            ],
        )),
        "duplicate_class"
    );
    assert_eq!(
        code_of(client.request(
            "load",
            vec![
                paper_classes(),
                (
                    "universe".into(),
                    json::parse(r#"{"classes":["other"],"hash":"0000000000000000"}"#).unwrap()
                ),
            ],
        )),
        "universe_mismatch"
    );
    assert_eq!(
        code_of(client.request(
            "scenarios",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                field_profile(),
                (
                    "scenarios".into(),
                    json::parse(r#"[[{"op":"improve_machine_everywhere","factor":0.5}]]"#).unwrap()
                ),
            ],
        )),
        "invalid_factor"
    );
    assert_eq!(
        code_of(client.request(
            "load",
            vec![(
                "classes".into(),
                json::parse(
                    r#"{"easy":{"p_mf":1.5,"p_hf_given_ms":0.1,"p_hf_given_mf":0.2}}"#
                )
                .unwrap()
            )],
        )),
        "prob"
    );

    server.shutdown();
}

#[test]
fn scenario_errors_have_golden_lines() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let model_id = load_paper_model(&mut client);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut exchange = |line: String| {
        raw.write_all(line.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        read_line(&mut raw)
    };
    let request = |id: usize, model: &str, scenarios: &str| {
        let tail = if scenarios.is_empty() {
            String::new()
        } else {
            format!(",\"scenarios\":{scenarios}")
        };
        format!(
            "{{\"id\":{id},\"verb\":\"scenarios\",\"model\":\"{model}\",\
             \"profile\":{{\"easy\":0.9,\"difficult\":0.1}}{tail}}}"
        )
    };
    let bad = |id: usize, message: &str| {
        format!(
            "{{\"id\":{id},\"ok\":false,\"error\":{{\"code\":\"bad_request\",\
             \"message\":\"bad request: {message}\"}}}}"
        )
    };
    // Every scenario shape fault, one golden line each.
    let shapes = [
        ("", "missing field `scenarios`"),
        ("{}", "`scenarios` must be an array of scenarios"),
        ("[]", "`scenarios` must not be empty"),
        ("[{}]", "a scenario must be an array of change objects"),
        ("[[5]]", "missing field `op`"),
        (r#"[[{"factor":2}]]"#, "missing field `op`"),
        (r#"[[{"op":7}]]"#, "field `op` must be a string"),
        (
            r#"[[{"op":"warp","factor":2}]]"#,
            "unknown scenario op `warp`",
        ),
        (
            r#"[[{"op":"improve_machine","factor":2}]]"#,
            "missing field `class`",
        ),
        (
            r#"[[{"op":"set_reader","class":5,"p_hf_given_ms":0.1,"p_hf_given_mf":0.2}]]"#,
            "field `class` must be a string",
        ),
        (
            r#"[[{"op":"scale_reader_everywhere"}]]"#,
            "missing field `factor`",
        ),
        (
            r#"[[{"op":"improve_machine_everywhere","factor":"2"}]]"#,
            "field `factor` must be a number",
        ),
        // The first of duplicate keys is the one that counts.
        (
            r#"[[{"op":"improve_machine_everywhere","factor":"2","factor":2}]]"#,
            "field `factor` must be a number",
        ),
        // A later bad scenario fails the batch after good ones.
        (
            r#"[[{"op":"improve_machine_everywhere","factor":2}],[{"op":"warp"}]]"#,
            "unknown scenario op `warp`",
        ),
    ];
    for (i, (scenarios, message)) in shapes.iter().enumerate() {
        assert_eq!(
            exchange(request(i, &model_id, scenarios)),
            bad(i, message),
            "{scenarios}"
        );
    }
    // A probability outside [0, 1] is a model-layer error.
    assert_eq!(
        exchange(request(
            20,
            &model_id,
            r#"[[{"op":"set_machine_failure","class":"easy","p_mf":1.5}]]"#
        )),
        "{\"id\":20,\"ok\":false,\"error\":{\"code\":\"prob\",\"message\":\
         \"probability error: probability must lie in [0, 1], got 1.5\"}}"
    );
    // Precedence: JSON syntax first, then model binding, then shape.
    let syntax = request(21, &model_id, "[[{\"op\":01}]]");
    assert_eq!(
        exchange(syntax),
        "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"parse_error\",\"message\":\
         \"invalid JSON: invalid number `01` at byte 115\"}}"
    );
    assert_eq!(
        exchange(request(22, "m0000000000000000", "[]")),
        "{\"id\":22,\"ok\":false,\"error\":{\"code\":\"unknown_model\",\"message\":\
         \"no model or cohort loaded under id `m0000000000000000`\"}}"
    );
    // Well-formed scenarios — escaped names, ignored members — succeed.
    let ok = exchange(request(
        23,
        &model_id,
        r#"[[{"op":"improve_machine","class":"diff\u0069cult","factor":10,"why":["table 3"]}]]"#,
    ));
    assert!(
        ok.starts_with("{\"id\":23,\"ok\":true,\"result\":{\"failures\":["),
        "{ok}"
    );
    server.shutdown();
}

#[test]
fn analyze_verb_reports_and_load_rejects_with_hm_codes() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let model_id = load_paper_model(&mut client);

    // The paper model is clean: the on-demand report carries no findings.
    let report = client
        .request(
            "analyze",
            vec![("model".into(), Json::str(model_id.as_str()))],
        )
        .unwrap();
    assert_eq!(report.get("errors").and_then(Json::as_f64), Some(0.0));
    assert_eq!(report.get("summary").and_then(Json::as_str), Some("clean"));
    assert_eq!(
        report
            .get("diagnostics")
            .and_then(Json::as_arr)
            .unwrap()
            .len(),
        0
    );

    // A model with an inverted coherence index loads (warn-severity) and
    // the report surfaces the HM025 diagnostic.
    let receipt = client
        .request(
            "load",
            vec![(
                "classes".into(),
                json::parse(r#"{"odd":{"p_mf":0.3,"p_hf_given_ms":0.4,"p_hf_given_mf":0.1}}"#)
                    .unwrap(),
            )],
        )
        .unwrap();
    let odd_id = receipt
        .get("model_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    let report = client
        .request("analyze", vec![("model".into(), Json::str(odd_id))])
        .unwrap();
    let diags = report.get("diagnostics").and_then(Json::as_arr).unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("HM025")),
        "got: {diags:?}"
    );
    assert_eq!(report.get("errors").and_then(Json::as_f64), Some(0.0));

    // A cohort whose members intern different universes is refused at
    // load with the stable HM0xx code as the wire error code.
    let err = client
        .request(
            "load_cohort",
            vec![(
                "members".into(),
                json::parse(
                    r#"[{"name":"r1","weight":1,
                         "classes":{"easy":{"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18}}},
                        {"name":"r2","weight":1,
                         "classes":{"alien":{"p_mf":0.1,"p_hf_given_ms":0.2,"p_hf_given_mf":0.3}}}]"#,
                )
                .unwrap(),
            )],
        )
        .unwrap_err();
    let ServeError::Remote { code, message } = err else {
        panic!("expected Remote error");
    };
    assert_eq!(code, "HM030");
    assert!(message.contains("universe"), "got: {message}");
    // The rejected cohort was not admitted.
    let listing = client.request("models", vec![]).unwrap();
    let kinds: Vec<&str> = listing
        .get("models")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|r| r.get("kind").and_then(Json::as_str))
        .collect();
    assert!(!kinds.contains(&"cohort"), "got: {kinds:?}");

    server.shutdown();
}

#[test]
fn compare_verb_certifies_dominance_and_rejects_mismatches() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let baseline_id = load_paper_model(&mut client);

    // The §6.2 design change — machine improved ×10 on difficult — loads
    // as its own content id and provably dominates the baseline.
    let receipt = client
        .request(
            "load",
            vec![(
                "classes".into(),
                json::parse(
                    r#"{"easy":      {"p_mf":0.07, "p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
                        "difficult": {"p_mf":0.041,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}"#,
                )
                .unwrap(),
            )],
        )
        .unwrap();
    let improved_id = receipt
        .get("model_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();

    let verdict = client
        .request(
            "compare",
            vec![
                ("baseline".into(), Json::str(baseline_id.as_str())),
                ("candidate".into(), Json::str(improved_id.as_str())),
                field_profile(),
            ],
        )
        .unwrap();
    assert_eq!(
        verdict.get("verdict").and_then(Json::as_str),
        Some("dominates")
    );
    assert_eq!(
        verdict.get("uniform").and_then(Json::as_str),
        Some("dominates"),
        "per-class gaps are one-sided, so the certificate is profile-free"
    );
    let gaps = verdict.get("class_gaps").and_then(Json::as_arr).unwrap();
    assert_eq!(gaps.len(), 2);
    assert!(gaps
        .iter()
        .any(|g| g.get("shared") == Some(&Json::Bool(true))));
    assert_eq!(
        verdict
            .get("profile_gaps")
            .and_then(Json::as_arr)
            .unwrap()
            .len(),
        1
    );
    let report = verdict.get("report").unwrap();
    let codes: Vec<&str> = report
        .get("diagnostics")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|d| d.get("code").and_then(Json::as_str))
        .collect();
    assert!(codes.contains(&"HM038"), "got: {codes:?}");

    // Swapped operands certify the mirror verdict.
    let swapped = client
        .request(
            "compare",
            vec![
                ("baseline".into(), Json::str(improved_id.as_str())),
                ("candidate".into(), Json::str(baseline_id.as_str())),
            ],
        )
        .unwrap();
    assert_eq!(
        swapped.get("verdict").and_then(Json::as_str),
        Some("dominated")
    );

    // Comparing across universes is admission-rejected with HM037.
    let alien = client
        .request(
            "load",
            vec![(
                "classes".into(),
                json::parse(r#"{"weird":{"p_mf":0.1,"p_hf_given_ms":0.2,"p_hf_given_mf":0.3}}"#)
                    .unwrap(),
            )],
        )
        .unwrap();
    let alien_id = alien
        .get("model_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    let err = client
        .request(
            "compare",
            vec![
                ("baseline".into(), Json::str(baseline_id.as_str())),
                ("candidate".into(), Json::str(alien_id)),
            ],
        )
        .unwrap_err();
    let ServeError::Remote { code, message } = err else {
        panic!("expected Remote error");
    };
    assert_eq!(code, "HM037");
    assert!(message.contains("classes"), "got: {message}");

    server.shutdown();
}

#[test]
fn malformed_json_is_rejected_but_the_connection_survives() {
    let server = start();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"this is not json\n").unwrap();
    let mut response = String::new();
    let mut byte = [0_u8; 1];
    loop {
        raw.read_exact(&mut byte).unwrap();
        if byte[0] == b'\n' {
            break;
        }
        response.push(byte[0] as char);
    }
    let parsed = json::parse(&response).unwrap();
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("parse_error")
    );
    // Framing is intact, so the same connection still serves requests.
    raw.write_all(b"{\"id\":2,\"verb\":\"ping\"}\n").unwrap();
    let mut response = String::new();
    loop {
        raw.read_exact(&mut byte).unwrap();
        if byte[0] == b'\n' {
            break;
        }
        response.push(byte[0] as char);
    }
    assert!(response.contains("\"pong\":true"), "got: {response}");
    server.shutdown();
}

/// Reads one newline-terminated response off a raw socket.
fn read_line(raw: &mut TcpStream) -> String {
    let mut response = String::new();
    let mut byte = [0_u8; 1];
    loop {
        raw.read_exact(&mut byte).expect("socket closed mid-line");
        if byte[0] == b'\n' {
            return response;
        }
        response.push(byte[0] as char);
    }
}

#[test]
fn fresh_connections_are_answered_well_inside_one_accept_poll() {
    // The accept loop waits on the listener's readiness, so a connection
    // made right after the previous one is taken at once, not after the
    // 20 ms accept poll. The bounds are generous for noisy hosts.
    let server = start();
    let mut latencies: Vec<Duration> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.write_all(b"{\"id\":1,\"verb\":\"ping\"}\n").unwrap();
            let line = read_line(&mut raw);
            assert!(line.contains("\"pong\":true"), "got: {line}");
            start.elapsed()
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median fresh-connection ping took {median:?}"
    );
    // The listener wait still times out, so shutdown is noticed.
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
}

#[test]
fn oversized_lines_error_but_the_connection_survives() {
    let server = Server::start(ServerConfig {
        max_line_bytes: 256,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let huge = format!("{{\"verb\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(1024));
    raw.write_all(huge.as_bytes()).unwrap();
    let line = read_line(&mut raw);
    assert!(line.contains("\"code\":\"line_too_long\""), "got: {line}");
    // Framing resynced at the newline: the same connection keeps serving.
    raw.write_all(b"{\"id\":2,\"verb\":\"ping\"}\n").unwrap();
    let line = read_line(&mut raw);
    assert!(line.contains("\"pong\":true"), "got: {line}");
    server.shutdown();
}

#[test]
fn save_restore_round_trip_preserves_content_ids_across_servers() {
    let dir = std::env::temp_dir().join(format!(
        "hmdiv-serve-snapshot-roundtrip-{}",
        std::process::id()
    ));
    drop(std::fs::remove_dir_all(&dir));
    let expected_bits;
    let model_id;
    {
        let server = start();
        let mut client = Client::connect(server.addr()).unwrap();
        model_id = load_paper_model(&mut client);
        expected_bits = client
            .request(
                "evaluate",
                vec![
                    ("model".into(), Json::str(model_id.as_str())),
                    field_profile(),
                ],
            )
            .unwrap()
            .get("failure")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits();
        let saved = client
            .request(
                "save",
                vec![("dir".into(), Json::str(dir.to_str().unwrap()))],
            )
            .unwrap();
        assert_eq!(saved.get("saved").and_then(Json::as_f64), Some(1.0));
        let ids: Vec<&str> = saved
            .get("ids")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(ids, [model_id.as_str()]);
        server.shutdown();
    }

    // A fresh server warm-starts from the snapshot directory: same
    // content id, bit-identical answers, no client-side reload.
    let server = Server::start(ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let listing = client.request("models", vec![]).unwrap();
    let ids: Vec<&str> = listing
        .get("models")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    assert_eq!(ids, [model_id.as_str()]);
    let failure = client
        .request(
            "evaluate",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                field_profile(),
            ],
        )
        .unwrap()
        .get("failure")
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(failure.to_bits(), expected_bits, "warm start drifted");
    // The explicit verb restores idempotently into a live registry, and
    // defaults to the configured directory.
    let restored = client.request("restore", vec![]).unwrap();
    assert_eq!(restored.get("restored").and_then(Json::as_f64), Some(1.0));
    server.shutdown();
    drop(std::fs::remove_dir_all(&dir));
}

#[test]
fn admission_charges_scalar_evaluations_not_request_count() {
    // Capacity is an evaluation-cost budget: a 4-scenario batch (cost 4)
    // overflows a 3-cost bound even with nothing else in progress, while
    // a 3-scenario batch fits exactly.
    let server = Server::start(ServerConfig {
        queue_capacity: 3,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let model_id = load_paper_model(&mut client);
    let batch = |n: usize| {
        let grid: Vec<String> = (1..=n)
            .map(|i| format!(r#"[{{"op":"improve_machine","class":"difficult","factor":{i}0}}]"#))
            .collect();
        vec![
            ("model".to_owned(), Json::str(model_id.as_str())),
            field_profile(),
            (
                "scenarios".to_owned(),
                json::parse(&format!("[{}]", grid.join(","))).unwrap(),
            ),
        ]
    };
    let err = client.request("scenarios", batch(4)).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Remote { ref code, .. } if code == "overloaded"
    ));
    let ok = client.request("scenarios", batch(3)).unwrap();
    assert_eq!(ok.get("failures").and_then(Json::as_arr).unwrap().len(), 3);
    server.shutdown();
}

#[test]
fn deadline_zero_is_always_expired() {
    let server = start();
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
    // Without the deadline the same request succeeds.
    assert!(client
        .request(
            "evaluate",
            vec![
                ("model".into(), Json::str(model_id.as_str())),
                field_profile()
            ],
        )
        .is_ok());
    server.shutdown();
}

#[test]
fn zero_capacity_queue_sheds_every_evaluation() {
    let server = Server::start(ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Verbs that evaluate nothing bypass admission and still work.
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
    server.shutdown();
}

/// The acceptance bar: server results — under concurrent, pipelined,
/// batched load from 1, 2, and 7 client threads — are bit-for-bit the
/// numbers a direct in-process `CompiledModel` evaluation produces.
#[test]
fn loopback_bit_identity_under_concurrent_batched_load() {
    // Direct reference evaluation, in process.
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

    let server = start();
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
                        // Pipeline evaluates and scenario batches together so
                        // the pollers answer them mixed, across threads.
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
                        let results = client.pipeline(requests).unwrap();
                        for result in &results[..5] {
                            let failure = result
                                .as_ref()
                                .unwrap()
                                .get("failure")
                                .and_then(Json::as_f64)
                                .unwrap();
                            assert_eq!(failure.to_bits(), expected_eval, "evaluate drifted");
                        }
                        let failures: Vec<u64> = results[5]
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
    server.shutdown();
}

#[test]
fn shutdown_verb_drains_in_flight_work_and_stops_the_server() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let model_id = load_paper_model(&mut client);
    // Pipeline real work and then the shutdown verb; every request that
    // was accepted must still get its answer.
    let mut requests = Vec::new();
    for _ in 0..8 {
        requests.push((
            "evaluate".to_owned(),
            vec![
                ("model".to_owned(), Json::str(model_id.as_str())),
                field_profile(),
            ],
        ));
    }
    requests.push(("shutdown".to_owned(), Vec::new()));
    let results = client.pipeline(requests).unwrap();
    for result in &results[..8] {
        assert!(
            result.as_ref().unwrap().get("failure").is_some(),
            "in-flight work must drain through shutdown"
        );
    }
    assert_eq!(
        results[8]
            .as_ref()
            .unwrap()
            .get("draining")
            .and_then(Json::as_bool),
        Some(true)
    );
    // join() returns promptly because the accept loop honours the signal,
    // and afterwards the listener is gone: new connections are refused.
    let addr = server.addr();
    server.join();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be closed after join()"
    );
}

#[test]
fn manifest_and_fetch_expose_the_registry_for_fleet_sync() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();

    // Empty registry: an empty manifest, not an error.
    let empty = client.request("manifest", vec![]).unwrap();
    assert_eq!(empty.get("count").and_then(Json::as_u64), Some(0));
    assert_eq!(
        empty
            .get("artifacts")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );

    let model_id = load_paper_model(&mut client);
    let listing = client.request("manifest", vec![]).unwrap();
    assert_eq!(listing.get("count").and_then(Json::as_u64), Some(1));
    let rows = listing.get("artifacts").and_then(Json::as_arr).unwrap();
    assert_eq!(
        rows[0].get("id").and_then(Json::as_str),
        Some(model_id.as_str())
    );
    assert_eq!(
        rows[0].get("kind").and_then(Json::as_str),
        Some("sequential")
    );

    // fetch returns the load-verb wire shape plus the id; replaying it
    // through load on a second server reproduces the content id exactly.
    let fetched = client
        .request(
            "fetch",
            vec![("model".into(), Json::str(model_id.as_str()))],
        )
        .unwrap();
    assert_eq!(
        fetched.get("id").and_then(Json::as_str),
        Some(model_id.as_str())
    );
    assert_eq!(
        fetched.get("kind").and_then(Json::as_str),
        Some("sequential")
    );
    let Json::Obj(members) = fetched else {
        panic!("fetch must return an object");
    };
    let replay: Vec<(String, Json)> = members.into_iter().filter(|(k, _)| k != "id").collect();
    let second = start();
    let mut second_client = Client::connect(second.addr()).unwrap();
    let receipt = second_client.request("load", replay).unwrap();
    assert_eq!(
        receipt.get("model_id").and_then(Json::as_str),
        Some(model_id.as_str()),
        "the fetched shape must re-hash to the same content id"
    );

    // Fetching an unknown id is the usual typed error.
    let err = client
        .request(
            "fetch",
            vec![("model".into(), Json::str("m0000000000000000"))],
        )
        .unwrap_err();
    let ServeError::Remote { code, .. } = err else {
        panic!("expected Remote error");
    };
    assert_eq!(code, "unknown_model");

    second.shutdown();
    server.shutdown();
}

#[test]
fn retrying_client_survives_a_server_restart_on_the_same_port() {
    use hmdiv_serve::RetryPolicy;

    let server = start();
    let addr = server.addr();
    let mut client = Client::connect(addr)
        .unwrap()
        .with_retry(RetryPolicy::default());
    let model_id = load_paper_model(&mut client);

    // Stop the server entirely, then bring a fresh one up on the same
    // port (std listeners set SO_REUSEADDR). The registry restarts
    // empty, so reload before evaluating.
    server.shutdown();
    let restarted = Server::start(ServerConfig {
        addr: addr.to_string(),
        ..ServerConfig::default()
    })
    .expect("rebind on the same port");
    assert_eq!(restarted.addr(), addr);

    // The client's next pipeline hits a dead socket (BrokenPipe or a
    // mid-response EOF), reconnects under its backoff budget, and
    // replays — idempotent verbs make the replay safe.
    let reloaded = client.request("load", vec![paper_classes()]).unwrap();
    assert_eq!(
        reloaded.get("model_id").and_then(Json::as_str),
        Some(model_id.as_str())
    );
    let result = client
        .request(
            "evaluate",
            vec![
                ("model".to_owned(), Json::str(model_id.as_str())),
                field_profile(),
            ],
        )
        .unwrap();
    let failure = result.get("failure").and_then(Json::as_f64).unwrap();
    assert!((failure - 0.18902).abs() < 1e-9);

    // Without retry, the same restart is a hard transport error.
    let mut bare = Client::connect(addr).unwrap();
    let _ = bare.request("ping", vec![]).unwrap();
    restarted.shutdown();
    let err = bare.request("ping", vec![]).unwrap_err();
    assert!(
        matches!(err, ServeError::Io { .. }),
        "expected a transport error, got: {err}"
    );
}
