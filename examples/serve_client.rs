//! Serve quickstart: start the evaluation server in-process, drive the
//! JSON-lines protocol over a real loopback socket, and read the paper's
//! headline numbers back off the wire.
//!
//! The same session works against a standalone server started with
//! `cargo run --release --bin repro -- serve` — point
//! [`Client::connect`] at its printed address instead.
//!
//! Run with `cargo run --release --example serve_client`.

use hmdiv::serve::{json, Client, Json, Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Metrics are optional; enabling them makes the `metrics` verb return
    // live counters (request latency, batch sizes, per-verb counts).
    hmdiv::obs::set_enabled(true);

    let server = Server::start(ServerConfig::default())?;
    println!("server listening on {}", server.addr());
    let mut client = Client::connect(server.addr())?;

    // Load the paper's two-class model. The registry content-addresses it:
    // loading identical parameters twice yields the same id.
    let receipt = client.request(
        "load",
        vec![(
            "classes".into(),
            json::parse(
                r#"{"easy":      {"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
                    "difficult": {"p_mf":0.41,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}"#,
            )?,
        )],
    )?;
    let model_id = receipt
        .get("model_id")
        .and_then(Json::as_str)
        .ok_or("load receipt without model_id")?
        .to_owned();
    println!("loaded model {model_id}");

    // Table 2's field estimate: P(system failure) = 0.18902.
    let field_profile = json::parse(r#"{"easy":0.9,"difficult":0.1}"#)?;
    let result = client.request(
        "evaluate",
        vec![
            ("model".into(), Json::str(model_id.as_str())),
            ("profile".into(), field_profile.clone()),
        ],
    )?;
    let failure = result
        .get("failure")
        .and_then(Json::as_f64)
        .ok_or("evaluate without failure")?;
    println!("field P(system failure) = {failure:.5}");

    // A what-if: improve the machine tenfold on difficult cases.
    let what_if = client.request(
        "extrapolate",
        vec![
            ("model".into(), Json::str(model_id.as_str())),
            ("profile".into(), field_profile.clone()),
            (
                "scenario".into(),
                json::parse(r#"[{"op":"improve_machine","class":"difficult","factor":10}]"#)?,
            ),
        ],
    )?;
    println!(
        "improve machine 10x on difficult: {:.5} -> {:.5} (gain {:.5})",
        what_if
            .get("before")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        what_if
            .get("after")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        what_if
            .get("improvement")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
    );

    // Pipelining: send a scenario sweep as many requests at once; the
    // server frames them together and answers them in order.
    let requests: Vec<(String, Vec<(String, Json)>)> = (1..=8)
        .map(|i| {
            (
                "scenarios".to_owned(),
                vec![
                    ("model".to_owned(), Json::str(model_id.as_str())),
                    ("profile".to_owned(), field_profile.clone()),
                    (
                        "scenarios".to_owned(),
                        Json::Arr(vec![json::parse(&format!(
                            r#"[{{"op":"improve_machine_everywhere","factor":{i}}}]"#
                        ))
                        .expect("static JSON")]),
                    ),
                ],
            )
        })
        .collect();
    println!("factor sweep (pipelined):");
    for (i, outcome) in client.pipeline(requests)?.into_iter().enumerate() {
        let failures = outcome?;
        let p = failures
            .get("failures")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
            .and_then(Json::as_f64)
            .ok_or("scenarios without failures")?;
        println!("  machine improved {}x everywhere -> {p:.5}", i + 1);
    }

    // The `metrics` verb exposes what the server evaluated.
    let metrics = client.request("metrics", vec![])?;
    let prometheus = metrics
        .get("prometheus")
        .and_then(Json::as_str)
        .unwrap_or_default();
    for line in prometheus
        .lines()
        .filter(|l| l.starts_with("hmdiv_serve_batch") || l.starts_with("hmdiv_serve_verb"))
    {
        println!("  {line}");
    }

    // Graceful shutdown: in-flight work drains before the listener stops.
    client.request("shutdown", vec![])?;
    server.join();
    println!("server drained and stopped");
    Ok(())
}
