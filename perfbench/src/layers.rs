//! Per-layer figures for the served workloads, read from the replicas'
//! own `trace` and `metrics` verbs and joined to the load generator's samples on
//! the client-supplied `trace_id`, plus replays of the wire-layer
//! functions on each workload's exact request lines.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hmdiv_core::SequentialModel;
use hmdiv_serve::json::{self, Json};
use hmdiv_serve::protocol;

use crate::ledger::percentile_of;
use crate::loadgen::{Exchange, Sample};
use crate::procs::{call, connect};

/// The seven server stages, in the order the `trace` verb names them.
const STAGES: [&str; 7] = [
    "read",
    "parse",
    "queue",
    "batch",
    "eval",
    "serialize",
    "write",
];
const READ: usize = 0;
const PARSE: usize = 1;
const QUEUE: usize = 2;
const EVAL: usize = 4;
const SERIALIZE: usize = 5;
const WRITE: usize = 6;

/// One flight-recorder record, reduced to what the layers need.
#[derive(Debug, Clone)]
pub struct Record {
    pub verb: String,
    pub batch_size: u64,
    /// Stage durations in nanoseconds; `None` when never stamped.
    pub stages: [Option<u64>; 7],
    /// Receipt to the end of the last stage (excludes the read stage,
    /// which ends at receipt).
    pub total_ns: u64,
}

impl Record {
    fn from_json(value: &Json) -> Option<(u64, Record)> {
        let trace_id = u64::from_str_radix(value.get("trace_id")?.as_str()?, 16).ok()?;
        let stages_json = value.get("stages")?;
        let stages = STAGES.map(|name| {
            stages_json
                .get(name)
                .and_then(|s| s.get("dur_ns"))
                .and_then(Json::as_u64)
        });
        Some((
            trace_id,
            Record {
                verb: value.get("verb")?.as_str()?.to_owned(),
                batch_size: value.get("batch_size")?.as_u64()?,
                stages,
                total_ns: value.get("total_ns")?.as_u64()?,
            },
        ))
    }

    /// The sum of the seven stage durations.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().flatten().sum()
    }

    /// The replica's extent for this request: first byte read to the
    /// write flush.
    pub fn extent_ns(&self) -> u64 {
        self.stages[READ].unwrap_or(0) + self.total_ns
    }
}

/// Splits the `records` array of a `trace` reply into one slice per
/// record without building the whole tree (a drain can hold tens of
/// thousands of records).
fn record_slices(reply: &str) -> Vec<&str> {
    let Some(start) = reply.find("\"records\":[") else {
        return Vec::new();
    };
    let bytes = reply.as_bytes();
    let mut out = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut begin) = (0usize, false, false, 0usize);
    for (i, &b) in bytes.iter().enumerate().skip(start + "\"records\":[".len()) {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => {
                if depth == 0 {
                    begin = i;
                }
                depth += 1;
            }
            b'}' | b']' => {
                if depth == 0 {
                    break; // the end of the records array
                }
                depth -= 1;
                if depth == 0 {
                    out.push(&reply[begin..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// Drains one replica's flight recorder into `records`, keyed by trace
/// id (a broadcast write leaves one record per replica).
pub fn drain_trace(
    replica: SocketAddr,
    index: usize,
    records: &mut HashMap<u64, Vec<(usize, Record)>>,
) -> Result<(), String> {
    let mut control = connect(replica)?;
    let reply = call(&mut control, "{\"id\":0,\"verb\":\"trace\"}\n")?;
    if !reply.contains("\"ok\":true") {
        return Err(format!("trace verb failed on {replica}"));
    }
    for slice in record_slices(&reply) {
        let value = json::parse(slice).map_err(|e| format!("trace record: {e}"))?;
        let (trace_id, record) =
            Record::from_json(&value).ok_or("trace record is missing fields")?;
        records.entry(trace_id).or_default().push((index, record));
    }
    Ok(())
}

/// The replica's poller wakeups and served requests so far, from its
/// `metrics` verb (counters exist only with `--metrics`).
pub fn poll_counters(replica: SocketAddr) -> Result<(u64, u64), String> {
    let mut control = connect(replica)?;
    let reply = call(&mut control, "{\"id\":0,\"verb\":\"metrics\"}\n")?;
    let value = json::parse(&reply).map_err(|e| format!("metrics reply: {e}"))?;
    let text = value
        .get("result")
        .and_then(|r| r.get("prometheus"))
        .and_then(Json::as_str)
        .ok_or("metrics reply has no prometheus text")?;
    let (mut wakeups, mut served) = (0, 0);
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.split_once(' ') else {
            continue;
        };
        let value: u64 = value.parse().unwrap_or(0);
        if name == "hmdiv_serve_poll_wakeups" {
            wakeups = value;
        } else if let Some(verb) = name.strip_prefix("hmdiv_serve_verb_") {
            if verb != "metrics" && verb != "trace" {
                served += value;
            }
        }
    }
    Ok((wakeups, served))
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn p(values: &mut [f64], permille: u64) -> f64 {
    percentile_of(values, permille).unwrap_or(0.0)
}

/// Joins measured samples to their server records and fills the serve
/// and router layer figures into `out`.
pub fn serve_layers(
    samples: &[Sample],
    records: &HashMap<u64, Vec<(usize, Record)>>,
    routed: bool,
    replicas: usize,
    poll: (u64, u64),
    out: &mut HashMap<&'static str, f64>,
) {
    let measured: Vec<&Sample> = samples.iter().filter(|s| s.measured && s.ok).collect();
    let mut stage = vec![Vec::new(); 7];
    let (mut batch, mut eval, mut residual, mut hop) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut per_replica = vec![0u64; replicas];
    let mut matched = 0usize;
    for s in &measured {
        let Some(found) = records.get(&s.id) else {
            continue;
        };
        matched += 1;
        // Writes broadcast to every replica; the layers below describe
        // reads, which reach exactly one.
        let [(replica, r)] = found.as_slice() else {
            continue;
        };
        if s.write {
            continue;
        }
        per_replica[*replica] += 1;
        for (i, d) in r.stages.iter().enumerate() {
            if let Some(d) = d {
                stage[i].push(*d as f64);
            }
        }
        batch.push(r.batch_size as f64);
        if matches!(r.verb.as_str(), "evaluate" | "scenarios") {
            eval.push(r.stages[EVAL].unwrap_or(0) as f64);
        }
        // Exact integer nanoseconds: the seven stages plus the residual
        // are the client-observed latency, request by request.
        let latency = i128::from(s.latency_ns);
        residual.push((latency - i128::from(r.stage_sum_ns())) as f64);
        if routed {
            hop.push((latency - i128::from(r.extent_ns())) as f64);
        }
    }
    let verb_eval = |verb: &str| {
        let mut v: Vec<f64> = records
            .values()
            .flatten()
            .filter(|(_, r)| r.verb == verb)
            .map(|(_, r)| r.stages[EVAL].unwrap_or(0) as f64)
            .collect();
        us(p(&mut v, 500))
    };
    let reads: u64 = per_replica.iter().sum();
    out.insert("serve.poller.read_us", us(p(&mut stage[READ], 500)));
    out.insert("serve.poller.write_us", us(p(&mut stage[WRITE], 500)));
    out.insert(
        "serve.poller.wakeups_per_reply",
        poll.0 as f64 / (poll.1 as f64).max(1.0),
    );
    out.insert("serve.residual_us.p50", us(p(&mut residual, 500)));
    out.insert("serve.residual_us.p99", us(p(&mut residual, 990)));
    out.insert("serve.protocol.parse_us", us(p(&mut stage[PARSE], 500)));
    out.insert("serve.json.serialize_us", us(p(&mut stage[SERIALIZE], 500)));
    out.insert("serve.batcher.queue_us.p99", us(p(&mut stage[QUEUE], 990)));
    out.insert("serve.batcher.batch_size", p(&mut batch, 500));
    out.insert("core.compiled.eval_us", us(p(&mut eval, 500)));
    out.insert("serve.registry.load_us", verb_eval("load"));
    out.insert("analyze.diff.compare_us", verb_eval("compare"));
    out.insert("fleet.router.hop_us.p50", us(p(&mut hop, 500)));
    out.insert("fleet.router.hop_us.p99", us(p(&mut hop, 990)));
    out.insert(
        "fleet.router.backend_share",
        per_replica.iter().copied().max().unwrap_or(0) as f64 / (reads as f64).max(1.0),
    );
    out.insert(
        "trace.sampled_share",
        matched as f64 / (measured.len() as f64).max(1.0),
    );
}

/// Times `f` over `items` round-robin until `budget` has been spent and
/// returns the median per-call time in microseconds.
fn replay<T>(items: &[T], budget: Duration, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || times.len() < items.len() {
        let item = &items[times.len() % items.len()];
        let t = Instant::now();
        f(item);
        times.push(t.elapsed().as_nanos() as f64);
    }
    us(p(&mut times, 500))
}

/// Replays the wire-layer public functions on the exact lines a run
/// sent, in this process: JSON parse, request routing parse, the
/// scenario kernel, and reply rendering.
pub fn replays(
    exchanges: &[Exchange],
    models: &HashMap<String, SequentialModel>,
    out: &mut HashMap<&'static str, f64>,
) -> Result<(), String> {
    const BUDGET: Duration = Duration::from_millis(150);
    let lines: Vec<&str> = exchanges.iter().map(|e| e.line.trim_end()).collect();
    out.insert(
        "serve.json.parse_us",
        replay(&lines, BUDGET, |line| {
            black_box(json::parse(black_box(line)).is_ok());
        }),
    );
    out.insert(
        "serve.protocol.route_parse_us",
        replay(&lines, BUDGET, |line| {
            let Ok(env) = protocol::parse_request(black_box(line)) else {
                return;
            };
            match env.verb.as_str() {
                "evaluate" => drop(black_box(protocol::parse_profile(&env.body))),
                "scenarios" => {
                    drop(black_box(protocol::parse_profile(&env.body)));
                    drop(black_box(protocol::parse_scenarios(&env.body)));
                }
                "load" => drop(black_box(protocol::parse_model_params(&env.body))),
                _ => {}
            }
        }),
    );
    // The scenario kernel on exactly the parsed inputs a replica sees.
    let mut kernel_inputs = Vec::new();
    for line in &lines {
        let env = protocol::parse_request(line).map_err(|e| e.to_string())?;
        if env.verb != "scenarios" {
            continue;
        }
        let id = protocol::required_str(&env.body, "model").map_err(|e| e.to_string())?;
        let model = models
            .get(id)
            .ok_or("replayed line names an unknown model")?;
        let compiled = model.compiled();
        let profile = protocol::parse_profile(&env.body).map_err(|e| e.to_string())?;
        let bound = compiled.bind_profile(&profile).map_err(|e| e.to_string())?;
        let scenarios = protocol::parse_scenarios(&env.body).map_err(|e| e.to_string())?;
        kernel_inputs.push((compiled, bound, scenarios));
    }
    out.insert(
        "core.compiled.evaluate_scenarios_us",
        replay(&kernel_inputs, BUDGET, |(compiled, bound, scenarios)| {
            black_box(
                compiled
                    .evaluate_scenarios(black_box(scenarios), bound)
                    .is_ok(),
            );
        }),
    );
    // The reply envelope `ok_line` renders, built outside the timed call.
    let replies: Vec<Json> = exchanges
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("id".to_owned(), Json::Num(1.0)),
                ("ok".to_owned(), Json::Bool(true)),
                ("result".to_owned(), e.result.clone()),
            ])
        })
        .collect();
    out.insert(
        "serve.json.render_us",
        replay(&replies, BUDGET, |reply| {
            let mut text = String::new();
            black_box(reply).write(&mut text);
            black_box(text);
        }),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_slices_split_top_level_objects_only() {
        let reply = r#"{"id":0,"ok":true,"result":{"records":[{"a":{"b":[1,2]},"s":"}{"},{"c":"\"]"}],"capacity":8}}"#;
        assert_eq!(
            record_slices(reply),
            vec![r#"{"a":{"b":[1,2]},"s":"}{"}"#, r#"{"c":"\"]"}"#]
        );
        assert!(record_slices(r#"{"result":{"records":[]}}"#).is_empty());
        assert!(record_slices("{}").is_empty());
    }
}
