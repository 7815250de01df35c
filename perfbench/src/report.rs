//! The metric catalogue, the per-run outcome, and the printed result:
//! a human summary on stderr, a stamped record line on stdout, and the
//! one-line JSON result as the last line of stdout.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

use hmdiv_serve::json::Json;

use crate::ledger::{percentile_of, slice_timings, Ledger, Op, Quantile, StealLog};
use crate::loadgen::Run;

/// What every workload needs to know about the run.
#[derive(Debug)]
pub struct Env<'a> {
    pub repro: &'a Path,
    pub nproc: usize,
    pub seed: u64,
    pub seconds: f64,
}

/// End-to-end metrics (printed with `--trace 0`), name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("success_rate", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`), name and unit. A layer
/// a workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("serve.poller.read_us", "us"),
    ("serve.poller.write_us", "us"),
    ("serve.poller.wakeups_per_reply", "count"),
    ("serve.residual_us.p50", "us"),
    ("serve.residual_us.p99", "us"),
    ("serve.protocol.parse_us", "us"),
    ("serve.json.serialize_us", "us"),
    ("serve.batcher.queue_us.p99", "us"),
    ("serve.batcher.batch_size", "count"),
    ("core.compiled.eval_us", "us"),
    ("serve.registry.load_us", "us"),
    ("analyze.diff.compare_us", "us"),
    ("fleet.router.hop_us.p50", "us"),
    ("fleet.router.hop_us.p99", "us"),
    ("fleet.router.backend_share", "share"),
    ("serve.json.parse_us", "us"),
    ("serve.protocol.route_parse_us", "us"),
    ("core.compiled.evaluate_scenarios_us", "us"),
    ("serve.json.render_us", "us"),
    ("sim.engine.run_ms", "ms"),
    ("sim.engine.cases_per_s", "1/s"),
    ("prob.par.busy_share", "share"),
    ("core.compiled.compile_us", "us"),
    ("core.compiled.scenarios_per_s", "1/s"),
    ("core.design.allocate_us", "us"),
    ("core.design.evaluated_share", "share"),
    ("analyze.sens.model_sensitivity_us", "us"),
    ("loadgen.busy_share", "share"),
    ("trace.sampled_share", "share"),
    ("trace.untraced.throughput_ops_s", "1/s"),
    ("trace.untraced.latency_p50_ms", "ms"),
    ("trace.traced.throughput_ops_s", "1/s"),
    ("trace.traced.latency_p50_ms", "ms"),
];

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: HashMap<&'static str, f64>,
    /// Every operation attempted, warm-up and probes included.
    pub all: Ledger,
    /// Sample counts behind the timings, for the record line.
    pub counts: Vec<(String, u64)>,
    /// The first few oracle mismatches.
    pub errors: Vec<String>,
}

fn ms(q: Option<Quantile>) -> f64 {
    // A failure at the reported rank missed every limit: report it as
    // the largest finite time, never as a fast one.
    q.map_or(0.0, |q| q.ns.map_or(f64::MAX, |ns| ns as f64 / 1e6))
}

impl Outcome {
    /// Folds a load-generator run's operations and errors into the totals.
    pub fn absorb(&mut self, run: &Run) {
        for s in &run.samples {
            if s.ok {
                self.all.ok(s.latency_ns);
            } else {
                self.all.fail();
            }
        }
        for e in &run.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }

    /// Folds in operations timed outside the load generator.
    pub fn absorb_ledger(&mut self, ledger: Ledger) {
        self.all.absorb(ledger);
    }

    /// Records the median of the set-up times.
    pub fn setup(&mut self, times: &mut [f64]) {
        self.counts
            .push(("setup_samples".into(), times.len() as u64));
        self.metrics
            .insert("setup_s", percentile_of(times, 500).unwrap_or(0.0));
    }

    /// Throughput and latency of a measured window (medians over its
    /// slices), and the median write latency.
    pub fn timings(&mut self, ops: &[Op], steal: &StealLog, writes: &Ledger) {
        let t = slice_timings(ops, steal);
        self.metrics
            .insert("throughput_ops_s", t.map_or(0.0, |t| t.throughput));
        self.metrics
            .insert("latency_p50_ms", t.map_or(0.0, |t| t.p50_ns / 1e6));
        self.metrics
            .insert("latency_p99_ms", t.map_or(0.0, |t| t.tail_ns / 1e6));
        self.metrics.insert("write_p50_ms", ms(writes.median()));
        if let Some(t) = t {
            self.counts.push(("latency_slices".into(), t.slices as u64));
            self.counts
                .push(("latency_quiet_slices".into(), t.quiet_slices as u64));
            self.counts
                .push(("latency_samples_per_slice".into(), t.slice_samples));
            self.counts
                .push(("latency_p99_ms_permille".into(), t.tail_permille));
        }
        self.counts
            .push(("write_samples".into(), writes.attempted()));
    }

    /// Throughput and p50 of one half of a traced run; the two halves'
    /// difference is the tracing overhead.
    pub fn overhead(&mut self, traced: bool, ops: &[Op], steal: &StealLog) {
        let (thr, p50, phase) = if traced {
            (
                "trace.traced.throughput_ops_s",
                "trace.traced.latency_p50_ms",
                "traced",
            )
        } else {
            (
                "trace.untraced.throughput_ops_s",
                "trace.untraced.latency_p50_ms",
                "untraced",
            )
        };
        let t = slice_timings(ops, steal);
        self.metrics.insert(thr, t.map_or(0.0, |t| t.throughput));
        self.metrics.insert(p50, t.map_or(0.0, |t| t.p50_ns / 1e6));
        self.counts
            .push((format!("{phase}_latency_samples"), ops.len() as u64));
    }
}

/// `command --version`'s first line, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { f64::MAX })
}

/// Prints the summary, the stamped record line and the result line.
pub fn print(workload: &str, traced: bool, env: &Env, outcome: &Outcome) -> Result<(), String> {
    let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("workload {workload} did not measure {name}")),
        };
        eprintln!("{workload:>15} {name:<38} {value:>16.6} {unit}");
        metrics.push((
            name.to_owned(),
            Json::Obj(vec![
                ("value".to_owned(), num(value)),
                ("unit".to_owned(), Json::str(unit)),
            ]),
        ));
    }
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let record = Json::Obj(vec![
        ("benchmark".to_owned(), Json::str("hmdiv-perfbench")),
        ("workload".to_owned(), Json::str(workload)),
        ("trace".to_owned(), Json::Bool(traced)),
        ("seed".to_owned(), num(env.seed as f64)),
        ("seconds".to_owned(), num(env.seconds)),
        ("nproc".to_owned(), num(env.nproc as f64)),
        (
            "rustc".to_owned(),
            Json::str(tool_line(&rustc, &["--version"])),
        ),
        (
            "commit".to_owned(),
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("error_rate".to_owned(), num(outcome.all.error_rate())),
        (
            "samples".to_owned(),
            Json::Obj(
                outcome
                    .counts
                    .iter()
                    .map(|(k, v)| (k.clone(), num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "errors".to_owned(),
            Json::Arr(
                outcome
                    .errors
                    .iter()
                    .map(|e| Json::str(e.as_str()))
                    .collect(),
            ),
        ),
    ]);
    let result = Json::Obj(vec![
        (
            "correct".to_owned(),
            Json::Bool(outcome.all.failed() == 0 && outcome.all.attempted() > 0),
        ),
        ("attempted".to_owned(), num(outcome.all.attempted() as f64)),
        ("failed".to_owned(), num(outcome.all.failed() as f64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    for e in &outcome.errors {
        eprintln!("{workload}: {e}");
    }
    let (mut record_line, mut result_line) = (String::new(), String::new());
    record.write(&mut record_line);
    result.write(&mut result_line);
    println!("{record_line}");
    println!("{result_line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this catalogue prints, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let spec = hmdiv_serve::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }
}
