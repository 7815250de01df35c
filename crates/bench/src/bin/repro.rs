//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [EXPERIMENT...] [--monte-carlo] [--cases N] [--seed N] [--threads N] [--metrics[=PATH]]
//! repro serve [--fleet N] [--addr HOST:PORT] [--queue-capacity N] [--threads N]
//!             [--pollers N] [--max-line-bytes N] [--deadline-ms N] [--metrics]
//!             [--trace N] [--trace-dump PATH] [--snapshot-dir DIR]
//! repro route --backend HOST:PORT [--backend HOST:PORT ...] [--addr HOST:PORT]
//!             [--vnodes N] [--probe-interval-ms N] [--probe-timeout-ms N]
//!             [--eject-after N] [--readmit-after N] [--metrics]
//! repro loadgen --target HOST:PORT [--target HOST:PORT ...] [--connections N]
//!               [--pipeline N] [--requests N] [--request LINE] [--timeout-ms N]
//! repro check [--json] ARTIFACT.json...
//! repro compare [--json] BASELINE.json CANDIDATE.json
//! ```
//!
//! Experiments: `table1`, `table2`, `table3`, `fig4`, `eq10`, `tradeoff`,
//! `multireader`, `behavioural`, `granularity`, `coverage`, `session`,
//! `procedures`, `rounds`, `residual`, `all` (default: `all`).
//!
//! `--monte-carlo` adds a table-driven simulation cross-check to the
//! analytic values; `--cases` / `--seed` control it and `--threads` sets the
//! simulation worker count. `--metrics` enables the `hmdiv-obs` layer and
//! prints a JSON metrics snapshot to stdout when the run finishes;
//! `--metrics=PATH` instead rewrites the cumulative snapshot at `PATH` after
//! each experiment.
//!
//! `repro serve` starts the `hmdiv-serve` JSON-lines evaluation server and
//! blocks until a client sends the `shutdown` verb (or the process is
//! killed). `--metrics` enables the `hmdiv-obs` layer so the server's
//! `metrics` verb returns live counters. `--trace N` turns on request
//! tracing with an N-record flight recorder (drained by the `trace`
//! verb); `--trace-dump PATH` additionally dumps the recorder to `PATH`
//! whenever a request sheds (`overloaded` / `deadline_exceeded`).
//! `--pollers N` sizes the readiness-poller pool that multiplexes the
//! connections and answers each request to completion.
//! `--queue-capacity N` bounds the summed cost (scalar evaluations) of
//! the evaluations in progress across all pollers; an evaluation beyond
//! it is shed as `overloaded`. `--threads N` sets the workers that one
//! sweep of at least 1,024 scenarios, or a cohort evaluation, fans out
//! to; results are identical at any value. `--snapshot-dir DIR`
//! warm-starts the registry from a previous `save` (and becomes the
//! default target for the `save` and `restore` verbs).
//!
//! `repro serve --fleet N` instead starts N single-replica child
//! processes on ephemeral ports plus the `hmdiv-fleet` consistent-hash
//! front router in-process; the remaining serve flags are forwarded to
//! every replica. `repro route` runs the router alone over
//! externally-managed replicas (repeat `--backend` per replica).
//! `repro loadgen` drives any serving endpoint — one replica or the
//! fleet router — with pipelined keep-alive connections (round-robin
//! across repeated `--target`s) and prints a JSON report with per-target
//! served/shed splits.
//!
//! `repro check` runs the `hmdiv-analyze` static passes over artifact
//! files (see `hmdiv_bench::check` for the accepted shapes) and exits
//! nonzero when any artifact fails to build or carries an error-severity
//! diagnostic — the CI gate for model parameter files.
//!
//! `repro compare` differentially compares two sequential artifact files
//! (`hmdiv_analyze::compare`): a certified dominates / dominated /
//! incomparable verdict with exact per-class and per-profile gap bounds,
//! as text or `--json`. Exits nonzero when the comparison is refused
//! (universe mismatch, domain faults) — not when the pair is merely
//! incomparable.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hmdiv_bench::{fig4_series, table2_rows, table3_rows, Row};
use hmdiv_core::decomposition::decompose;
use hmdiv_core::design::rank_improvement_targets;
use hmdiv_core::importance::{machine_response_lines, system_lower_bound};
use hmdiv_core::multi_reader::{CombinationRule, ReaderSkill, TeamModel};
use hmdiv_core::tradeoff::{MachineRoc, TradeoffStudy, TwoSidedModel};
use hmdiv_core::{paper, ClassParams, DemandProfile, ModelParams, SequentialModel};
use hmdiv_prob::Probability;
use hmdiv_sim::engine::{SimConfig, Simulation};
use hmdiv_sim::{scenario, table_driven};
use hmdiv_trial::report::{render_failure_table, render_table1};

/// Known experiment names, in execution order (`all` runs every one).
const EXPERIMENT_NAMES: [&str; 14] = [
    "table1",
    "table2",
    "table3",
    "fig4",
    "eq10",
    "tradeoff",
    "multireader",
    "behavioural",
    "granularity",
    "coverage",
    "session",
    "procedures",
    "rounds",
    "residual",
];

struct Options {
    experiments: Vec<String>,
    monte_carlo: bool,
    cases: u64,
    seed: u64,
    threads: usize,
    metrics: bool,
    metrics_path: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: repro [{}|all] [--monte-carlo] [--cases N] [--seed N] [--threads N] [--metrics[=PATH]]\n       {}\n       {}\n       {}\n       {}\n       {}",
        EXPERIMENT_NAMES.join("|"),
        serve_usage(),
        route_usage(),
        loadgen_usage(),
        check_usage(),
        compare_usage()
    )
}

fn parse_args() -> Result<Options, String> {
    let mut experiments = Vec::new();
    let mut monte_carlo = false;
    let mut cases = 1_000_000u64;
    let mut seed = 2003u64;
    let mut threads = 4usize;
    let mut metrics = false;
    let mut metrics_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--monte-carlo" => monte_carlo = true,
            "--cases" => {
                cases = args
                    .next()
                    .ok_or("--cases needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --cases: {e}"))?;
            }
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--threads" => {
                threads = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--metrics" => metrics = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with("--metrics=") => {
                let path = &other["--metrics=".len()..];
                if path.is_empty() {
                    return Err("--metrics= needs a path (or plain --metrics for stdout)".into());
                }
                metrics = true;
                metrics_path = Some(path.to_owned());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()));
            }
            other if other == "all" || EXPERIMENT_NAMES.contains(&other) => {
                experiments.push(other.to_owned());
            }
            other => {
                return Err(format!("unknown experiment {other}\n{}", usage()));
            }
        }
    }
    if experiments.is_empty() {
        experiments.push("all".into());
    }
    Ok(Options {
        experiments,
        monte_carlo,
        cases,
        seed,
        threads,
        metrics,
        metrics_path,
    })
}

fn serve_usage() -> String {
    "usage: repro serve [--fleet N] [--addr HOST:PORT] [--queue-capacity N] [--threads N] \
     [--pollers N] [--max-line-bytes N] [--deadline-ms N] [--metrics] [--trace N] \
     [--trace-dump PATH] [--snapshot-dir DIR]"
        .to_owned()
}

fn route_usage() -> String {
    "usage: repro route --backend HOST:PORT [--backend HOST:PORT ...] [--addr HOST:PORT] \
     [--vnodes N] [--probe-interval-ms N] [--probe-timeout-ms N] [--eject-after N] \
     [--readmit-after N] [--metrics]"
        .to_owned()
}

fn loadgen_usage() -> String {
    "usage: repro loadgen --target HOST:PORT [--target HOST:PORT ...] [--connections N] \
     [--pipeline N] [--requests N] [--request LINE] [--timeout-ms N]"
        .to_owned()
}

fn check_usage() -> String {
    "usage: repro check [--json] ARTIFACT.json...".to_owned()
}

fn compare_usage() -> String {
    "usage: repro compare [--json] BASELINE.json CANDIDATE.json".to_owned()
}

/// Differentially compares two sequential artifact files; exits nonzero
/// when either fails to build or the comparison is refused (e.g. a
/// universe mismatch) — an `incomparable` verdict on a well-formed pair
/// is a successful exit.
fn compare_main(args: &[String]) -> ExitCode {
    let mut json_output = false;
    let mut paths = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json_output = true,
            "--help" | "-h" => {
                eprintln!("{}", compare_usage());
                return ExitCode::FAILURE;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown compare flag {other}\n{}", compare_usage());
                return ExitCode::FAILURE;
            }
            path => paths.push(path),
        }
    }
    let [baseline, candidate] = paths.as_slice() else {
        eprintln!("{}", compare_usage());
        return ExitCode::FAILURE;
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let outcome = read(baseline)
        .and_then(|b| read(candidate).map(|c| (b, c)))
        .and_then(|(b, c)| hmdiv_bench::compare::compare_sources(&b, &c));
    match outcome {
        Ok(outcome) => {
            if json_output {
                println!("{}", outcome.render_json());
            } else {
                print!("{baseline} vs {candidate}:\n{}", outcome.render_text());
            }
            if outcome.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("compare: FAILED — {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Statically analyzes artifact files; exits nonzero when any artifact
/// fails to build or carries an error-severity diagnostic.
fn check_main(args: &[String]) -> ExitCode {
    let mut json_output = false;
    let mut paths = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json_output = true,
            "--help" | "-h" => {
                eprintln!("{}", check_usage());
                return ExitCode::FAILURE;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown check flag {other}\n{}", check_usage());
                return ExitCode::FAILURE;
            }
            path => paths.push(path),
        }
    }
    if paths.is_empty() {
        eprintln!("{}", check_usage());
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|source| hmdiv_bench::check::check_source(&source));
        match verdict {
            Ok(outcome) => {
                if json_output {
                    println!("{}", outcome.report.render_json());
                } else {
                    println!(
                        "{path}: {} artifact — {}",
                        outcome.kind,
                        outcome.report.summary_line()
                    );
                    if let Some(bounds) = outcome.bounds {
                        println!(
                            "  system reliability in [{:.6}, {:.6}]",
                            bounds.lo, bounds.hi
                        );
                    }
                    for diagnostic in outcome.report.diagnostics() {
                        println!("  {diagnostic}");
                    }
                }
                if !outcome.passed() {
                    failed = true;
                }
            }
            Err(msg) => {
                eprintln!("{path}: FAILED — {msg}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses `repro serve` flags into a [`hmdiv_serve::ServerConfig`].
///
/// Returns the config plus whether `--metrics` asked for the obs layer.
fn parse_serve_args(args: &[String]) -> Result<(hmdiv_serve::ServerConfig, bool), String> {
    let mut config = hmdiv_serve::ServerConfig {
        addr: "127.0.0.1:7414".to_owned(),
        ..hmdiv_serve::ServerConfig::default()
    };
    let mut metrics = false;
    let mut args = args.iter();
    let value = |flag: &str, args: &mut std::slice::Iter<'_, String>| {
        args.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = value("--addr", &mut args)?,
            "--queue-capacity" => {
                config.queue_capacity = value("--queue-capacity", &mut args)?
                    .parse()
                    .map_err(|e| format!("bad --queue-capacity: {e}"))?;
            }
            "--threads" => {
                config.threads = value("--threads", &mut args)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if config.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--pollers" => {
                config.poller_threads = value("--pollers", &mut args)?
                    .parse()
                    .map_err(|e| format!("bad --pollers: {e}"))?;
                if config.poller_threads == 0 {
                    return Err("--pollers must be at least 1".into());
                }
            }
            "--max-line-bytes" => {
                config.max_line_bytes = value("--max-line-bytes", &mut args)?
                    .parse()
                    .map_err(|e| format!("bad --max-line-bytes: {e}"))?;
            }
            "--deadline-ms" => {
                config.default_deadline_ms = Some(
                    value("--deadline-ms", &mut args)?
                        .parse()
                        .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                );
            }
            "--metrics" => metrics = true,
            "--trace" => {
                config.trace_capacity = value("--trace", &mut args)?
                    .parse()
                    .map_err(|e| format!("bad --trace: {e}"))?;
                if config.trace_capacity == 0 {
                    return Err("--trace capacity must be at least 1".into());
                }
            }
            "--trace-dump" => {
                config.trace_dump = Some(value("--trace-dump", &mut args)?.into());
            }
            "--snapshot-dir" => {
                config.snapshot_dir = Some(value("--snapshot-dir", &mut args)?.into());
            }
            "--help" | "-h" => return Err(serve_usage()),
            other => return Err(format!("unknown serve flag {other}\n{}", serve_usage())),
        }
    }
    if config.trace_dump.is_some() && config.trace_capacity == 0 {
        return Err("--trace-dump requires --trace".into());
    }
    Ok((config, metrics))
}

/// Runs a replicated fleet: N `repro serve` child replicas on ephemeral
/// ports plus the consistent-hash front router in-process. `addr` is the
/// router's listen address; `extra_args` are forwarded to every replica.
fn fleet_serve_main(count: usize, addr: String, extra_args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the repro binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let replicas = match hmdiv_fleet::ReplicaSet::spawn(&exe, count, extra_args) {
        Ok(replicas) => replicas,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let router = match hmdiv_fleet::Router::start(hmdiv_fleet::RouterConfig {
        addr,
        backends: replicas.addrs(),
        ..hmdiv_fleet::RouterConfig::default()
    }) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("error: {e}");
            replicas.shutdown();
            return ExitCode::FAILURE;
        }
    };
    for (i, addr) in replicas.addrs().iter().enumerate() {
        println!("hmdiv-fleet replica {i} listening on {addr}");
    }
    println!("hmdiv-fleet router listening on {}", router.addr());
    router.join();
    replicas.shutdown();
    println!("hmdiv-fleet drained and stopped");
    ExitCode::SUCCESS
}

/// Runs the front router alone over externally-managed replicas.
fn route_main(args: &[String]) -> ExitCode {
    let mut config = hmdiv_fleet::RouterConfig {
        addr: "127.0.0.1:7413".to_owned(),
        ..hmdiv_fleet::RouterConfig::default()
    };
    let mut metrics = false;
    let mut args = args.iter();
    let value = |flag: &str, args: &mut std::slice::Iter<'_, String>| {
        args.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--addr" => config.addr = value("--addr", &mut args)?,
                "--backend" => config.backends.push(
                    value("--backend", &mut args)?
                        .parse()
                        .map_err(|e| format!("bad --backend: {e}"))?,
                ),
                "--vnodes" => {
                    config.vnodes = value("--vnodes", &mut args)?
                        .parse()
                        .map_err(|e| format!("bad --vnodes: {e}"))?;
                }
                "--probe-interval-ms" => {
                    config.probe_interval = std::time::Duration::from_millis(
                        value("--probe-interval-ms", &mut args)?
                            .parse()
                            .map_err(|e| format!("bad --probe-interval-ms: {e}"))?,
                    );
                }
                "--probe-timeout-ms" => {
                    config.probe_timeout = std::time::Duration::from_millis(
                        value("--probe-timeout-ms", &mut args)?
                            .parse()
                            .map_err(|e| format!("bad --probe-timeout-ms: {e}"))?,
                    );
                }
                "--eject-after" => {
                    config.eject_after = value("--eject-after", &mut args)?
                        .parse()
                        .map_err(|e| format!("bad --eject-after: {e}"))?;
                }
                "--readmit-after" => {
                    config.readmit_after = value("--readmit-after", &mut args)?
                        .parse()
                        .map_err(|e| format!("bad --readmit-after: {e}"))?;
                }
                "--metrics" => metrics = true,
                "--help" | "-h" => return Err(route_usage()),
                other => return Err(format!("unknown route flag {other}\n{}", route_usage())),
            }
        }
        if config.backends.is_empty() {
            return Err(format!(
                "route needs at least one --backend\n{}",
                route_usage()
            ));
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    if metrics {
        hmdiv_obs::set_enabled(true);
    }
    let router = match hmdiv_fleet::Router::start(config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("hmdiv-fleet router listening on {}", router.addr());
    router.join();
    println!("hmdiv-fleet drained and stopped");
    ExitCode::SUCCESS
}

/// Drives one or more serving endpoints with pipelined keep-alive
/// connections and prints the JSON report (per-target splits included).
fn loadgen_main(args: &[String]) -> ExitCode {
    let mut config = hmdiv_serve::LoadgenConfig {
        targets: Vec::new(),
        connections: 4,
        pipeline_depth: 8,
        requests_per_connection: 1000,
        request_line: "{\"id\":1,\"verb\":\"ping\"}\n".to_owned(),
        timeout: std::time::Duration::from_secs(60),
    };
    let mut args = args.iter();
    let value = |flag: &str, args: &mut std::slice::Iter<'_, String>| {
        args.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--target" => config.targets.push(
                    value("--target", &mut args)?
                        .parse()
                        .map_err(|e| format!("bad --target: {e}"))?,
                ),
                "--connections" => {
                    config.connections = value("--connections", &mut args)?
                        .parse()
                        .map_err(|e| format!("bad --connections: {e}"))?;
                }
                "--pipeline" => {
                    config.pipeline_depth = value("--pipeline", &mut args)?
                        .parse()
                        .map_err(|e| format!("bad --pipeline: {e}"))?;
                }
                "--requests" => {
                    config.requests_per_connection = value("--requests", &mut args)?
                        .parse()
                        .map_err(|e| format!("bad --requests: {e}"))?;
                }
                "--request" => {
                    let mut line = value("--request", &mut args)?;
                    if !line.ends_with('\n') {
                        line.push('\n');
                    }
                    config.request_line = line;
                }
                "--timeout-ms" => {
                    config.timeout = std::time::Duration::from_millis(
                        value("--timeout-ms", &mut args)?
                            .parse()
                            .map_err(|e| format!("bad --timeout-ms: {e}"))?,
                    );
                }
                "--help" | "-h" => return Err(loadgen_usage()),
                other => return Err(format!("unknown loadgen flag {other}\n{}", loadgen_usage())),
            }
        }
        if config.targets.is_empty() {
            return Err(format!(
                "loadgen needs at least one --target\n{}",
                loadgen_usage()
            ));
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    match hmdiv_serve::loadgen::run(&config) {
        Ok(report) => {
            println!("{}", loadgen_report_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders a loadgen report as one JSON object, per-target splits and a
/// derived served-per-second rate included.
fn loadgen_report_json(report: &hmdiv_serve::LoadgenReport) -> String {
    #[allow(clippy::cast_precision_loss)]
    let rate = if report.elapsed_ns == 0 {
        0.0
    } else {
        report.served as f64 * 1e9 / report.elapsed_ns as f64
    };
    let per_target: Vec<String> = report
        .per_target
        .iter()
        .map(|t| {
            format!(
                "{{\"addr\":\"{}\",\"connections\":{},\"sent\":{},\"served\":{},\
                 \"shed_overloaded\":{},\"shed_deadline\":{},\"errors\":{}}}",
                t.addr,
                t.connections,
                t.sent,
                t.served,
                t.shed_overloaded,
                t.shed_deadline,
                t.errors
            )
        })
        .collect();
    format!(
        "{{\"connections\":{},\"completed_connections\":{},\"sent\":{},\"served\":{},\
         \"shed_overloaded\":{},\"shed_deadline\":{},\"errors\":{},\"elapsed_ns\":{},\
         \"served_per_sec\":{rate:.1},\"per_target\":[{}]}}",
        report.connections,
        report.completed_connections,
        report.sent,
        report.served,
        report.shed_overloaded,
        report.shed_deadline,
        report.errors,
        report.elapsed_ns,
        per_target.join(",")
    )
}

/// Runs the evaluation server until a `shutdown` verb arrives.
fn serve_main(args: &[String]) -> ExitCode {
    // `--fleet N` switches to replicated mode: pull that flag (and the
    // router's `--addr`) out, forward everything else to the replicas.
    if let Some(pos) = args.iter().position(|a| a == "--fleet") {
        let Some(count) = args.get(pos + 1).and_then(|v| v.parse::<usize>().ok()) else {
            eprintln!("bad --fleet: needs a replica count\n{}", serve_usage());
            return ExitCode::FAILURE;
        };
        if count == 0 {
            eprintln!("--fleet must be at least 1");
            return ExitCode::FAILURE;
        }
        let mut rest: Vec<String> = args[..pos].to_vec();
        rest.extend_from_slice(&args[pos + 2..]);
        let mut addr = "127.0.0.1:7414".to_owned();
        if let Some(apos) = rest.iter().position(|a| a == "--addr") {
            if apos + 1 >= rest.len() {
                eprintln!("--addr needs a value\n{}", serve_usage());
                return ExitCode::FAILURE;
            }
            addr = rest.remove(apos + 1);
            rest.remove(apos);
        }
        return fleet_serve_main(count, addr, &rest);
    }
    let (config, metrics) = match parse_serve_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if metrics {
        hmdiv_obs::set_enabled(true);
    }
    let server = match hmdiv_serve::Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("hmdiv-serve listening on {}", server.addr());
    server.join();
    println!("hmdiv-serve drained and stopped");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return serve_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("route") {
        return route_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("loadgen") {
        return loadgen_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("check") {
        return check_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_main(&argv[1..]);
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.metrics {
        hmdiv_obs::set_enabled(true);
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rewrites the cumulative metrics snapshot at `path`.
fn write_metrics(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let json = hmdiv_obs::export::to_json(&hmdiv_obs::snapshot());
    std::fs::write(path, json).map_err(|e| format!("writing metrics to {path}: {e}"))?;
    Ok(())
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let all = opts.experiments.iter().any(|e| e == "all");
    let want = |name: &str| all || opts.experiments.iter().any(|e| e == name);
    type Experiment = fn(&Options) -> Result<(), Box<dyn std::error::Error>>;
    let experiments: [(&str, Experiment); 14] = [
        ("table1", |_| table1()),
        ("table2", table2),
        ("table3", table3),
        ("fig4", fig4),
        ("eq10", |_| eq10()),
        ("tradeoff", |_| tradeoff()),
        ("multireader", |_| multireader()),
        ("behavioural", behavioural),
        ("granularity", |_| granularity()),
        ("coverage", coverage),
        ("session", |_| session()),
        ("procedures", procedures),
        ("rounds", |_| rounds()),
        ("residual", residual),
    ];
    for (name, exec) in experiments {
        if want(name) {
            exec(opts)?;
            if let Some(path) = &opts.metrics_path {
                write_metrics(path)?;
            }
        }
    }
    if opts.metrics && opts.metrics_path.is_none() {
        print!("{}", hmdiv_obs::export::to_json(&hmdiv_obs::snapshot()));
    }
    Ok(())
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<45} {:>8} {:>12} {:>8}",
        "experiment", "paper", "regenerated", "match"
    );
    for row in rows {
        println!(
            "{:<45} {:>8.3} {:>12.6} {:>8}",
            row.label,
            row.paper,
            row.regenerated,
            if row.matches_print() { "yes" } else { "NO" }
        );
    }
}

fn table1() -> Result<(), Box<dyn std::error::Error>> {
    println!("== table 1: demand profiles and model parameters ==");
    print!(
        "{}",
        render_table1(
            &paper::example_model()?,
            &paper::trial_profile()?,
            &paper::field_profile()?
        )?
    );
    println!();
    Ok(())
}

fn monte_carlo_check(
    model: &SequentialModel,
    label: &str,
    opts: &Options,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for (profile, name) in [
        (paper::trial_profile()?, "trial"),
        (paper::field_profile()?, "field"),
    ] {
        let (empirical, analytic) =
            table_driven::cross_check(model, &profile, opts.cases, &mut rng)?;
        println!(
            "   monte-carlo {label}/{name}: empirical {:.5} vs analytic {:.5} ({} cases)",
            empirical.value(),
            analytic.value(),
            opts.cases
        );
    }
    Ok(())
}

fn table2(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("== table 2: probability of system failure (baseline CADT) ==");
    print_rows(&table2_rows()?);
    print!(
        "{}",
        render_failure_table(
            &paper::example_model()?,
            &paper::trial_profile()?,
            &paper::field_profile()?
        )?
    );
    if opts.monte_carlo {
        monte_carlo_check(&paper::example_model()?, "table2", opts)?;
    }
    println!();
    Ok(())
}

fn table3(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("== table 3: improvement scenarios (CADT x10 better on one class) ==");
    print_rows(&table3_rows()?);
    if opts.monte_carlo {
        monte_carlo_check(
            &paper::model_improved_on_easy()?,
            "table3/improved-easy",
            opts,
        )?;
        monte_carlo_check(
            &paper::model_improved_on_difficult()?,
            "table3/improved-difficult",
            opts,
        )?;
    }
    println!();
    Ok(())
}

fn fig4(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("== fig 4: system failure vs machine failure probability ==");
    let model = paper::example_model()?;
    for line in machine_response_lines(&model) {
        println!(
            "class {}: intercept PHf|Ms = {:.3}, slope t(x) = {:.3}, current PMf = {:.3}",
            line.class(),
            line.lower_bound().value(),
            line.coherence_index(),
            line.current_p_mf().value()
        );
        let series = fig4_series(&model, line.class(), 11)?;
        print!("  PMf :");
        for (x, _) in &series {
            print!(" {x:>6.2}");
        }
        println!();
        print!("  PHf :");
        for (_, y) in &series {
            print!(" {y:>6.3}");
        }
        println!();
    }
    let trial = paper::trial_profile()?;
    println!(
        "system-level floor (trial profile): {:.5} — no machine improvement goes below this",
        system_lower_bound(&model, &trial)?.value()
    );
    if opts.monte_carlo {
        fig4_monte_carlo(opts)?;
    }
    println!();
    Ok(())
}

/// Fig. 4 "as measured in field usage" (§6.1): estimate intercept and slope
/// from simulated usage at several machine operating points.
fn fig4_monte_carlo(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("-- fig 4, measured from the behavioural simulator --");
    println!(
        "{:>9} {:>12} {:>12} {:>10}",
        "operating", "PMf(diff)", "PHf(diff)", "t(diff)"
    );
    for operating in [0.45, 0.55, 0.62, 0.7, 0.8] {
        let mut world = scenario::trial_world()?;
        let cadt = world
            .team
            .cadt
            .ok_or("trial world has no CADT configured")?
            .with_operating(operating)?;
        world.team.cadt = Some(cadt);
        let report = Simulation::new(
            world,
            SimConfig {
                cases: opts.cases.min(400_000),
                seed: opts.seed,
                threads: opts.threads,
            },
        )
        .run()?;
        let model = report.estimated_model()?;
        let cp = model.params().class_by_name("difficult")?;
        println!(
            "{:>9.2} {:>12.4} {:>12.4} {:>10.4}",
            operating,
            cp.p_mf().value(),
            cp.class_failure().value(),
            cp.coherence_index()
        );
    }
    Ok(())
}

fn eq10() -> Result<(), Box<dyn std::error::Error>> {
    println!("== eq. (10): covariance decomposition ==");
    let model = paper::example_model()?;
    for (profile, name) in [
        (paper::trial_profile()?, "trial"),
        (paper::field_profile()?, "field"),
    ] {
        let d = decompose(&model, &profile)?;
        println!("profile {name}:");
        println!("  E[PHf|Ms]        = {:.6}", d.mean_hf_given_ms);
        println!("  E[PMf]*E[t]      = {:.6}", d.mean_field_term());
        println!("  cov(PMf, t)      = {:.6}", d.covariance);
        println!("  reconstructed    = {:.6}", d.reconstructed);
        println!("  direct (eq. 8)   = {:.6}", d.direct.value());
        println!("  reconciles       = {}", d.reconciles(1e-12));
    }
    println!("-- improvement targeting (section 6.2) --");
    let ranked = rank_improvement_targets(&model, &paper::field_profile()?)?;
    for lever in ranked {
        println!(
            "  class {:<10} p(x)={:.2} t(x)={:.2} PMf(x)={:.2} -> max benefit {:.5}",
            lever.class.name(),
            lever.weight,
            lever.coherence_index,
            lever.p_mf,
            lever.max_benefit
        );
    }
    println!();
    Ok(())
}

fn tradeoff() -> Result<(), Box<dyn std::error::Error>> {
    println!("== FN/FP trade-off study (section 7 future work) ==");
    let p = |v: f64| Probability::new(v).expect("literal probability");
    let fn_model = paper::example_model()?;
    let fp_model = SequentialModel::new(
        ModelParams::builder()
            .class("clear", ClassParams::new(p(0.1), p(0.02), p(0.08)))
            .class("ambiguous", ClassParams::new(p(0.3), p(0.15), p(0.4)))
            .build()?,
    );
    let study = TradeoffStudy {
        base: TwoSidedModel {
            false_negative: fn_model,
            false_positive: fp_model,
        },
        roc: MachineRoc::builder()
            .cancer_class("easy", 0.15)
            .cancer_class("difficult", 0.6)
            .normal_class("clear", 0.3)
            .normal_class("ambiguous", 0.9)
            .build()?,
        cancer_profile: paper::field_profile()?,
        normal_profile: DemandProfile::builder()
            .class("clear", 0.85)
            .class("ambiguous", 0.15)
            .build()?,
        prevalence: p(0.008),
    };
    println!(
        "{:>6} {:>10} {:>10} {:>12}",
        "tau", "FN rate", "FP rate", "recall rate"
    );
    for point in study.sweep(11)? {
        println!(
            "{:>6.2} {:>10.4} {:>10.4} {:>12.4}",
            point.tau,
            point.fn_rate.value(),
            point.fp_rate.value(),
            point.recall_rate.value()
        );
    }
    if let Some(best) = study.best_operating_point(101, 500.0, 1.0, Some(p(0.07)))? {
        println!(
            "best point (FN cost 500, FP cost 1, recall <= 7%): tau={:.2} FN={:.4} FP={:.4}",
            best.tau,
            best.fn_rate.value(),
            best.fp_rate.value()
        );
    }
    println!();
    Ok(())
}

fn multireader() -> Result<(), Box<dyn std::error::Error>> {
    println!("== multi-reader configurations (section 7 future work) ==");
    let p = |v: f64| Probability::new(v).expect("literal probability");
    let expert = ReaderSkill::builder()
        .class("easy", p(0.14), p(0.18))
        .class("difficult", p(0.4), p(0.9))
        .build()?;
    let novice = ReaderSkill::builder()
        .class("easy", p(0.25), p(0.32))
        .class("difficult", p(0.55), p(0.95))
        .build()?;
    let machine = |b: hmdiv_core::multi_reader::TeamModelBuilder| {
        b.machine("easy", p(0.07)).machine("difficult", p(0.41))
    };
    let field = paper::field_profile()?;
    let configs: Vec<(&str, TeamModel)> = vec![
        (
            "single expert + CADT",
            machine(TeamModel::builder())
                .reader(expert.clone())
                .build()?,
        ),
        (
            "double expert + CADT (either recalls)",
            machine(TeamModel::builder())
                .reader(expert.clone())
                .reader(expert.clone())
                .rule(CombinationRule::EitherRecalls)
                .build()?,
        ),
        (
            "double expert + CADT (consensus)",
            machine(TeamModel::builder())
                .reader(expert.clone())
                .reader(expert.clone())
                .rule(CombinationRule::Consensus)
                .build()?,
        ),
        (
            "double expert + CADT (arbitrated)",
            machine(TeamModel::builder())
                .reader(expert.clone())
                .reader(expert.clone())
                .rule(CombinationRule::Arbitrated {
                    arbiter: expert.clone(),
                })
                .build()?,
        ),
        (
            "two novices + CADT (either recalls)",
            machine(TeamModel::builder())
                .reader(novice.clone())
                .reader(novice)
                .rule(CombinationRule::EitherRecalls)
                .build()?,
        ),
    ];
    println!("{:<42} {:>14}", "configuration", "P(FN), field");
    for (name, team) in &configs {
        println!(
            "{:<42} {:>14.5}",
            name,
            team.system_failure(&field)?.value()
        );
    }
    println!();
    Ok(())
}

fn granularity() -> Result<(), Box<dyn std::error::Error>> {
    use hmdiv_core::aggregation::{coarsen, merge_classes};
    use hmdiv_core::{ClassId, ClassParams, DemandProfile, ModelParams, SequentialModel};
    println!("== class-granularity pitfall (section 6.2 caveat) ==");
    let p = |v: f64| Probability::new(v).expect("literal probability");
    let fine = SequentialModel::new(
        ModelParams::builder()
            .class("sub-easy", ClassParams::new(p(0.05), p(0.10), p(0.10)))
            .class("sub-hard", ClassParams::new(p(0.60), p(0.80), p(0.80)))
            .build()?,
    );
    let measured = DemandProfile::builder()
        .class("sub-easy", 0.7)
        .class("sub-hard", 0.3)
        .build()?;
    let members = [ClassId::new("sub-easy"), ClassId::new("sub-hard")];
    let merged = merge_classes(&fine, &measured, &members)?;
    println!("within-subclass t = 0.000 for both subclasses");
    println!(
        "merged class reports t = {:.3} (pure heterogeneity artefact)",
        merged.coherence_index()
    );
    let (coarse, coarse_profile) = coarsen(&fine, &measured, &members)?;
    let shifted = DemandProfile::builder()
        .class("sub-easy", 0.4)
        .class("sub-hard", 0.6)
        .build()?;
    println!(
        "measured-mix prediction: fine {:.4} vs coarse {:.4} (identical)",
        fine.system_failure(&measured)?.value(),
        coarse.system_failure(&coarse_profile)?.value()
    );
    println!(
        "shifted-mix prediction: fine {:.4} (truth) vs coarse {:.4} (biased)",
        fine.system_failure(&shifted)?.value(),
        coarse.system_failure(&coarse_profile)?.value()
    );
    println!();
    Ok(())
}

fn coverage(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    use hmdiv_prob::estimate::CiMethod;
    use hmdiv_trial::coverage::coverage_experiment;
    println!("== interval coverage validation (replayed trials) ==");
    let model = paper::example_model()?;
    let profile = paper::trial_profile()?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for method in [CiMethod::Wald, CiMethod::Wilson, CiMethod::ClopperPearson] {
        let records = coverage_experiment(&model, &profile, 1_000, 200, method, 0.95, &mut rng)?;
        println!("method {method} (nominal 95%):");
        for rec in records {
            println!(
                "  {:<10} {:<8} coverage {:.3} over {} trials",
                rec.class,
                rec.parameter,
                rec.rate().unwrap_or(f64::NAN),
                rec.attempts
            );
        }
    }
    println!();
    Ok(())
}

fn session() -> Result<(), Box<dyn std::error::Error>> {
    use hmdiv_sim::cadt::Cadt;
    use hmdiv_sim::reader::Reader;
    use hmdiv_sim::session::{run_session, DriftConfig};
    println!("== reader drift over a session (section 5 indirect effects) ==");
    let population = scenario::trial_population()?;
    let drift = DriftConfig {
        fatigue_per_1000: 0.08,
        trust_learning_rate: 0.01,
        complacency_coupling: 0.5,
    };
    let series = run_session(
        &population,
        &Cadt::default_detector()?,
        &Reader::expert(),
        &drift,
        6,
        2_000,
        2003,
    )?;
    println!(
        "{:>5} {:>8} {:>8} {:>8} {:>9}",
        "batch", "FN rate", "lapse", "trust", "neglect"
    );
    for b in &series {
        println!(
            "{:>5} {:>8.3} {:>8.3} {:>8.3} {:>9.3}",
            b.batch,
            b.fn_rate().unwrap_or(f64::NAN),
            b.lapse_rate,
            b.prompt_trust,
            b.unprompted_neglect
        );
    }
    println!();
    Ok(())
}

fn residual(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    use hmdiv_core::multi_reader::pair_failure_with_correlation;
    println!("== residual conditional dependence in double reading ==");
    let mut world = scenario::double_reading_world()?;
    world.population = scenario::trial_population()?;
    let report = Simulation::new(
        world,
        SimConfig {
            cases: opts.cases.min(250_000),
            seed: opts.seed,
            threads: opts.threads,
        },
    )
    .run()?;
    let simulated = report.fn_rate().ok_or("no cancer cases simulated")?.value();
    let models = report.estimated_reader_models()?;
    let mut independent = 0.0;
    let mut corrected = 0.0;
    let mut total = 0.0;
    println!(
        "{:<12} {:>10} {:>14} {:>14}",
        "class", "stratum", "phi(r1,r2)", "cases"
    );
    for (class, table) in report.cancer_counts().iter() {
        let n = table.total() as f64;
        total += n;
        let p_mf = table.machine_failures() as f64 / n;
        for (mf, weight, label) in [(true, p_mf, "Mf"), (false, 1.0 - p_mf, "Ms")] {
            let cond = |m: &SequentialModel| -> Result<f64, hmdiv_core::ModelError> {
                let cp = m.params().class(class)?;
                Ok(if mf {
                    cp.p_hf_given_mf().value()
                } else {
                    cp.p_hf_given_ms().value()
                })
            };
            let (p1, p2) = (cond(&models[0])?, cond(&models[1])?);
            let phi = report.reader_pair_phi(class, mf).unwrap_or(0.0);
            println!(
                "{:<12} {:>10} {:>14.3} {:>14.0}",
                class.name(),
                label,
                phi,
                n * weight
            );
            independent += n * weight * p1 * p2;
            corrected += n
                * weight
                * pair_failure_with_correlation(
                    Probability::clamped(p1),
                    Probability::clamped(p2),
                    phi,
                )
                .value();
        }
    }
    independent /= total;
    corrected /= total;
    println!("simulated double-reading FN rate:        {simulated:.4}");
    println!("independent-given-(class,m) prediction:  {independent:.4}  <- underpredicts");
    println!("phi-corrected prediction:                {corrected:.4}");
    println!("coarse classes leave shared difficulty inside each stratum; the paper's");
    println!("conditional-independence assumption needs finer classes or the phi correction.");
    println!();
    Ok(())
}

fn rounds() -> Result<(), Box<dyn std::error::Error>> {
    use hmdiv_core::rounds::screening_rounds;
    println!("== repeated screening rounds: interval cancers and difficulty persistence ==");
    let model = paper::example_model()?;
    let field = paper::field_profile()?;
    println!(
        "{:>7} {:>12} {:>12} {:>10}",
        "rounds", "P(missed)", "naive chain", "penalty"
    );
    for k in [1usize, 2, 3, 5] {
        let a = screening_rounds(&model, &field, k, 0.8)?;
        println!(
            "{:>7} {:>12.5} {:>12.5} {:>10.2}",
            k,
            a.p_missed_all,
            a.naive_p_missed_all,
            a.persistence_penalty().unwrap_or(f64::NAN)
        );
    }
    let a = screening_rounds(&model, &field, 5, 0.8)?;
    print!("first-detection distribution over 5 rounds:");
    for (i, p) in a.detection_by_round.iter().enumerate() {
        print!(" r{i}={p:.3}");
    }
    println!();
    println!(
        "expected detection round (among detected): {:.3}",
        a.expected_detection_round.unwrap_or(f64::NAN)
    );
    println!("difficulty persists across rounds, so the class-blind chain underestimates");
    println!("interval cancers — the multi-round face of the paper's covariance warning.");
    println!();
    Ok(())
}

fn procedures(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    use hmdiv_sim::protocol::Procedure;
    use hmdiv_sim::reader::Reader;
    println!("== co-ordination procedures (section 3): concurrent vs reader-first ==");
    let run = |procedure: Procedure, neglect: f64| -> Result<_, Box<dyn std::error::Error>> {
        let mut world = scenario::trial_world()?;
        world.team.readers = vec![Reader::expert().with_unprompted_neglect(neglect)];
        world.team.procedure = procedure;
        let report = Simulation::new(
            world,
            SimConfig {
                cases: opts.cases.min(300_000),
                seed: opts.seed,
                threads: opts.threads,
            },
        )
        .run()?;
        let model = report.estimated_model()?;
        let cp = *model.params().class_by_name("difficult")?;
        Ok((report.fn_rate().ok_or("no cancer cases simulated")?, cp))
    };
    println!(
        "{:<26} {:>8} {:>10} {:>10} {:>8}",
        "procedure (neglect=0.5)", "FN rate", "PHf|Ms", "PHf|Mf", "t(diff)"
    );
    for (label, procedure) in [
        ("concurrent (fig. 3)", Procedure::Concurrent),
        ("reader-first review", Procedure::ReaderFirstReview),
    ] {
        let (fn_rate, cp) = run(procedure, 0.5)?;
        println!(
            "{:<26} {:>8.4} {:>10.4} {:>10.4} {:>8.4}",
            label,
            fn_rate.value(),
            cp.p_hf_given_ms().value(),
            cp.p_hf_given_mf().value(),
            cp.coherence_index()
        );
    }
    println!("reader-first keeps PHf|Mf at the unaided level (machine failures cannot mislead);");
    println!("concurrent reading with automation bias raises it — the section 3 concern.");
    println!();
    Ok(())
}

fn behavioural(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("== behavioural simulator: emergent per-class parameters ==");
    let world = scenario::trial_world()?;
    let report = Simulation::new(
        world,
        SimConfig {
            cases: opts.cases.min(400_000),
            seed: opts.seed,
            threads: opts.threads,
        },
    )
    .run()?;
    let model = report.estimated_model()?;
    println!("{model}");
    println!(
        "trial FN rate {:.4}, FP rate {:.4} over {} cases",
        report.fn_rate().map(|p| p.value()).unwrap_or(f64::NAN),
        report.fp_rate().map(|p| p.value()).unwrap_or(f64::NAN),
        report.total_cases()
    );
    println!();
    Ok(())
}
