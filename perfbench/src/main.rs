//! `hmdiv-perfbench`: the repository benchmark.
//!
//! ```text
//! hmdiv-perfbench --repro PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (`sweep_bulk`, `fleet_mixed`, `analysis_batch`) for
//! `S` seconds on inputs made from seed `N`, checks every output against
//! an in-process oracle, and prints the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). The last line of stdout is the
//! JSON result; see `README.md` beside this file.

mod analysis;
mod inputs;
mod layers;
mod ledger;
mod loadgen;
mod procs;
mod report;
mod serving;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Env;
use serving::Served;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    repro: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut repro, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--repro" => repro = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        repro: repro.ok_or("--repro is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let env = Env {
        repro: &args.repro,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        seed: args.seed,
        seconds: args.seconds,
    };
    let served = match args.workload.as_str() {
        "sweep_bulk" => Some(Served::SweepBulk),
        "fleet_mixed" => Some(Served::FleetMixed),
        "analysis_batch" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    let mut outcome = match (served, args.trace) {
        (Some(work), false) => serving::measure(&env, work, SETUPS)?,
        (Some(work), true) => serving::trace(&env, work)?,
        (None, false) => analysis::measure(&env, SETUPS)?,
        (None, true) => analysis::trace(&env)?,
    };
    outcome
        .metrics
        .insert("success_rate", 1.0 - outcome.all.error_rate());
    report::print(&args.workload, args.trace, &env, &outcome)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hmdiv-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
