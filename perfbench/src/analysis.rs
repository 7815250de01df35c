//! The in-process `analysis_batch` workload: one closed-loop caller runs
//! analysis jobs back to back, each on `nproc` threads. A job admits a
//! design into a registry after compiling a model, sweeping scenarios,
//! allocating an improvement budget, certifying sensitivities,
//! comparing the allocated design with its baseline, and simulating the
//! trial world — the analyst's pipeline, with no server on the path.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hmdiv_core::design::{allocate_improvement_budget, allocate_improvement_budget_pruned};
use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::{CompiledModel, DemandProfile, ModelParams, SequentialModel};
use hmdiv_serve::Registry;
use hmdiv_sim::engine::{SimConfig, Simulation, World};

use crate::inputs::{class_names, scenario_sweep, scenarios, ModelSpec, ProfileSpec, Rng};
use crate::ledger::{percentile_of, Ledger, Op};
use crate::loadgen::STEAL_EVERY;
use crate::report::{Env, Outcome};

/// Distinct jobs, cycled; repeats must reproduce their first outputs.
const POOL: usize = 4;
const SWEEP_CLASSES: usize = 64;
const SWEEP_SCENARIOS: usize = 4096;
const ALLOC_CLASSES: usize = 256;
const BUDGET: usize = 16;
const STEP_FACTOR: f64 = 2.0;
const SIM_CASES: u64 = 1_500;

/// One job's seeded inputs.
struct Job {
    sweep_params: ModelParams,
    sweep_profile: DemandProfile,
    scenarios: Vec<Scenario>,
    baseline: SequentialModel,
    profile: DemandProfile,
    sim_seed: u64,
}

struct Inputs {
    jobs: Vec<Job>,
    world: World,
    threads: usize,
}

fn build_inputs(env: &Env) -> Result<Inputs, String> {
    let sweep_names = class_names(SWEEP_CLASSES);
    let alloc_names = class_names(ALLOC_CLASSES);
    let jobs = (0..POOL as u64)
        .map(|k| {
            let mut rng = Rng::new(env.seed, 100 + k);
            let sweep = ModelSpec::random(&mut rng, &sweep_names);
            let sweep_profile = ProfileSpec::random(&mut rng, &sweep_names).profile();
            let sweep_list = scenario_sweep(&mut rng, &sweep_names, SWEEP_SCENARIOS);
            let baseline = ModelSpec::random(&mut rng, &alloc_names).model();
            let profile = ProfileSpec::random(&mut rng, &alloc_names).profile();
            Job {
                sweep_params: sweep.params(),
                sweep_profile,
                scenarios: scenarios(&sweep_list),
                baseline,
                profile,
                sim_seed: rng.next_u64(),
            }
        })
        .collect();
    Ok(Inputs {
        jobs,
        world: hmdiv_sim::scenario::trial_world().map_err(|e| e.to_string())?,
        threads: env.nproc,
    })
}

/// Per-step durations of one job, plus the counts its layers report.
#[derive(Debug, Default, Clone)]
struct Steps {
    compile: Duration,
    sweep: Duration,
    allocate: Duration,
    evaluated: usize,
    candidates: usize,
    sensitivity: Duration,
    compare: Duration,
    simulate: Duration,
    sim_cases: u64,
    sim_busy_ns: u64,
    admit: Duration,
}

/// FNV-1a over the job's outputs: repeats of a job must match exactly.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn busy_ns() -> u64 {
    hmdiv_obs::snapshot()
        .counters
        .get("sim.engine.busy_ns")
        .copied()
        .unwrap_or(0)
}

fn run_job(inputs: &Inputs, job: &Job, registry: &Registry) -> Result<(u64, Steps), String> {
    let threads = inputs.threads;
    let mut steps = Steps::default();
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let t = Instant::now();
    let compiled = CompiledModel::compile(&job.sweep_params);
    steps.compile = t.elapsed();
    let bound = compiled
        .bind_profile(&job.sweep_profile)
        .map_err(|e| err(&e))?;
    let t = Instant::now();
    let failures = compiled
        .evaluate_scenarios_par(&job.scenarios, &bound, threads)
        .map_err(|e| err(&e))?;
    steps.sweep = t.elapsed();
    failures
        .iter()
        .for_each(|p| digest.add(p.value().to_bits()));

    let t = Instant::now();
    let (allocation, stats) = allocate_improvement_budget_pruned(
        &job.baseline,
        &job.profile,
        BUDGET,
        STEP_FACTOR,
        threads,
    )
    .map_err(|e| err(&e))?;
    steps.allocate = t.elapsed();
    steps.evaluated = stats.evaluated;
    steps.candidates = stats.candidates;
    digest.add(allocation.after.to_bits());
    allocation
        .allocation
        .iter()
        .for_each(|(_, units)| digest.add(*units as u64));

    let base = job.baseline.compiled();
    let candidate = allocation.model.compiled();
    let profile = base.bind_profile(&job.profile).map_err(|e| err(&e))?;
    let t = Instant::now();
    let sensitivity = hmdiv_analyze::model_sensitivity(base, &profile);
    steps.sensitivity = t.elapsed();
    digest.add(sensitivity.classes.len() as u64);
    let t = Instant::now();
    let comparison = hmdiv_analyze::compare(base, candidate, std::slice::from_ref(&profile));
    steps.compare = t.elapsed();
    digest.add(comparison.verdict as u64);

    let busy_before = busy_ns();
    let t = Instant::now();
    let report = Simulation::new(
        inputs.world.clone(),
        SimConfig {
            cases: SIM_CASES,
            seed: job.sim_seed,
            threads,
        },
    )
    .run()
    .map_err(|e| err(&e))?;
    steps.simulate = t.elapsed();
    steps.sim_busy_ns = busy_ns() - busy_before;
    steps.sim_cases = report.total_cases();
    digest.add(report.total_cases());
    digest.add(report.fn_rate().map_or(0, |p| p.value().to_bits()));

    let t = Instant::now();
    let receipt = registry
        .load_sequential(allocation.model.params().clone(), None)
        .map_err(|e| err(&e))?;
    steps.admit = t.elapsed();
    receipt.id.bytes().for_each(|b| digest.add(u64::from(b)));
    Ok((digest.0, steps))
}

/// The once-per-run oracles, untimed: pruned allocation equals the
/// unpruned allocator, the parallel sweep equals the sequential one, and
/// the simulation is identical at 1 thread and at `nproc` threads.
fn check_invariants(inputs: &Inputs) -> Result<(), String> {
    let job = &inputs.jobs[0];
    let (pruned, _) = allocate_improvement_budget_pruned(
        &job.baseline,
        &job.profile,
        BUDGET,
        STEP_FACTOR,
        inputs.threads,
    )
    .map_err(|e| e.to_string())?;
    let plain = allocate_improvement_budget(&job.baseline, &job.profile, BUDGET, STEP_FACTOR)
        .map_err(|e| e.to_string())?;
    if pruned != plain {
        return Err("pruned allocation differs from allocate_improvement_budget".into());
    }
    let compiled = CompiledModel::compile(&job.sweep_params);
    let bound = compiled
        .bind_profile(&job.sweep_profile)
        .map_err(|e| e.to_string())?;
    let par = compiled.evaluate_scenarios_par(&job.scenarios, &bound, inputs.threads);
    let seq = compiled.evaluate_scenarios(&job.scenarios, &bound);
    if par.map_err(|e| e.to_string())? != seq.map_err(|e| e.to_string())? {
        return Err("parallel scenario sweep differs from the sequential one".into());
    }
    let simulate = |threads| {
        Simulation::new(
            inputs.world.clone(),
            SimConfig {
                cases: SIM_CASES,
                seed: job.sim_seed,
                threads,
            },
        )
        .run()
        .map_err(|e| e.to_string())
    };
    if simulate(1)? != simulate(inputs.threads)? {
        return Err("simulation differs between 1 thread and nproc threads".into());
    }
    Ok(())
}

/// Runs jobs back to back for `seconds`, checking each against the first
/// outputs of its pool entry.
struct Loop {
    all: Ledger,
    ops: Vec<Op>,
    steal: Vec<(u64, u64)>,
    writes: Ledger,
    steps: Vec<Steps>,
    wall: Duration,
    errors: Vec<String>,
}

fn run_loop(
    inputs: &Inputs,
    registry: &Registry,
    digests: &mut HashMap<usize, u64>,
    seconds: f64,
) -> Loop {
    let mut out = Loop {
        all: Ledger::default(),
        ops: Vec::new(),
        steal: vec![(0, crate::sys::steal_ticks())],
        writes: Ledger::default(),
        steps: Vec::new(),
        wall: Duration::ZERO,
        errors: Vec::new(),
    };
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    // Job 0 ran during set-up.
    let mut k = 1;
    let mut steal_at = start;
    while start.elapsed() < deadline {
        if steal_at.elapsed() >= STEAL_EVERY {
            steal_at = Instant::now();
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            out.steal.push((ns, crate::sys::steal_ticks()));
        }
        let t = Instant::now();
        let result = run_job(inputs, &inputs.jobs[k % POOL], registry);
        let latency = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let done_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ok = match result {
            Ok((digest, steps)) if *digests.entry(k % POOL).or_insert(digest) == digest => {
                out.writes
                    .ok(u64::try_from(steps.admit.as_nanos()).unwrap_or(u64::MAX));
                out.steps.push(steps);
                true
            }
            Ok(_) => {
                out.errors
                    .push(format!("job {} changed its outputs on a repeat", k % POOL));
                false
            }
            Err(e) => {
                out.errors.push(e);
                false
            }
        };
        if ok {
            out.all.ok(latency);
        } else {
            out.all.fail();
            out.writes.fail();
        }
        out.ops.push(Op {
            done_ns,
            latency_ns: ok.then_some(latency),
        });
        k += 1;
    }
    out.wall = start.elapsed();
    let ns = u64::try_from(out.wall.as_nanos()).unwrap_or(u64::MAX);
    out.steal.push((ns, crate::sys::steal_ticks()));
    out
}

impl Loop {
    fn fold_into(self, out: &mut Outcome) {
        out.absorb_ledger(self.all);
        out.errors.extend(self.errors.into_iter().take(5));
    }
}

/// Set-up: build the inputs and run the first job (a correct reply).
fn set_up(env: &Env) -> Result<(Inputs, Registry, HashMap<usize, u64>), String> {
    let inputs = build_inputs(env)?;
    let registry = Registry::new();
    let (digest, _) = run_job(&inputs, &inputs.jobs[0], &registry)?;
    Ok((inputs, registry, HashMap::from([(0, digest)])))
}

pub fn measure(env: &Env, setups: usize) -> Result<Outcome, String> {
    hmdiv_obs::set_enabled(false);
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..setups {
        drop(state.take());
        let start = Instant::now();
        state = Some(set_up(env)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let (inputs, registry, mut digests) = state.ok_or("no set-up ran")?;
    out.setup(&mut times);
    check_invariants(&inputs)?;
    let run = run_loop(&inputs, &registry, &mut digests, env.seconds);
    out.timings(&run.ops, &run.steal, &run.writes);
    out.metrics.insert(
        "peak_rss_mb",
        crate::sys::peak_rss_kib("self")? as f64 / 1024.0,
    );
    run.fold_into(&mut out);
    Ok(out)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn median(mut values: Vec<f64>) -> f64 {
    percentile_of(&mut values, 500).unwrap_or(0.0)
}

pub fn trace(env: &Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let half = env.seconds / 2.0;
    hmdiv_obs::set_enabled(false);
    let (inputs, registry, mut digests) = set_up(env)?;
    check_invariants(&inputs)?;
    let plain = run_loop(&inputs, &registry, &mut digests, half);
    out.overhead(false, &plain.ops, &plain.steal);
    plain.fold_into(&mut out);

    hmdiv_obs::set_enabled(true);
    let traced = run_loop(&inputs, &registry, &mut digests, half);
    hmdiv_obs::set_enabled(false);
    out.overhead(true, &traced.ops, &traced.steal);
    let s = &traced.steps;
    let total = |f: fn(&Steps) -> Duration| s.iter().map(f).sum::<Duration>();
    let sim_wall = total(|x| x.simulate);
    let busy: u64 = s.iter().map(|x| x.sim_busy_ns).sum();
    let evaluated: usize = s.iter().map(|x| x.evaluated).sum();
    let candidates: usize = s.iter().map(|x| x.candidates).sum();
    let job_time: Duration = s
        .iter()
        .map(|x| {
            x.compile + x.sweep + x.allocate + x.sensitivity + x.compare + x.simulate + x.admit
        })
        .sum();
    let m = &mut out.metrics;
    m.insert(
        "sim.engine.run_ms",
        median(s.iter().map(|x| us(x.simulate) / 1e3).collect()),
    );
    m.insert(
        "sim.engine.cases_per_s",
        median(
            s.iter()
                .map(|x| x.sim_cases as f64 / x.simulate.as_secs_f64())
                .collect(),
        ),
    );
    m.insert(
        "prob.par.busy_share",
        busy as f64 / (sim_wall.as_nanos() as f64 * inputs.threads as f64).max(1.0),
    );
    m.insert(
        "core.compiled.compile_us",
        median(s.iter().map(|x| us(x.compile)).collect()),
    );
    m.insert(
        "core.compiled.scenarios_per_s",
        median(
            s.iter()
                .map(|x| SWEEP_SCENARIOS as f64 / x.sweep.as_secs_f64())
                .collect(),
        ),
    );
    m.insert(
        "core.design.allocate_us",
        median(s.iter().map(|x| us(x.allocate)).collect()),
    );
    m.insert(
        "core.design.evaluated_share",
        evaluated as f64 / (candidates as f64).max(1.0),
    );
    m.insert(
        "analyze.sens.model_sensitivity_us",
        median(s.iter().map(|x| us(x.sensitivity)).collect()),
    );
    m.insert(
        "analyze.diff.compare_us",
        median(s.iter().map(|x| us(x.compare)).collect()),
    );
    m.insert(
        "serve.registry.load_us",
        median(s.iter().map(|x| us(x.admit)).collect()),
    );
    // The caller's own share of the loop: time outside the timed steps.
    m.insert(
        "loadgen.busy_share",
        (traced.wall.saturating_sub(job_time)).as_secs_f64() / traced.wall.as_secs_f64(),
    );
    m.insert("trace.sampled_share", 1.0);
    traced.fold_into(&mut out);
    Ok(out)
}
