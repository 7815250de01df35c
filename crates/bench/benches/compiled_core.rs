//! Map-based vs compiled vs lane-blocked model evaluation.
//!
//! Measures what the PR-3 compiled layer bought — a single eq. (8)
//! evaluation (map walk vs dense indexed sum) and a 1000-scenario design
//! sweep (clone-a-`BTreeMap`-model per scenario vs batch patch/restore over
//! one scratch buffer) — and what the PR-6 lane-blocked kernels buy on top:
//! `compiled_scalar` is the PR-3 one-scenario-at-a-time inner loop
//! (reproduced here via the public [`CompiledModel::apply_scenario_into`]),
//! `compiled` is the lane-blocked [`CompiledModel::evaluate_scenarios`]
//! batch. The sweep ratios are the acceptance gates recorded in
//! `BENCH_pr6.json`.
//!
//! Setting `HMDIV_BENCH_GUARD=1` skips the criterion groups and instead
//! runs a self-contained measured comparison of the scalar-compiled and
//! lane-blocked sweeps on the same process, over a 2000 ms window per
//! variant, failing (exit 1) if the lane-blocked path is not at least
//! 1.5 times faster. `HMDIV_BENCH_GUARD_OUT=<path>` additionally writes
//! the guard measurements as JSON for CI artifact upload.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};

use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::{
    ClassId, ClassParams, CompiledModel, CompiledProfile, DemandProfile, ModelParams,
    SequentialModel,
};
use hmdiv_prob::Probability;

/// A synthetic model with `n` classes of varied parameters (same shape as
/// `model_eval.rs`, kept local so the two benches stay independent).
fn synthetic_model(n: usize) -> (SequentialModel, DemandProfile) {
    let p = |v: f64| Probability::new(v).expect("valid");
    let mut params = ModelParams::builder();
    let mut profile = DemandProfile::builder();
    for i in 0..n {
        let f = i as f64 / n as f64;
        let name = format!("class{i}");
        params = params.class(
            name.as_str(),
            ClassParams::new(p(0.05 + 0.4 * f), p(0.1 + 0.3 * f), p(0.2 + 0.7 * f)),
        );
        profile = profile.class(name.as_str(), 1.0 + f);
    }
    (
        SequentialModel::new(params.build().expect("non-empty")),
        profile.build().expect("non-empty"),
    )
}

/// The pre-PR-3 eq. (8): walk the profile, look each class up in the
/// `BTreeMap` parameter table.
fn map_system_failure(model: &SequentialModel, profile: &DemandProfile) -> Probability {
    let mut total = 0.0;
    for (class, weight) in profile.iter() {
        let cp = model.params().class(class).expect("covered");
        total += weight.value() * cp.class_failure().value();
    }
    Probability::clamped(total)
}

/// A 1000-scenario design sweep: improvement factors fanned over classes.
fn sweep_scenarios(n_classes: usize) -> Vec<Scenario> {
    (0..1000)
        .map(|i| {
            let class = ClassId::new(format!("class{}", i % n_classes));
            let factor = 1.5 + (i / n_classes) as f64 * 0.05;
            Scenario::new().improve_machine(class, factor)
        })
        .collect()
}

/// Eq. (8) over a patched scratch table — the PR-3 scalar inner loop's
/// evaluation half (one multiply-add per profile entry, no lanes).
fn scalar_failure_over(scratch: &[ClassParams], bound: &CompiledProfile) -> Probability {
    let mut total = 0.0;
    for (idx, w) in bound.iter() {
        total += w * scratch[idx as usize].class_failure().value();
    }
    Probability::clamped(total)
}

/// The PR-3 compiled sweep: apply each scenario to the dense scratch table
/// and evaluate it alone — no lane blocking, no multi-patch fusion.
fn scalar_compiled_sweep(
    compiled: &CompiledModel,
    bound: &CompiledProfile,
    scenarios: &[Scenario],
    scratch: &mut Vec<ClassParams>,
) -> Vec<Probability> {
    let mut out = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        compiled
            .apply_scenario_into(scenario, scratch)
            .expect("valid");
        out.push(scalar_failure_over(scratch, bound));
    }
    out
}

fn bench_single_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_eval");
    for n in [8usize, 32, 128] {
        let (model, profile) = synthetic_model(n);
        group.bench_with_input(BenchmarkId::new("map", n), &n, |b, _| {
            b.iter(|| map_system_failure(&model, &profile));
        });
        let compiled = model.compiled().clone();
        let bound = compiled.bind_profile(&profile).expect("covered");
        group.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            b.iter(|| compiled.system_failure(&bound));
        });
    }
    group.finish();
}

fn bench_scenario_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_sweep_1k");
    for n in [8usize, 32] {
        let (model, profile) = synthetic_model(n);
        let scenarios = sweep_scenarios(n);
        group.bench_with_input(BenchmarkId::new("map", n), &n, |b, _| {
            b.iter(|| {
                scenarios
                    .iter()
                    .map(|s| {
                        let applied = s.apply(&model).expect("valid");
                        map_system_failure(&applied, &profile)
                    })
                    .collect::<Vec<_>>()
            });
        });
        let compiled = model.compiled().clone();
        let bound = compiled.bind_profile(&profile).expect("covered");
        let mut scratch: Vec<ClassParams> = Vec::new();
        group.bench_with_input(BenchmarkId::new("compiled_scalar", n), &n, |b, _| {
            b.iter(|| scalar_compiled_sweep(&compiled, &bound, &scenarios, &mut scratch));
        });
        group.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            b.iter(|| {
                compiled
                    .evaluate_scenarios(&scenarios, &bound)
                    .expect("valid")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_eval, bench_scenario_sweep);

/// Mean microseconds per call over a fixed wall-clock window (one warmup
/// call first). Coarser than criterion but self-contained and ratio-stable:
/// both guard variants are measured back-to-back in the same process.
fn time_per_call_us(window: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        f();
        calls += 1;
        if start.elapsed() >= window {
            break;
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Measurement window per guard variant.
const GUARD_WINDOW: Duration = Duration::from_millis(2000);

/// How many times faster the lane-blocked sweep must be.
const GUARD_MIN_RATIO: f64 = 1.5;

/// The CI bench guard: lane-blocked sweep must beat the scalar compiled
/// sweep by `GUARD_MIN_RATIO` on this very machine, same process, same inputs.
fn run_guard() {
    let mut entries = Vec::new();
    let mut worst: f64 = f64::INFINITY;
    for n in [8usize, 32] {
        let (model, profile) = synthetic_model(n);
        let scenarios = sweep_scenarios(n);
        let compiled = model.compiled().clone();
        let bound = compiled.bind_profile(&profile).expect("covered");
        // Equal outputs first: the guard must never certify a kernel that
        // drifted from the scalar path.
        let mut scratch: Vec<ClassParams> = Vec::new();
        let scalar_out = scalar_compiled_sweep(&compiled, &bound, &scenarios, &mut scratch);
        let lane_out = compiled
            .evaluate_scenarios(&scenarios, &bound)
            .expect("valid");
        assert_eq!(scalar_out.len(), lane_out.len());
        for (i, (s, l)) in scalar_out.iter().zip(&lane_out).enumerate() {
            assert_eq!(
                s.value().to_bits(),
                l.value().to_bits(),
                "lane kernel drifted from scalar at scenario {i} (n={n})"
            );
        }
        let scalar_us = time_per_call_us(GUARD_WINDOW, || {
            std::hint::black_box(scalar_compiled_sweep(
                &compiled,
                &bound,
                &scenarios,
                &mut scratch,
            ));
        });
        let lane_us = time_per_call_us(GUARD_WINDOW, || {
            std::hint::black_box(
                compiled
                    .evaluate_scenarios(&scenarios, &bound)
                    .expect("valid"),
            );
        });
        let ratio = scalar_us / lane_us;
        worst = worst.min(ratio);
        println!(
            "bench-guard scenario_sweep_1k/classes_{n}: scalar {scalar_us:.1} us, \
             lane-blocked {lane_us:.1} us, ratio {ratio:.2}x (min {GUARD_MIN_RATIO:.2}x)"
        );
        entries.push(format!(
            "    \"classes_{n}\": {{ \"scalar_us\": {scalar_us:.1}, \
             \"lane_blocked_us\": {lane_us:.1}, \"ratio\": {ratio:.2} }}"
        ));
    }
    let pass = worst >= GUARD_MIN_RATIO;
    if let Ok(path) = std::env::var("HMDIV_BENCH_GUARD_OUT") {
        let json = format!(
            "{{\n  \"guard\": \"lane_blocked_vs_scalar_compiled\",\n  \
             \"bench\": \"compiled_core/scenario_sweep_1k\",\n  \
             \"window_ms\": {},\n  \"min_ratio\": {GUARD_MIN_RATIO},\n  \
             \"results\": {{\n{}\n  }},\n  \
             \"pass\": {pass}\n}}\n",
            GUARD_WINDOW.as_millis(),
            entries.join(",\n"),
        );
        std::fs::write(&path, json).expect("guard output path writable");
        println!("bench-guard wrote {path}");
    }
    assert!(
        pass,
        "bench-guard FAILED: lane-blocked sweep only {worst:.2}x over the scalar \
         compiled path (required {GUARD_MIN_RATIO:.2}x)"
    );
    println!("bench-guard PASSED: worst ratio {worst:.2}x >= {GUARD_MIN_RATIO:.2}x");
}

fn main() {
    if std::env::var("HMDIV_BENCH_GUARD").is_ok_and(|v| v.trim() == "1") {
        run_guard();
        return;
    }
    let mut c = Criterion::from_args();
    benches(&mut c);
    c.final_summary();
}
