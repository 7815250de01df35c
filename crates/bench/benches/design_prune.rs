//! Pruned vs unpruned greedy improvement-budget allocation.
//!
//! Measures what the PR-10 certified pre-pruning stage buys on the
//! budget-sweep workload: `unpruned` is the original
//! [`allocate_improvement_budget`] greedy loop (every candidate patch
//! evaluated through the compiled core each round), `pruned` is
//! [`allocate_improvement_budget_pruned`], which discards candidates whose
//! closed-form benefit bound provably cannot reach the round's frontier
//! before any compiled evaluation happens. The two must agree
//! bit-for-bit — pruning is an evaluation-count optimisation, never an
//! answer change.
//!
//! Setting `HMDIV_BENCH_GUARD=1` skips the criterion groups and instead
//! runs the self-contained acceptance gate: bit-identical allocations at
//! thread counts 1, 2 and 7, plus at least a quarter of candidate
//! evaluations pruned away; each variant is timed over a 2000 ms window.
//! `HMDIV_BENCH_GUARD_OUT=<path>` additionally writes the measurements as
//! JSON for CI artifact upload.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};

use hmdiv_core::design::{
    allocate_improvement_budget, allocate_improvement_budget_pruned, PruneStats,
};
use hmdiv_core::{ClassParams, DemandProfile, ModelParams, SequentialModel};
use hmdiv_prob::Probability;

/// A synthetic model with `n` classes of varied parameters (same shape as
/// the `compiled_core` bench, kept local so the benches stay independent).
fn synthetic_model(n: usize) -> (SequentialModel, DemandProfile) {
    let p = |v: f64| Probability::new(v).expect("valid");
    let mut params = ModelParams::builder();
    let mut profile = DemandProfile::builder();
    for i in 0..n {
        let f = i as f64 / n as f64;
        let name = format!("class{i:03}");
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

/// The budget-sweep workload: a quarter of the class count, so later
/// rounds run with meaningfully reshaped frontiers.
fn sweep_budget(n: usize) -> usize {
    (n / 4).max(4)
}

fn bench_budget_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("budget_sweep");
    group.sample_size(10);
    for n in [23usize, 64] {
        let (model, profile) = synthetic_model(n);
        let budget = sweep_budget(n);
        group.bench_with_input(BenchmarkId::new("unpruned", n), &n, |b, _| {
            b.iter(|| allocate_improvement_budget(&model, &profile, budget, 2.0).expect("valid"));
        });
        group.bench_with_input(BenchmarkId::new("pruned", n), &n, |b, _| {
            b.iter(|| {
                allocate_improvement_budget_pruned(&model, &profile, budget, 2.0, 1).expect("valid")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_budget_sweep);

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

/// Least share of candidate evaluations that pruning must save.
const GUARD_MIN_SAVE: f64 = 0.25;

/// Bit-identity first: the guard must never certify a pruning stage that
/// changed the greedy answer, at any thread count.
fn assert_identical(n: usize, budget: usize) -> PruneStats {
    let (model, profile) = synthetic_model(n);
    let reference = allocate_improvement_budget(&model, &profile, budget, 2.0).expect("valid");
    let mut stats = PruneStats::default();
    for threads in [1usize, 2, 7] {
        let (pruned, s) =
            allocate_improvement_budget_pruned(&model, &profile, budget, 2.0, threads)
                .expect("valid");
        assert_eq!(
            reference.allocation, pruned.allocation,
            "pruned allocation drifted (n={n}, threads={threads})"
        );
        assert_eq!(
            reference.before.to_bits(),
            pruned.before.to_bits(),
            "pruned `before` drifted (n={n}, threads={threads})"
        );
        assert_eq!(
            reference.after.to_bits(),
            pruned.after.to_bits(),
            "pruned `after` drifted (n={n}, threads={threads})"
        );
        assert_eq!(
            reference.model.params(),
            pruned.model.params(),
            "pruned improved model drifted (n={n}, threads={threads})"
        );
        stats = s;
    }
    stats
}

/// The CI bench guard: pruning must save `GUARD_MIN_SAVE` of the compiled
/// candidate evaluations on this very workload while staying bit-identical
/// to the unpruned greedy loop.
fn run_guard() {
    let mut entries = Vec::new();
    let mut worst: f64 = f64::INFINITY;
    for n in [23usize, 64] {
        let budget = sweep_budget(n);
        let stats = assert_identical(n, budget);
        let saved = stats.pruned as f64 / stats.candidates as f64;
        worst = worst.min(saved);
        let (model, profile) = synthetic_model(n);
        let unpruned_us = time_per_call_us(GUARD_WINDOW, || {
            std::hint::black_box(
                allocate_improvement_budget(&model, &profile, budget, 2.0).expect("valid"),
            );
        });
        let pruned_us = time_per_call_us(GUARD_WINDOW, || {
            std::hint::black_box(
                allocate_improvement_budget_pruned(&model, &profile, budget, 2.0, 1)
                    .expect("valid"),
            );
        });
        let ratio = unpruned_us / pruned_us;
        println!(
            "bench-guard budget_sweep/classes_{n}: {} of {} candidates pruned \
             ({:.1}%, min {:.1}%), unpruned {unpruned_us:.1} us, pruned {pruned_us:.1} us, \
             ratio {ratio:.2}x",
            stats.pruned,
            stats.candidates,
            saved * 100.0,
            GUARD_MIN_SAVE * 100.0
        );
        entries.push(format!(
            "    \"classes_{n}\": {{ \"budget\": {budget}, \"candidates\": {}, \
             \"evaluated\": {}, \"pruned\": {}, \"saved\": {saved:.4}, \
             \"unpruned_us\": {unpruned_us:.1}, \"pruned_us\": {pruned_us:.1}, \
             \"ratio\": {ratio:.2} }}",
            stats.candidates, stats.evaluated, stats.pruned,
        ));
    }
    let pass = worst >= GUARD_MIN_SAVE;
    if let Ok(path) = std::env::var("HMDIV_BENCH_GUARD_OUT") {
        let json = format!(
            "{{\n  \"guard\": \"pruned_vs_unpruned_budget_allocation\",\n  \
             \"bench\": \"design_prune/budget_sweep\",\n  \
             \"bit_identical_threads\": [1, 2, 7],\n  \
             \"window_ms\": {},\n  \"min_save\": {GUARD_MIN_SAVE},\n  \
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
        "bench-guard FAILED: pruning saved only {:.1}% of candidate evaluations \
         (required {:.1}%)",
        worst * 100.0,
        GUARD_MIN_SAVE * 100.0
    );
    println!(
        "bench-guard PASSED: worst save {:.1}% >= {:.1}%",
        worst * 100.0,
        GUARD_MIN_SAVE * 100.0
    );
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
