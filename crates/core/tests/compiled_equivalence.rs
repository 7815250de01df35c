//! Property-based equivalence between the compiled dense evaluation layer
//! and map-based reference implementations.
//!
//! The compiled layer ([`hmdiv_core::compiled`]) promises *bit-identical*
//! results, not merely close ones: the same summation order (profile
//! insertion order), the same [`ClassParams`] arithmetic, and the same RNG
//! consumption order (classes sorted by name) as walking the `BTreeMap`
//! tables directly. Each test here re-rolls the pre-compiled map-based
//! computation by hand and compares `f64::to_bits`.
// Integration tests are test code: the house `unwrap_used` ban (clippy.toml)
// exempts tests, but clippy only auto-detects `#[cfg(test)]` modules.
#![allow(clippy::unwrap_used)]

use hmdiv_core::adaptation::AdaptationResponse;
use hmdiv_core::compiled::{PROFILE_LANES, SCENARIO_LANES};
use hmdiv_core::design::rank_improvement_targets;
use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::importance::{system_failure_scaled_batch, system_failure_scaled_compiled};
use hmdiv_core::uncertainty::{propagate, propagate_par, ClassPosterior, ModelPosterior};
use hmdiv_core::{ClassId, ClassParams, DemandProfile, ModelParams, SequentialModel};
use hmdiv_prob::Probability;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn p(v: f64) -> Probability {
    Probability::new(v).unwrap()
}

/// Interior probabilities, bounded away from 0/1 so conditionals stay
/// defined.
fn interior() -> impl Strategy<Value = f64> {
    0.02..=0.98f64
}

#[derive(Debug, Clone)]
struct System {
    model: SequentialModel,
    profile: DemandProfile,
}

/// Random 3-class systems; class names chosen so sorted (universe) order
/// differs from profile insertion order, exercising the index indirection.
fn system() -> impl Strategy<Value = System> {
    (
        proptest::collection::vec((interior(), interior(), interior()), 3),
        0.05..=0.9f64,
        0.05..=0.9f64,
    )
        .prop_map(|(params, w1, w2)| {
            let names = ["zeta", "alpha", "mid"];
            let mut builder = ModelParams::builder();
            for (name, (mf, ms, mf_cond)) in names.iter().zip(&params) {
                builder = builder.class(*name, ClassParams::new(p(*mf), p(*ms), p(*mf_cond)));
            }
            let model = SequentialModel::new(builder.build().unwrap());
            // Insertion order zeta, alpha, mid — not sorted.
            let profile = DemandProfile::builder()
                .class("zeta", w1)
                .class("alpha", w2)
                .class("mid", 0.1)
                .build()
                .unwrap();
            System { model, profile }
        })
}

/// The pre-compiled map-based eq. (8): walk the profile in insertion order,
/// look each class up in the `BTreeMap` table.
fn map_system_failure(model: &SequentialModel, profile: &DemandProfile) -> f64 {
    let mut total = 0.0;
    for (class, weight) in profile.iter() {
        let cp = model.params().class(class).unwrap();
        total += weight.value() * cp.class_failure().value();
    }
    Probability::clamped(total).value()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn system_failure_bit_identical(sys in system()) {
        let via_compiled = sys.model.system_failure(&sys.profile).unwrap().value();
        let via_map = map_system_failure(&sys.model, &sys.profile);
        prop_assert_eq!(via_compiled.to_bits(), via_map.to_bits());
    }

    #[test]
    fn conditional_marginals_bit_identical(sys in system()) {
        // Map-based references for PMf and the Bayes-weighted conditionals.
        let (mut mf_total, mut joint_ms, mut marg_ms, mut joint_mf, mut marg_mf) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for (class, weight) in sys.profile.iter() {
            let cp = sys.model.params().class(class).unwrap();
            let w = weight.value();
            mf_total += w * cp.p_mf().value();
            joint_ms += w * cp.p_ms().value() * cp.p_hf_given_ms().value();
            marg_ms += w * cp.p_ms().value();
            joint_mf += w * cp.p_mf().value() * cp.p_hf_given_mf().value();
            marg_mf += w * cp.p_mf().value();
        }
        let machine = sys.model.machine_failure(&sys.profile).unwrap().value();
        prop_assert_eq!(machine.to_bits(), Probability::clamped(mf_total).value().to_bits());
        let hf_ms = sys.model
            .human_failure_given_machine_success(&sys.profile)
            .unwrap()
            .value();
        prop_assert_eq!(
            hf_ms.to_bits(),
            Probability::clamped(joint_ms / marg_ms).value().to_bits()
        );
        let hf_mf = sys.model
            .human_failure_given_machine_failure(&sys.profile)
            .unwrap()
            .value();
        prop_assert_eq!(
            hf_mf.to_bits(),
            Probability::clamped(joint_mf / marg_mf).value().to_bits()
        );
    }

    #[test]
    fn scenario_batch_bit_identical_to_map_apply(
        sys in system(),
        factor in 1.5..=20.0f64,
        new_mf in interior(),
        ms in interior(),
        mf_cond in interior(),
        scale in 0.1..=1.5f64,
    ) {
        let scenarios = vec![
            Scenario::new().improve_machine(ClassId::new("alpha"), factor),
            Scenario::new().improve_machine_everywhere(factor),
            Scenario::new().set_machine_failure(ClassId::new("mid"), p(new_mf)),
            Scenario::new().set_reader(ClassId::new("zeta"), p(ms), p(mf_cond)),
            Scenario::new().scale_reader_everywhere(scale),
        ];
        let compiled = sys.model.compiled();
        let bound = compiled.bind_profile(&sys.profile).unwrap();
        let batch = compiled.evaluate_scenarios(&scenarios, &bound).unwrap();
        for (scenario, fast) in scenarios.iter().zip(&batch) {
            // Map path: clone-and-rebuild the model, then walk the maps.
            let applied = scenario.apply(&sys.model).unwrap();
            let slow = map_system_failure(&applied, &sys.profile);
            prop_assert_eq!(fast.value().to_bits(), slow.to_bits());
        }
    }

    #[test]
    fn design_ranking_bit_identical(sys in system()) {
        // Map-based reference: leverage per profile entry, same sort.
        let mut reference = Vec::new();
        for (class, weight) in sys.profile.iter() {
            let cp = sys.model.params().class(class).unwrap();
            let w = weight.value();
            let t = cp.coherence_index();
            let p_mf = cp.p_mf().value();
            reference.push((class.clone(), w * t * p_mf));
        }
        reference.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let ranked = rank_improvement_targets(&sys.model, &sys.profile).unwrap();
        prop_assert_eq!(ranked.len(), reference.len());
        for (lever, (class, benefit)) in ranked.iter().zip(&reference) {
            prop_assert_eq!(&lever.class, class);
            prop_assert_eq!(lever.max_benefit.to_bits(), benefit.to_bits());
        }
    }

    #[test]
    fn budget_allocation_matches_scenario_replay(
        sys in system(),
        budget in 1usize..=4,
        step in 1.5..=5.0f64,
    ) {
        // The patched greedy loop must produce a final model whose failure
        // equals replaying its allocation through the map-based scenario
        // machinery.
        let alloc = hmdiv_core::design::allocate_improvement_budget(
            &sys.model, &sys.profile, budget, step,
        ).unwrap();
        let mut scenario = Scenario::new();
        for (class, units) in &alloc.allocation {
            for _ in 0..*units {
                scenario = scenario.improve_machine(class.clone(), step);
            }
        }
        let replayed = scenario.apply(&sys.model).unwrap();
        let replayed_failure = map_system_failure(&replayed, &sys.profile);
        prop_assert!((alloc.after - replayed_failure).abs() < 1e-15,
            "{} vs {}", alloc.after, replayed_failure);
        prop_assert_eq!(
            alloc.model.system_failure(&sys.profile).unwrap().value().to_bits(),
            replayed_failure.to_bits()
        );
    }
}

/// Batch sizes that exercise the lane-blocked kernels' remainder tail:
/// empty, pure-tail, one short of a block, exactly one block, one over, and
/// two blocks plus a tail.
fn lane_edge_sizes(lanes: usize) -> [usize; 6] {
    [0, 1, lanes - 1, lanes, lanes + 1, 2 * lanes + 3]
}

/// Eight structurally distinct scenarios: identity, the three targeted
/// change kinds (sparse-overlay lanes), a composed overlay on one slot, the
/// two whole-table change kinds, and an adaptation response (general-path
/// lanes) — so cycled batches mix sparse and general lanes inside a block.
fn scenario_pool(
    factor: f64,
    new_mf: f64,
    ms: f64,
    mf_cond: f64,
    scale: f64,
    strength: f64,
) -> Vec<Scenario> {
    vec![
        Scenario::new(),
        Scenario::new().improve_machine(ClassId::new("alpha"), factor),
        Scenario::new().set_machine_failure(ClassId::new("mid"), p(new_mf)),
        Scenario::new().set_reader(ClassId::new("zeta"), p(ms), p(mf_cond)),
        Scenario::new()
            .improve_machine(ClassId::new("alpha"), factor)
            .set_machine_failure(ClassId::new("alpha"), p(new_mf)),
        Scenario::new().improve_machine_everywhere(factor),
        Scenario::new().scale_reader_everywhere(scale),
        Scenario::new()
            .improve_machine(ClassId::new("mid"), factor)
            .with_adaptation(AdaptationResponse::Complacency { strength }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_blocked_scenarios_bit_identical_at_tail_edges(
        sys in system(),
        factor in 1.5..=20.0f64,
        new_mf in interior(),
        ms in interior(),
        mf_cond in interior(),
        scale in 0.1..=1.5f64,
        strength in 0.05..=0.95f64,
    ) {
        let pool = scenario_pool(factor, new_mf, ms, mf_cond, scale, strength);
        let compiled = sys.model.compiled();
        let bound = compiled.bind_profile(&sys.profile).unwrap();
        for n in lane_edge_sizes(SCENARIO_LANES) {
            let batch: Vec<Scenario> =
                (0..n).map(|i| pool[i % pool.len()].clone()).collect();
            let lane = compiled.evaluate_scenarios(&batch, &bound).unwrap();
            prop_assert_eq!(lane.len(), n);
            // Scalar reference: every lane, tail lanes included, against
            // the map path evaluating the scenario alone.
            for (i, (scenario, fast)) in batch.iter().zip(&lane).enumerate() {
                let applied = scenario.apply(&sys.model).unwrap();
                let scalar = map_system_failure(&applied, &sys.profile);
                prop_assert_eq!(
                    fast.value().to_bits(),
                    scalar.to_bits(),
                    "n={} lane={}", n, i
                );
            }
            let sweep = compiled.bind_scenarios(&batch);
            prop_assert_eq!(sweep.len(), n);
            for threads in [1usize, 2, 7] {
                let par = compiled
                    .evaluate_scenarios_par(&batch, &bound, threads)
                    .unwrap();
                let bound_sweep = compiled
                    .evaluate_bound_scenarios(&sweep, &bound, threads)
                    .unwrap();
                prop_assert_eq!(par.len(), n);
                prop_assert_eq!(bound_sweep.len(), n);
                for (i, ((pv, bv), sv)) in par.iter().zip(&bound_sweep).zip(&lane).enumerate() {
                    prop_assert_eq!(
                        pv.value().to_bits(),
                        sv.value().to_bits(),
                        "threads={} n={} lane={}", threads, n, i
                    );
                    prop_assert_eq!(
                        bv.value().to_bits(),
                        sv.value().to_bits(),
                        "bound sweep: threads={} n={} lane={}", threads, n, i
                    );
                }
            }
            // The same pool with failing scenarios mid-block: the bound
            // sweep stores overlay-path errors at binding, the in-process
            // path raises them in the worker, and general-path errors come
            // from the general pass on both. Every path must report the
            // lowest-indexed one.
            if n > SCENARIO_LANES {
                let failing = [
                    Scenario::new().improve_machine(ClassId::new("ghost"), factor),
                    Scenario::new().improve_machine(ClassId::new("alpha"), 0.5),
                    Scenario::new().improve_machine_everywhere(0.5),
                ];
                for (k, bad) in failing.iter().enumerate() {
                    let mut faulty = batch.clone();
                    let first = SCENARIO_LANES / 2 + k;
                    faulty[first] = bad.clone();
                    faulty[n - 1] = failing[(k + 1) % failing.len()].clone();
                    let want = compiled.evaluate_scenarios(&faulty, &bound).unwrap_err();
                    let alone = compiled
                        .evaluate_scenarios(std::slice::from_ref(bad), &bound)
                        .unwrap_err();
                    prop_assert_eq!(&want, &alone, "n={} k={}", n, k);
                    let sweep = compiled.bind_scenarios(&faulty);
                    for threads in [1usize, 2, 7] {
                        let par = compiled.evaluate_scenarios_par(&faulty, &bound, threads);
                        let bound_sweep = compiled.evaluate_bound_scenarios(&sweep, &bound, threads);
                        prop_assert_eq!(par, Err(want.clone()), "threads={} n={} k={}", threads, n, k);
                        prop_assert_eq!(
                            bound_sweep,
                            Err(want.clone()),
                            "bound sweep: threads={} n={} k={}", threads, n, k
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_blocked_profiles_bit_identical_at_tail_edges(
        sys in system(),
        w in 0.05..=0.9f64,
    ) {
        let compiled = sys.model.compiled();
        // Bound profiles of different lengths and insertion orders, so
        // joint-prefix and per-lane remainder loops both run.
        let pool: Vec<_> = [
            &[("zeta", w), ("alpha", 0.2), ("mid", 0.1)][..],
            &[("mid", 1.0)][..],
            &[("alpha", w), ("zeta", 0.3)][..],
            &[("alpha", 1.0)][..],
            &[("mid", 0.4), ("zeta", w)][..],
        ]
        .iter()
        .map(|entries| {
            let mut builder = DemandProfile::builder();
            for (name, weight) in *entries {
                builder = builder.class(*name, *weight);
            }
            compiled.bind_profile(&builder.build().unwrap()).unwrap()
        })
        .collect();
        for n in lane_edge_sizes(PROFILE_LANES) {
            let batch: Vec<_> =
                (0..n).map(|i| pool[i % pool.len()].clone()).collect();
            let lane = compiled.evaluate_profiles(&batch);
            prop_assert_eq!(lane.len(), n);
            for (i, (bp, fast)) in batch.iter().zip(&lane).enumerate() {
                prop_assert_eq!(
                    fast.value().to_bits(),
                    compiled.system_failure(bp).value().to_bits(),
                    "n={} lane={}", n, i
                );
            }
            for threads in [1usize, 2, 7] {
                let par = compiled.evaluate_profiles_par(&batch, threads);
                prop_assert_eq!(par.len(), n);
                for (i, (pv, sv)) in par.iter().zip(&lane).enumerate() {
                    prop_assert_eq!(
                        pv.value().to_bits(),
                        sv.value().to_bits(),
                        "threads={} n={} lane={}", threads, n, i
                    );
                }
            }
        }
    }

    #[test]
    fn patched_batch_bit_identical_at_tail_edges(
        sys in system(),
        factor in 1.5..=20.0f64,
        new_mf in interior(),
    ) {
        let compiled = sys.model.compiled();
        let bound = compiled.bind_profile(&sys.profile).unwrap();
        let slots = compiled.class_failure_slice().len();
        for n in lane_edge_sizes(SCENARIO_LANES) {
            let candidates: Vec<(u32, ClassParams)> = (0..n)
                .map(|i| {
                    let idx = u32::try_from(i % slots).unwrap();
                    let base = compiled.params_at(idx);
                    let cp = if i % 2 == 0 {
                        base.with_machine_improved(factor).unwrap()
                    } else {
                        base.with_p_mf(p(new_mf))
                    };
                    (idx, cp)
                })
                .collect();
            let lane = compiled.system_failure_patched_batch(&bound, &candidates);
            prop_assert_eq!(lane.len(), n);
            for (i, ((idx, cp), fast)) in candidates.iter().zip(&lane).enumerate() {
                let scalar = compiled.system_failure_patched(&bound, *idx, *cp);
                prop_assert_eq!(
                    fast.value().to_bits(),
                    scalar.value().to_bits(),
                    "n={} lane={}", n, i
                );
            }
        }
    }

    #[test]
    fn scaled_batch_bit_identical_at_tail_edges(
        sys in system(),
        s0 in 0.0..=1.0f64,
    ) {
        let compiled = sys.model.compiled();
        let bound = compiled.bind_profile(&sys.profile).unwrap();
        // Includes both endpoints; cycling keeps adjacent lanes distinct.
        let pool = [0.0, 1.0, 0.5, s0, 0.25, 0.9, 0.1, 0.75];
        for n in lane_edge_sizes(SCENARIO_LANES) {
            let scales: Vec<f64> =
                (0..n).map(|i| pool[i % pool.len()]).collect();
            let lane = system_failure_scaled_batch(compiled, &bound, &scales).unwrap();
            prop_assert_eq!(lane.len(), n);
            for (i, (scale, fast)) in scales.iter().zip(&lane).enumerate() {
                let scalar =
                    system_failure_scaled_compiled(compiled, &bound, *scale).unwrap();
                prop_assert_eq!(
                    fast.value().to_bits(),
                    scalar.value().to_bits(),
                    "n={} lane={}", n, i
                );
            }
        }
    }
}

#[test]
fn lane_blocked_error_order_matches_scalar_across_thread_counts() {
    use hmdiv_core::ModelError;
    let sys = {
        let mut builder = ModelParams::builder();
        for name in ["zeta", "alpha", "mid"] {
            builder = builder.class(name, ClassParams::new(p(0.1), p(0.2), p(0.3)));
        }
        let model = SequentialModel::new(builder.build().unwrap());
        let profile = DemandProfile::builder()
            .class("zeta", 0.5)
            .class("alpha", 0.3)
            .class("mid", 0.2)
            .build()
            .unwrap();
        System { model, profile }
    };
    let compiled = sys.model.compiled();
    let bound = compiled.bind_profile(&sys.profile).unwrap();
    // Two invalid scenarios: an invalid factor at index 3 (inside the first
    // full lane block) and an unknown class at index 9 (second block). The
    // fail-fast contract reports the lowest-indexed one at every thread
    // count — including when the batch ends in a remainder tail.
    let mut batch: Vec<Scenario> = (0..(2 * SCENARIO_LANES + 3))
        .map(|_| Scenario::new().improve_machine(ClassId::new("alpha"), 2.0))
        .collect();
    batch[9] = Scenario::new().improve_machine(ClassId::new("ghost"), 2.0);
    batch[3] = Scenario::new().improve_machine(ClassId::new("zeta"), 0.25);
    let sequential = compiled
        .evaluate_scenarios(&batch, &bound)
        .expect_err("invalid factor must fail");
    assert!(
        matches!(sequential, ModelError::InvalidFactor { .. }),
        "{sequential:?}"
    );
    for threads in [1usize, 2, 7] {
        let par = compiled
            .evaluate_scenarios_par(&batch, &bound, threads)
            .expect_err("invalid factor must fail");
        assert_eq!(
            format!("{par:?}"),
            format!("{sequential:?}"),
            "threads {threads}"
        );
    }
}

fn posterior() -> ModelPosterior {
    ModelPosterior::new()
        .with_class(
            "easy",
            ClassPosterior::from_counts((14, 200), (26, 186), (3, 14)).unwrap(),
        )
        .with_class(
            "difficult",
            ClassPosterior::from_counts((82, 200), (47, 118), (74, 82)).unwrap(),
        )
}

fn field() -> DemandProfile {
    DemandProfile::builder()
        .class("easy", 0.9)
        .class("difficult", 0.1)
        .build()
        .unwrap()
}

/// The naive pre-compiled Monte-Carlo loop: sample a full map-based model
/// per draw, evaluate it by walking the maps. `propagate` must consume the
/// RNG in exactly this order and produce bit-identical samples.
fn naive_samples(
    post: &ModelPosterior,
    profile: &DemandProfile,
    draws: usize,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples: Vec<f64> = (0..draws)
        .map(|_| {
            let model = post.sample_model(&mut rng).unwrap();
            map_system_failure(&model, profile)
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

#[test]
fn uncertainty_propagation_bit_identical_to_naive_loop() {
    let post = posterior();
    let profile = field();
    for seed in [1u64, 7, 1234] {
        let reference = naive_samples(&post, &profile, 500, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let pred = propagate(&post, &profile, 500, &mut rng).unwrap();
        assert_eq!(pred.draws(), reference.len());
        // Quantiles interpolate the sorted sample vector; probing a dense
        // grid of orders pins every sample position.
        let n = reference.len();
        for i in 0..n {
            let q = i as f64 / (n - 1) as f64;
            let expected = {
                // Same interpolation as UncertainPrediction::quantile.
                let pos = q * (n - 1) as f64;
                let idx = pos.floor() as usize;
                let frac = pos - idx as f64;
                let v = if idx + 1 >= n {
                    reference[n - 1]
                } else {
                    reference[idx] * (1.0 - frac) + reference[idx + 1] * frac
                };
                Probability::clamped(v).value()
            };
            assert_eq!(
                pred.quantile(q).value().to_bits(),
                expected.to_bits(),
                "seed {seed}, quantile {q}"
            );
        }
    }
}

#[test]
fn uncertainty_quantiles_identical_across_thread_counts() {
    let post = posterior();
    let profile = field();
    let reference = propagate_par(&post, &profile, 800, 42, 1).unwrap();
    for threads in [2usize, 7] {
        let pred = propagate_par(&post, &profile, 800, 42, threads).unwrap();
        for q in [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0] {
            assert_eq!(
                pred.quantile(q).value().to_bits(),
                reference.quantile(q).value().to_bits(),
                "threads {threads}, quantile {q}"
            );
        }
        assert_eq!(
            pred.mean().value().to_bits(),
            reference.mean().value().to_bits()
        );
        assert_eq!(pred.std_dev().to_bits(), reference.std_dev().to_bits());
    }
}

#[test]
fn profile_universe_mismatch_is_unknown_class_both_directions() {
    use hmdiv_core::ModelError;
    // Direction 1: profile mentions a class the model's universe lacks.
    let model = SequentialModel::new(
        ModelParams::builder()
            .class("known", ClassParams::new(p(0.1), p(0.2), p(0.3)))
            .build()
            .unwrap(),
    );
    let ghost_profile = DemandProfile::builder()
        .class("known", 0.5)
        .class("ghost", 0.5)
        .build()
        .unwrap();
    assert!(matches!(
        model.system_failure(&ghost_profile),
        Err(ModelError::UnknownClass { class }) if class.name() == "ghost"
    ));
    // Direction 2: a profile bound to one universe is rejected by a model
    // compiled over a different universe (index spaces must not mix).
    let other = SequentialModel::new(
        ModelParams::builder()
            .class("other", ClassParams::new(p(0.1), p(0.2), p(0.3)))
            .build()
            .unwrap(),
    );
    let profile_for_model = DemandProfile::builder()
        .class("known", 1.0)
        .build()
        .unwrap();
    assert!(matches!(
        other.compiled().bind_profile(&profile_for_model),
        Err(ModelError::UnknownClass { class }) if class.name() == "known"
    ));
    // And the weight accessor reports the same typed error.
    assert!(matches!(
        profile_for_model.weight("other"),
        Err(ModelError::UnknownClass { class }) if class.name() == "other"
    ));
}

#[test]
fn compiled_rng_independent_of_profile_binding() {
    // Binding different profiles must not change how the posterior consumes
    // randomness: the sample sequence depends only on the sorted universe.
    let post = posterior();
    let narrow = DemandProfile::builder().class("easy", 1.0).build().unwrap();
    let mut rng_a = StdRng::seed_from_u64(9);
    let mut rng_b = StdRng::seed_from_u64(9);
    let _ = propagate(&post, &field(), 50, &mut rng_a).unwrap();
    let _ = propagate(&post, &narrow, 50, &mut rng_b).unwrap();
    // Both consumed the same number of random values.
    assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
}
