//! Design exploration: where should CADT improvement effort go? (§6.2)
//!
//! For a small reduction `ΔPMf(x)` of the machine's failure probability on
//! class `x`, eq. (9) gives the system-level benefit
//!
//! ```text
//! ΔPHf = p(x) · t(x) · ΔPMf(x)
//! ```
//!
//! so the *leverage* of a class is `p(x)·t(x)·PMf(x)` for a proportional
//! improvement — not its frequency alone. The §5 example's point is exactly
//! this: improving the machine ×10 on the frequent easy cases (leverage
//! 0.9·0.04·0.07 ≈ 0.0025 under the field profile) buys far less than the
//! same improvement on the rare difficult ones (0.1·0.5·0.41 ≈ 0.021).

use crate::compiled::CompiledModel;
use crate::extrapolate::Scenario;
use crate::{ClassId, ClassParams, DemandProfile, ModelError, SequentialModel};

/// The improvement leverage of one class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLeverage {
    /// The class.
    pub class: ClassId,
    /// Its profile weight `p(x)`.
    pub weight: f64,
    /// Its coherence index `t(x)`.
    pub coherence_index: f64,
    /// Its current machine failure probability `PMf(x)`.
    pub p_mf: f64,
    /// The reduction in system failure from *eliminating* machine failure
    /// on this class: `p(x)·t(x)·PMf(x)`.
    pub max_benefit: f64,
}

/// Ranks classes by the system-level benefit of improving the machine on
/// them, descending (§6.2: "concentrate any improvements on cases for which
/// readers have a high t(x) (and that are somewhat frequent)").
///
/// # Errors
///
/// [`ModelError::UnknownClass`] if the profile mentions a class without
/// parameters.
///
/// # Example
///
/// ```
/// use hmdiv_core::{paper, design::rank_improvement_targets};
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let model = paper::example_model()?;
/// let field = paper::field_profile()?;
/// let ranked = rank_improvement_targets(&model, &field)?;
/// // Despite being 9× rarer, "difficult" dominates.
/// assert_eq!(ranked[0].class.name(), "difficult");
/// # Ok(())
/// # }
/// ```
pub fn rank_improvement_targets(
    model: &SequentialModel,
    profile: &DemandProfile,
) -> Result<Vec<ClassLeverage>, ModelError> {
    let compiled = model.compiled();
    let bound = compiled.bind_profile(profile)?;
    let mut out = Vec::with_capacity(bound.len());
    for (idx, weight) in bound.iter() {
        let cp = compiled.params_at(idx);
        let t = cp.coherence_index();
        let p_mf = cp.p_mf().value();
        out.push(ClassLeverage {
            class: compiled.universe().class(idx).clone(),
            weight,
            coherence_index: t,
            p_mf,
            max_benefit: weight * t * p_mf,
        });
    }
    out.sort_by(|a, b| {
        b.max_benefit
            .total_cmp(&a.max_benefit)
            .then_with(|| a.class.cmp(&b.class))
    });
    Ok(out)
}

/// The exact system-failure reduction from improving the machine by
/// `factor` on one class (a convenience around [`Scenario`]).
///
/// # Errors
///
/// As [`Scenario::predict`].
pub fn improvement_benefit(
    model: &SequentialModel,
    profile: &DemandProfile,
    class: &ClassId,
    factor: f64,
) -> Result<f64, ModelError> {
    let pred = Scenario::new()
        .improve_machine(class.clone(), factor)
        .predict(model, profile)?;
    Ok(pred.improvement())
}

/// Greedy allocation of a limited improvement budget.
///
/// The budget is a number of "improvement units"; spending one unit on a
/// class divides its `PMf(x)` by `step_factor`. Units are spent one at a
/// time on whichever class currently yields the largest exact reduction in
/// system failure. Returns the per-class unit counts and the final model.
///
/// This greedy policy is optimal here because each unit's benefit on a class
/// — `p(x)·t(x)·PMf(x)·(1 − 1/step)` — strictly decreases as units
/// accumulate on that class (diminishing returns), which makes the marginal
/// benefit matroid-greedy-friendly.
///
/// # Errors
///
/// * [`ModelError::InvalidFactor`] if `step_factor <= 1` or `budget == 0`.
/// * Coverage errors from evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetAllocation {
    /// `(class, units spent)` pairs, in class order.
    pub allocation: Vec<(ClassId, usize)>,
    /// System failure before any spending.
    pub before: f64,
    /// System failure after the full budget.
    pub after: f64,
    /// The improved model.
    pub model: SequentialModel,
}

/// See [`BudgetAllocation`].
///
/// This is the reference allocator: it evaluates every candidate in every
/// round. [`allocate_improvement_budget_pruned`] gives the bit-identical
/// answer with far fewer evaluations and is the one to call. The pruned
/// allocator's tests, the `design_prune` bench guard and the repository
/// benchmark's oracle compare against this loop, so it stays as an
/// independent implementation.
///
/// # Errors
///
/// * [`ModelError::InvalidFactor`] if `step_factor <= 1` or `budget == 0`.
/// * Coverage errors from evaluation.
pub fn allocate_improvement_budget(
    model: &SequentialModel,
    profile: &DemandProfile,
    budget: usize,
    step_factor: f64,
) -> Result<BudgetAllocation, ModelError> {
    validate_budget(budget, step_factor)?;
    // Compile once; candidates are evaluated by patching one class slot
    // instead of cloning a map-based model per candidate per unit.
    let bound = model.compiled().bind_profile(profile)?;
    let mut compiled = CompiledModel::clone(model.compiled());
    let before = compiled.system_failure(&bound).value();
    let mut spent: std::collections::BTreeMap<ClassId, usize> = Default::default();
    let mut candidates: Vec<(u32, ClassParams)> = Vec::with_capacity(bound.len());
    for _ in 0..budget {
        let baseline = compiled.system_failure(&bound).value();
        // One candidate slot-patch per profile class, evaluated through the
        // lane-blocked batch kernel (bit-identical to the per-candidate
        // `system_failure_patched` loop it replaces).
        candidates.clear();
        for (idx, _) in bound.iter() {
            candidates.push((
                idx,
                compiled.params_at(idx).with_machine_improved(step_factor)?,
            ));
        }
        let patched = compiled.system_failure_patched_batch(&bound, &candidates);
        let mut best: Option<(u32, f64)> = None;
        for ((idx, _), failure) in candidates.iter().zip(&patched) {
            let benefit = baseline - failure.value();
            match &best {
                Some((_, b)) if *b >= benefit => {}
                _ => best = Some((*idx, benefit)),
            }
        }
        let (idx, _) = best.ok_or(ModelError::Empty {
            context: "demand profile",
        })?;
        let improved = compiled.params_at(idx).with_machine_improved(step_factor)?;
        compiled.patch(idx, improved);
        *spent
            .entry(compiled.universe().class(idx).clone())
            .or_insert(0) += 1;
    }
    let after = compiled.system_failure(&bound).value();
    Ok(BudgetAllocation {
        allocation: spent.into_iter().collect(),
        before,
        after,
        model: SequentialModel::new(compiled.to_model_params()),
    })
}

/// The argument checks both allocators share.
fn validate_budget(budget: usize, step_factor: f64) -> Result<(), ModelError> {
    if step_factor.is_nan() || step_factor <= 1.0 || step_factor.is_infinite() {
        return Err(ModelError::InvalidFactor {
            value: step_factor,
            context: "step factor",
        });
    }
    if budget == 0 {
        return Err(ModelError::InvalidFactor {
            value: 0.0,
            context: "improvement budget",
        });
    }
    Ok(())
}

/// Evaluation counts from one run of
/// [`allocate_improvement_budget_pruned`]: how much compiled work the
/// certified pre-pruning stage saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Greedy rounds executed (= the budget).
    pub rounds: usize,
    /// Candidate patches considered across all rounds.
    pub candidates: usize,
    /// Candidates actually sent to the compiled batch evaluator.
    pub evaluated: usize,
    /// Candidates discarded by the static bound — never evaluated.
    pub pruned: usize,
}

/// Absolute slack added around each candidate's closed-form benefit
/// bound. One greedy step's exact benefit is `p(x)·t(x)·PMf(x)·(1−1/s)`
/// in real arithmetic (eq. (8) is linear in `PMf`); both that closed
/// form and the evaluator's `baseline − patched` difference round to
/// within a few n·ε of it (n = class count, magnitudes ≤ 1), so a fixed
/// `1e-12` plus `1e-15` per class over-covers the float divergence by
/// orders of magnitude while staying far below any real benefit gap.
fn prune_slop(classes: usize) -> f64 {
    1e-12 + 1e-15 * classes as f64
}

/// [`allocate_improvement_budget`] with a certified static pre-pruning
/// stage in front of the compiled evaluator.
///
/// Each greedy round first bounds every candidate's benefit with the
/// closed-form derivative certificate (the same eq.-(8) sensitivity
/// `hmdiv-analyze` certifies: benefit `= p(x)·t(x)·PMf(x)·(1−1/s)`,
/// bracketed by [`prune_slop`]); candidates whose upper bound cannot
/// reach the best lower bound are discarded *without* evaluation. Every
/// possible argmax survives — the bound brackets the exact benefit — and
/// survivors keep their original order, so running the unpruned
/// selection rule over them picks the **bit-identical** winner; only the
/// evaluation count changes (see [`PruneStats`]).
///
/// `threads > 1` evaluates survivors in contiguous chunks on up to that
/// many `hmdiv_prob::par` workers; the batch kernel is bit-identical per
/// candidate regardless of batch composition, so the result does not
/// depend on `threads`.
///
/// # Errors
///
/// As [`allocate_improvement_budget`].
pub fn allocate_improvement_budget_pruned(
    model: &SequentialModel,
    profile: &DemandProfile,
    budget: usize,
    step_factor: f64,
    threads: usize,
) -> Result<(BudgetAllocation, PruneStats), ModelError> {
    validate_budget(budget, step_factor)?;
    let threads = threads.max(1);
    let bound = model.compiled().bind_profile(profile)?;
    let mut compiled = CompiledModel::clone(model.compiled());
    let before = compiled.system_failure(&bound).value();
    let slop = prune_slop(compiled.len());
    let mut stats = PruneStats::default();
    let mut spent: std::collections::BTreeMap<ClassId, usize> = Default::default();
    let mut survivors: Vec<(u32, ClassParams)> = Vec::with_capacity(bound.len());
    for _ in 0..budget {
        stats.rounds += 1;
        let baseline = compiled.system_failure(&bound).value();
        // Static stage: closed-form benefit brackets, best lower bound.
        survivors.clear();
        let mut frontier = f64::NEG_INFINITY;
        let mut bounds: Vec<(u32, f64)> = Vec::with_capacity(bound.len());
        for (idx, weight) in bound.iter() {
            let cp = compiled.params_at(idx);
            let benefit =
                weight * cp.coherence_index() * cp.p_mf().value() * (1.0 - 1.0 / step_factor);
            frontier = frontier.max(benefit - slop);
            bounds.push((idx, benefit));
        }
        stats.candidates += bounds.len();
        // Survivors in original (bound-iteration) order: everything whose
        // certified best case reaches the frontier.
        for (idx, benefit) in bounds {
            if benefit + slop >= frontier {
                survivors.push((
                    idx,
                    compiled.params_at(idx).with_machine_improved(step_factor)?,
                ));
            }
        }
        stats.evaluated += survivors.len();
        let patched = evaluate_chunked(&compiled, &bound, &survivors, threads);
        // The unpruned selection rule over the surviving subsequence: the
        // first maximizer of the full list survives and stays first.
        let mut best: Option<(u32, f64)> = None;
        for ((idx, _), failure) in survivors.iter().zip(&patched) {
            let benefit = baseline - failure.value();
            match &best {
                Some((_, b)) if *b >= benefit => {}
                _ => best = Some((*idx, benefit)),
            }
        }
        let (idx, _) = best.ok_or(ModelError::Empty {
            context: "demand profile",
        })?;
        let improved = compiled.params_at(idx).with_machine_improved(step_factor)?;
        compiled.patch(idx, improved);
        *spent
            .entry(compiled.universe().class(idx).clone())
            .or_insert(0) += 1;
    }
    stats.pruned = stats.candidates - stats.evaluated;
    let after = compiled.system_failure(&bound).value();
    Ok((
        BudgetAllocation {
            allocation: spent.into_iter().collect(),
            before,
            after,
            model: SequentialModel::new(compiled.to_model_params()),
        },
        stats,
    ))
}

/// Evaluates candidate patches through the lane-blocked batch kernel,
/// split into one contiguous chunk per thread and run as `hmdiv_prob::par`
/// tasks, so each chunk reaches the kernel whole. Per-candidate results
/// are independent of batch composition, and chunks merge in task order,
/// so the concatenation is bit-identical to a single-threaded call.
fn evaluate_chunked(
    compiled: &CompiledModel,
    bound: &crate::compiled::CompiledProfile,
    candidates: &[(u32, ClassParams)],
    threads: usize,
) -> Vec<hmdiv_prob::Probability> {
    if threads <= 1 || candidates.len() < 2 {
        return compiled.system_failure_patched_batch(bound, candidates);
    }
    let chunk = candidates.len().div_ceil(threads);
    let chunks: Vec<&[(u32, ClassParams)]> = candidates.chunks(chunk).collect();
    hmdiv_prob::par::run_tasks_scoped(
        "core.design.prune",
        0,
        chunks.len() as u64,
        threads,
        Vec::new,
        |id, _rng, out: &mut Vec<hmdiv_prob::Probability>| {
            out.extend(compiled.system_failure_patched_batch(bound, chunks[id as usize]));
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper, ModelParams};

    #[test]
    fn difficult_class_dominates_both_profiles() {
        let model = paper::example_model().unwrap();
        for profile in [
            paper::trial_profile().unwrap(),
            paper::field_profile().unwrap(),
        ] {
            let ranked = rank_improvement_targets(&model, &profile).unwrap();
            assert_eq!(ranked[0].class.name(), "difficult");
            assert!(ranked[0].max_benefit > ranked[1].max_benefit);
        }
    }

    #[test]
    fn leverage_formula_matches_exact_benefit_for_full_elimination() {
        // Eliminating machine failure on a class (factor → ∞ approximated
        // by setting PMf = 0) reduces system failure by exactly
        // p(x)·t(x)·PMf(x).
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let ranked = rank_improvement_targets(&model, &field).unwrap();
        for lever in &ranked {
            let pred = Scenario::new()
                .set_machine_failure(lever.class.clone(), hmdiv_prob::Probability::ZERO)
                .predict(&model, &field)
                .unwrap();
            assert!(
                (pred.improvement() - lever.max_benefit).abs() < 1e-12,
                "{}: {} vs {}",
                lever.class,
                pred.improvement(),
                lever.max_benefit
            );
        }
    }

    #[test]
    fn finite_factor_benefit_is_fraction_of_max() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let class = ClassId::new("difficult");
        let benefit10 = improvement_benefit(&model, &field, &class, 10.0).unwrap();
        let ranked = rank_improvement_targets(&model, &field).unwrap();
        let max = ranked
            .iter()
            .find(|l| l.class == class)
            .unwrap()
            .max_benefit;
        // Factor 10 removes 90% of PMf, hence 90% of the max benefit.
        assert!((benefit10 - 0.9 * max).abs() < 1e-12);
    }

    #[test]
    fn budget_goes_to_difficult_first() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let alloc = allocate_improvement_budget(&model, &field, 3, 2.0).unwrap();
        let difficult_units = alloc
            .allocation
            .iter()
            .find(|(c, _)| c.name() == "difficult")
            .map(|(_, u)| *u)
            .unwrap_or(0);
        assert!(difficult_units >= 2, "{:?}", alloc.allocation);
        assert!(alloc.after < alloc.before);
        let total: usize = alloc.allocation.iter().map(|(_, u)| u).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn budget_validation() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        assert!(allocate_improvement_budget(&model, &field, 0, 2.0).is_err());
        assert!(allocate_improvement_budget(&model, &field, 1, 1.0).is_err());
        assert!(allocate_improvement_budget(&model, &field, 1, 0.5).is_err());
    }

    #[test]
    fn greedy_matches_exhaustive_for_tiny_budget() {
        // With budget 2, enumerate all allocations and check greedy's final
        // failure probability is minimal.
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let greedy = allocate_improvement_budget(&model, &field, 2, 3.0).unwrap();
        let classes = ["easy", "difficult"];
        let mut best = f64::INFINITY;
        for a in classes {
            for b in classes {
                let m = Scenario::new()
                    .improve_machine(ClassId::new(a), 3.0)
                    .improve_machine(ClassId::new(b), 3.0)
                    .apply(&model)
                    .unwrap();
                best = best.min(m.system_failure(&field).unwrap().value());
            }
        }
        assert!(
            (greedy.after - best).abs() < 1e-12,
            "{} vs {}",
            greedy.after,
            best
        );
    }

    fn synthetic(n: usize) -> (SequentialModel, DemandProfile) {
        let p = |v: f64| hmdiv_prob::Probability::new(v).unwrap();
        let mut params = ModelParams::builder();
        let mut profile = DemandProfile::builder();
        for i in 0..n {
            let f = i as f64 / n as f64;
            params = params.class(
                format!("class{i:03}"),
                ClassParams::new(p(0.05 + 0.4 * f), p(0.1 + 0.3 * f), p(0.2 + 0.7 * f)),
            );
            profile = profile.class(format!("class{i:03}"), 1.0 + f);
        }
        (
            SequentialModel::new(params.build().unwrap()),
            profile.build().unwrap(),
        )
    }

    #[test]
    fn pruned_allocation_is_bit_identical_at_any_thread_count() {
        for (model, profile, budget, step) in [
            (
                paper::example_model().unwrap(),
                paper::field_profile().unwrap(),
                6,
                2.0,
            ),
            {
                let (m, p) = synthetic(23);
                (m, p, 9, 3.0)
            },
        ] {
            let plain = allocate_improvement_budget(&model, &profile, budget, step).unwrap();
            for threads in [1, 2, 7] {
                let (pruned, stats) =
                    allocate_improvement_budget_pruned(&model, &profile, budget, step, threads)
                        .unwrap();
                assert_eq!(pruned.allocation, plain.allocation, "threads={threads}");
                assert_eq!(pruned.before.to_bits(), plain.before.to_bits());
                assert_eq!(pruned.after.to_bits(), plain.after.to_bits());
                assert_eq!(
                    pruned.model.params(),
                    plain.model.params(),
                    "threads={threads}"
                );
                assert_eq!(stats.rounds, budget);
                assert_eq!(stats.candidates, stats.evaluated + stats.pruned);
                assert!(
                    stats.evaluated < stats.candidates,
                    "pruning never fired: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn chunked_evaluation_is_bit_identical_at_any_thread_count() {
        let (model, profile) = synthetic(23);
        let compiled = model.compiled();
        let bound = compiled.bind_profile(&profile).unwrap();
        let candidates: Vec<(u32, ClassParams)> = bound
            .iter()
            .map(|(idx, _)| {
                let improved = compiled.params_at(idx).with_machine_improved(3.0);
                (idx, improved.unwrap())
            })
            .collect();
        let bits = |v: Vec<hmdiv_prob::Probability>| -> Vec<u64> {
            v.iter().map(|p| p.value().to_bits()).collect()
        };
        let serial = bits(compiled.system_failure_patched_batch(&bound, &candidates));
        for len in [0, 1, 2, 9, candidates.len()] {
            for threads in [1, 2, 3, 7, 64] {
                let chunked = evaluate_chunked(compiled, &bound, &candidates[..len], threads);
                assert_eq!(bits(chunked), serial[..len], "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn pruning_saves_most_evaluations_on_a_wide_model() {
        let (model, profile) = synthetic(64);
        let (_, stats) = allocate_improvement_budget_pruned(&model, &profile, 16, 2.0, 1).unwrap();
        // The certified bound should discard the bulk of the 64 candidates
        // per round, not just a sliver.
        assert!(
            (stats.pruned as f64) >= 0.25 * stats.candidates as f64,
            "{stats:?}"
        );
    }

    #[test]
    fn pruned_budget_validation_matches_unpruned() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        assert!(allocate_improvement_budget_pruned(&model, &field, 0, 2.0, 1).is_err());
        assert!(allocate_improvement_budget_pruned(&model, &field, 1, 1.0, 1).is_err());
        assert!(allocate_improvement_budget_pruned(&model, &field, 1, 0.5, 2).is_err());
    }

    #[test]
    fn leverage_fields_consistent() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        for lever in rank_improvement_targets(&model, &field).unwrap() {
            assert!(
                (lever.max_benefit - lever.weight * lever.coherence_index * lever.p_mf).abs()
                    < 1e-15
            );
        }
    }
}
