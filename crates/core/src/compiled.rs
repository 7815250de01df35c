//! Dense compiled evaluation of the core models.
//!
//! Every hot path in the reproduction — eq. (8) `system_failure`, §5
//! scenario sweeps, §6.2 design ranking, uncertainty Monte-Carlo — used to
//! re-walk `BTreeMap<ClassId, _>` tables keyed by `Arc<str>` and clone whole
//! models per candidate. This module applies the compile-then-evaluate
//! architecture proven on RBDs (`hmdiv_rbd::compiled`) to the sequential and
//! parallel-detection models:
//!
//! * class names are interned once into a [`ClassUniverse`] of dense `u32`
//!   indices (sorted-name order — the order a `BTreeMap` iterates);
//! * a [`CompiledModel`] stores per-class parameters in parallel vectors
//!   over those indices (struct-of-arrays: `p_mf`, `p_hf_given_ms`,
//!   `p_hf_given_mf` as `Vec<f64>` mirrors of the exact `ClassParams`);
//! * a [`CompiledProfile`] resolves a [`DemandProfile`]'s classes to indices
//!   once, keeping weights in **profile insertion order** so summation
//!   order — and therefore every result bit — matches the map-based path;
//! * [`CompiledModel::patch`]/[`CompiledModel::restore`] mutate one class
//!   slot in place, so design ranking, budget allocation and importance
//!   sweeps evaluate candidates without cloning a model per candidate.
//!
//! Evaluation calls the *same* [`ClassParams`] methods as the map-based
//! reference (never algebraically-equivalent reformulations), which is what
//! makes compiled results bit-identical — pinned by
//! `crates/core/tests/compiled_equivalence.rs`.
//!
//! The batch entry points are **lane-blocked**: [`SCENARIO_LANES`] (or
//! [`PROFILE_LANES`]) *independent* evaluations advance per inner-loop
//! iteration over the dense slots, with fixed-width lane arrays the
//! compiler can autovectorize on stable rustc. Lanes are whole
//! evaluations, never pieces of one — each lane's floating-point
//! accumulation order is exactly the scalar order, so the bit-identity
//! contract survives the blocking. A lane block of scenarios is patched
//! into a strided scratch region (`[class][lane]` layout) by one
//! multi-patch sweep, then evaluated by one fused pass over the profile;
//! a partial last block runs through the same kernel.
//!
//! Scenario lanes come from one of two sources, through one kernel and
//! one set of overlay composition rules. In-process `&[Scenario]` batches
//! ([`CompiledModel::evaluate_scenarios`]) resolve and compose each lane's
//! overlay inside the worker. A [`CompiledScenarios`] sweep — bound once
//! by [`CompiledModel::bind_scenarios`] or built from resolved
//! [`SlotChange`]s, as the server does per request — holds the composed
//! `(slot, final params)` overlays in flat arrays, so
//! [`CompiledModel::evaluate_bound_scenarios`] only reads them. A bound
//! sweep stores the errors its scenarios would raise and returns them at
//! evaluation, lowest-indexed first, as the in-process path does.
//!
//! Class-resolution failures surface uniformly as
//! [`ModelError::UnknownClass`].

use std::sync::Arc;

use hmdiv_prob::Probability;

use crate::adaptation::AdaptationResponse;
use crate::extrapolate::{Change, Scenario};
use crate::{
    ClassId, ClassParams, ClassUniverse, DemandProfile, DetectionParams, ModelError, ModelParams,
    ParallelDetectionModel,
};

/// Independent scenario evaluations advanced per lane-blocked inner-loop
/// iteration. Eight `f64` lanes fill one 512-bit (or two 256-bit) vector
/// register rows, and a scenario block's strided scratch region stays small
/// (`classes × 8` values).
pub const SCENARIO_LANES: usize = 8;

/// Independent profile evaluations advanced per lane-blocked inner-loop
/// iteration. Profile lanes gather through per-lane index vectors (no
/// shared scratch rows), so a narrower width keeps the working set of
/// four index/weight slice pairs in registers.
pub const PROFILE_LANES: usize = 4;

/// A demand profile resolved against a [`ClassUniverse`]: dense indices plus
/// weights, in the profile's insertion order.
///
/// Binding is the only string work left on an evaluation path; once bound, a
/// profile can be evaluated against any patched state of the same compiled
/// model with pure slice indexing.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProfile {
    universe: Arc<ClassUniverse>,
    indices: Vec<u32>,
    weights: Vec<f64>,
}

impl CompiledProfile {
    /// Resolves a profile's classes against a universe.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] if the profile mentions a class the
    /// universe does not contain.
    pub fn bind(
        universe: &Arc<ClassUniverse>,
        profile: &DemandProfile,
    ) -> Result<Self, ModelError> {
        let mut indices = Vec::with_capacity(profile.len());
        let mut weights = Vec::with_capacity(profile.len());
        for (class, weight) in profile.iter() {
            indices.push(universe.resolve(class.name())?);
            weights.push(weight.value());
        }
        Ok(CompiledProfile {
            universe: Arc::clone(universe),
            indices,
            weights,
        })
    }

    /// The universe this profile is bound to.
    #[must_use]
    pub fn universe(&self) -> &Arc<ClassUniverse> {
        &self.universe
    }

    /// The dense class indices, in profile insertion order.
    #[must_use]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The profile weights, parallel to [`CompiledProfile::indices`].
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of profile entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the profile has no entries (never true for a bound profile).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates `(index, weight)` pairs in profile insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.weights.iter().copied())
    }
}

/// The sequential model compiled to dense per-class storage.
///
/// Holds the exact [`ClassParams`] per universe index (evaluation reuses
/// their methods verbatim) plus struct-of-arrays `f64` mirrors for analyses
/// that consume raw columns (sensitivity gradients, decomposition,
/// importance sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    universe: Arc<ClassUniverse>,
    params: Vec<ClassParams>,
    p_mf: Vec<f64>,
    p_hf_given_ms: Vec<f64>,
    p_hf_given_mf: Vec<f64>,
    /// `PHf(x)` per universe index: exactly the value
    /// `params[i].class_failure().value()` would produce, kept in sync by
    /// [`CompiledModel::patch`]. The lane kernels read this column instead
    /// of re-mixing the conditionals per evaluation.
    class_failure: Vec<f64>,
}

impl CompiledModel {
    /// Compiles a parameter table: interns the class names and lays the
    /// parameters out densely in universe (sorted-name) order.
    ///
    /// Recorded under the `core.compile` span with a
    /// `core.compile.classes` counter when observability is enabled.
    #[must_use]
    pub fn compile(params: &ModelParams) -> Self {
        let span = hmdiv_obs::span("core.compile");
        let universe = Arc::new(ClassUniverse::from_names(params.classes().cloned()));
        let mut dense = Vec::with_capacity(params.len());
        let mut p_mf = Vec::with_capacity(params.len());
        let mut p_hf_given_ms = Vec::with_capacity(params.len());
        let mut p_hf_given_mf = Vec::with_capacity(params.len());
        let mut class_failure = Vec::with_capacity(params.len());
        // `ModelParams::iter` walks the BTreeMap in sorted order, which is
        // exactly the universe's index order — the vectors stay aligned.
        for (_, cp) in params.iter() {
            dense.push(*cp);
            p_mf.push(cp.p_mf().value());
            p_hf_given_ms.push(cp.p_hf_given_ms().value());
            p_hf_given_mf.push(cp.p_hf_given_mf().value());
            class_failure.push(cp.class_failure().value());
        }
        hmdiv_obs::counter_add("core.compile.classes", params.len() as u64);
        drop(span);
        CompiledModel {
            universe,
            params: dense,
            p_mf,
            p_hf_given_ms,
            p_hf_given_mf,
            class_failure,
        }
    }

    /// The interned class universe.
    #[must_use]
    pub fn universe(&self) -> &Arc<ClassUniverse> {
        &self.universe
    }

    /// Number of classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the model has no classes (never true for a compiled table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The parameters at a universe index.
    #[must_use]
    pub fn params_at(&self, index: u32) -> ClassParams {
        self.params[index as usize]
    }

    /// The dense parameter slots in universe order.
    #[must_use]
    pub fn params_slice(&self) -> &[ClassParams] {
        &self.params
    }

    /// `PMf(x)` per universe index.
    #[must_use]
    pub fn p_mf_slice(&self) -> &[f64] {
        &self.p_mf
    }

    /// `PHf|Ms(x)` per universe index.
    #[must_use]
    pub fn p_hf_given_ms_slice(&self) -> &[f64] {
        &self.p_hf_given_ms
    }

    /// `PHf|Mf(x)` per universe index.
    #[must_use]
    pub fn p_hf_given_mf_slice(&self) -> &[f64] {
        &self.p_hf_given_mf
    }

    /// `PHf(x)` per universe index — the class-failure column the lane
    /// kernels read (bit-for-bit `params_at(i).class_failure().value()`).
    #[must_use]
    pub fn class_failure_slice(&self) -> &[f64] {
        &self.class_failure
    }

    /// Binds a demand profile to this model's universe.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] if the profile mentions a class the
    /// model does not cover.
    pub fn bind_profile(&self, profile: &DemandProfile) -> Result<CompiledProfile, ModelError> {
        CompiledProfile::bind(&self.universe, profile)
    }

    /// Eq. (8) over a bound profile — the same sum, in the same order, as
    /// the map-based [`crate::SequentialModel::system_failure`], reading the
    /// precomputed class-failure column.
    #[must_use]
    pub fn system_failure(&self, profile: &CompiledProfile) -> Probability {
        let mut total = 0.0;
        for (idx, w) in profile.iter() {
            total += w * self.class_failure[idx as usize];
        }
        Probability::clamped(total)
    }

    /// The marginal machine failure `PMf = E_x[PMf(x)]` over a bound
    /// profile.
    #[must_use]
    pub fn machine_failure(&self, profile: &CompiledProfile) -> Probability {
        let mut total = 0.0;
        for (idx, w) in profile.iter() {
            total += w * self.params[idx as usize].p_mf().value();
        }
        Probability::clamped(total)
    }

    /// The Bayes-weighted marginal `P(Hf|Ms)` over a bound profile.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFactor`] if `P(Ms) = 0` under the profile.
    pub fn human_failure_given_machine_success(
        &self,
        profile: &CompiledProfile,
    ) -> Result<Probability, ModelError> {
        let mut joint = 0.0;
        let mut marginal = 0.0;
        for (idx, w) in profile.iter() {
            let cp = &self.params[idx as usize];
            joint += w * cp.p_ms().value() * cp.p_hf_given_ms().value();
            marginal += w * cp.p_ms().value();
        }
        if marginal <= 0.0 {
            return Err(ModelError::InvalidFactor {
                value: marginal,
                context: "P(Ms) for conditioning (machine never succeeds under this profile)",
            });
        }
        Ok(Probability::clamped(joint / marginal))
    }

    /// The Bayes-weighted marginal `P(Hf|Mf)` over a bound profile.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFactor`] if `P(Mf) = 0` under the profile.
    pub fn human_failure_given_machine_failure(
        &self,
        profile: &CompiledProfile,
    ) -> Result<Probability, ModelError> {
        let mut joint = 0.0;
        let mut marginal = 0.0;
        for (idx, w) in profile.iter() {
            let cp = &self.params[idx as usize];
            joint += w * cp.p_mf().value() * cp.p_hf_given_mf().value();
            marginal += w * cp.p_mf().value();
        }
        if marginal <= 0.0 {
            return Err(ModelError::InvalidFactor {
                value: marginal,
                context: "P(Mf) for conditioning (machine never fails under this profile)",
            });
        }
        Ok(Probability::clamped(joint / marginal))
    }

    /// Batch evaluation: eq. (8) for each bound profile, lane-blocked
    /// [`PROFILE_LANES`] evaluations at a time with a scalar tail.
    ///
    /// Records `core.compiled.profile_evals` plus the
    /// `core.compiled.lane_blocks` / `core.compiled.lane_tail` kernel
    /// dispatch counters (once per batch).
    #[must_use]
    pub fn evaluate_profiles(&self, profiles: &[CompiledProfile]) -> Vec<Probability> {
        let mut out = Vec::with_capacity(profiles.len());
        let mut blocks = profiles.chunks_exact(PROFILE_LANES);
        for block in &mut blocks {
            out.extend(self.profile_block_failures(block));
        }
        let tail = blocks.remainder();
        out.extend(tail.iter().map(|p| self.system_failure(p)));
        hmdiv_obs::counter_add(
            "core.compiled.lane_blocks",
            (profiles.len() / PROFILE_LANES) as u64,
        );
        hmdiv_obs::counter_add("core.compiled.lane_tail", tail.len() as u64);
        hmdiv_obs::counter_add("core.compiled.profile_evals", profiles.len() as u64);
        out
    }

    /// One full lane block of bound profiles: the first `min(len)` entries
    /// of all lanes advance in a joint loop (one multiply-add per lane per
    /// iteration), then each lane finishes its remaining entries alone.
    /// Every lane accumulates its own entries in its own insertion order —
    /// exactly the scalar [`CompiledModel::system_failure`] order — so the
    /// block is bit-identical to four scalar calls.
    fn profile_block_failures(&self, block: &[CompiledProfile]) -> [Probability; PROFILE_LANES] {
        debug_assert_eq!(block.len(), PROFILE_LANES);
        let joint = block.iter().map(CompiledProfile::len).min().unwrap_or(0);
        let mut acc = [0.0_f64; PROFILE_LANES];
        for j in 0..joint {
            for (a, p) in acc.iter_mut().zip(block) {
                *a += p.weights[j] * self.class_failure[p.indices[j] as usize];
            }
        }
        for (a, p) in acc.iter_mut().zip(block) {
            for j in joint..p.len() {
                *a += p.weights[j] * self.class_failure[p.indices[j] as usize];
            }
        }
        acc.map(Probability::clamped)
    }

    /// [`CompiledModel::evaluate_profiles`] sharded across the
    /// `hmdiv_prob::par` executor: the lane-block index is the task id and
    /// dense result vectors ride the in-order merge, so results are
    /// bit-identical to the sequential batch at every thread count.
    ///
    /// `threads <= 1` (or a batch of fewer than two profiles) falls back to
    /// the sequential path.
    #[must_use]
    pub fn evaluate_profiles_par(
        &self,
        profiles: &[CompiledProfile],
        threads: usize,
    ) -> Vec<Probability> {
        if threads <= 1 || profiles.len() < 2 {
            return self.evaluate_profiles(profiles);
        }
        let blocks = profiles.len().div_ceil(PROFILE_LANES);
        // Pre-size each worker's results for its contiguous share of the
        // batch, so pushes never reallocate mid-run.
        let per_worker = blocks.div_ceil(threads) * PROFILE_LANES;
        let out = hmdiv_prob::par::run_tasks_scoped(
            "core.compiled.batch",
            0,
            blocks as u64,
            threads,
            || Vec::with_capacity(per_worker),
            |id, _rng, acc: &mut Vec<Probability>| {
                let start = id as usize * PROFILE_LANES;
                let block = &profiles[start..profiles.len().min(start + PROFILE_LANES)];
                if block.len() == PROFILE_LANES {
                    acc.extend(self.profile_block_failures(block));
                } else {
                    acc.extend(block.iter().map(|p| self.system_failure(p)));
                }
            },
        );
        hmdiv_obs::counter_add(
            "core.compiled.lane_blocks",
            (profiles.len() / PROFILE_LANES) as u64,
        );
        hmdiv_obs::counter_add(
            "core.compiled.lane_tail",
            (profiles.len() % PROFILE_LANES) as u64,
        );
        hmdiv_obs::counter_add("core.compiled.profile_evals", profiles.len() as u64);
        out
    }

    /// Batch evaluation: applies each scenario to the dense slots (batch
    /// patch/restore — the baseline is never cloned as a map) and evaluates
    /// eq. (8) under the bound profile, lane-blocked [`SCENARIO_LANES`]
    /// scenarios at a time. A block's scenarios are multi-patched into a
    /// strided scratch region and evaluated by one fused pass; see
    /// `LaneScratch`. Each lane composes its scenario's overlay as the
    /// block reaches it — no separate binding pass.
    ///
    /// Records `core.compiled.scenario_evals` plus the
    /// `core.compiled.lane_blocks` / `core.compiled.lane_tail` kernel
    /// dispatch counters (once per batch, on success).
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownClass`] if a change targets a class outside
    ///   the universe.
    /// * [`ModelError::InvalidFactor`] for invalid factors/strengths.
    pub fn evaluate_scenarios(
        &self,
        scenarios: &[Scenario],
        profile: &CompiledProfile,
    ) -> Result<Vec<Probability>, ModelError> {
        self.evaluate_lanes(scenarios, profile, 1)
    }

    /// [`CompiledModel::evaluate_scenarios`] sharded across the
    /// `hmdiv_prob::par` executor: the lane-block index is the task id,
    /// each worker keeps one private `LaneScratch`, and per-scenario
    /// results ride the in-order merge — bit-identical to the sequential
    /// batch at every thread count, including which error surfaces first
    /// (blocks run in task order; lanes within a block in scenario order).
    ///
    /// `threads <= 1` (or a batch of fewer than two scenarios) falls back
    /// to the sequential path.
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::evaluate_scenarios`]; when several scenarios are
    /// invalid, the error of the lowest-indexed one is returned, matching
    /// the sequential fail-fast order.
    pub fn evaluate_scenarios_par(
        &self,
        scenarios: &[Scenario],
        profile: &CompiledProfile,
        threads: usize,
    ) -> Result<Vec<Probability>, ModelError> {
        self.evaluate_lanes(scenarios, profile, threads)
    }

    /// Binds a scenario sweep to this model: every scenario's classes are
    /// resolved and its overlay composed once, so evaluation reads flat
    /// slot overlays. Errors are stored in the sweep, not returned; see
    /// [`CompiledScenarios`].
    #[must_use]
    pub fn bind_scenarios(&self, scenarios: &[Scenario]) -> CompiledScenarios {
        let mut sweep = CompiledScenarios::with_capacity(self, scenarios.len());
        for scenario in scenarios {
            sweep.push(self, self.slot_changes(scenario), || scenario.clone());
        }
        sweep
    }

    /// Evaluates a sweep bound to this model — the same kernel, counters
    /// and results, bit for bit, as [`CompiledModel::evaluate_scenarios_par`]
    /// over the scenarios the sweep was bound from, at any `threads`.
    ///
    /// # Errors
    ///
    /// The error stored for, or raised by, the lowest-indexed failing
    /// scenario — the one [`CompiledModel::evaluate_scenarios`] returns.
    ///
    /// # Panics
    ///
    /// If the sweep was bound to a model with a different universe.
    pub fn evaluate_bound_scenarios(
        &self,
        sweep: &CompiledScenarios,
        profile: &CompiledProfile,
        threads: usize,
    ) -> Result<Vec<Probability>, ModelError> {
        assert!(
            Arc::ptr_eq(&sweep.universe, &self.universe),
            "a bound sweep is evaluated on the model that bound it"
        );
        self.evaluate_lanes(sweep, profile, threads)
    }

    /// The one loop behind every scenario batch: lane blocks in order on
    /// one scratch, or sharded over `hmdiv_prob::par` with the block index
    /// as the task id. The last block may be partial; its unused lanes
    /// evaluate the baseline and are dropped.
    fn evaluate_lanes<S: LaneSource + Sync + ?Sized>(
        &self,
        src: &S,
        profile: &CompiledProfile,
        threads: usize,
    ) -> Result<Vec<Probability>, ModelError> {
        let n = src.count();
        let blocks = n.div_ceil(SCENARIO_LANES);
        let used = |start: usize| (n - start).min(SCENARIO_LANES);
        let out = if threads <= 1 || n < 2 {
            let mut lanes = LaneScratch::for_model(self);
            let mut out = Vec::with_capacity(n);
            for start in (0..n).step_by(SCENARIO_LANES) {
                let block = self.lane_block(src, start, profile, &mut lanes)?;
                out.extend_from_slice(&block[..used(start)]);
            }
            out
        } else {
            /// Per-worker accumulator: the lane scratch is worker-private
            /// working state and deliberately not merged; the results and
            /// the worker's first error ride the in-order merge.
            struct Shard {
                lanes: LaneScratch,
                out: Vec<Probability>,
                err: Option<ModelError>,
            }
            impl hmdiv_prob::par::Merge for Shard {
                fn merge(&mut self, later: Self) {
                    self.out.merge(later.out);
                    // Workers hold contiguous blocks in task order, so the
                    // earlier worker's error is the lower-indexed one.
                    if self.err.is_none() {
                        self.err = later.err;
                    }
                }
            }
            // Pre-size each worker's results for its contiguous share.
            let per_worker = blocks.div_ceil(threads) * SCENARIO_LANES;
            let shard = hmdiv_prob::par::run_tasks_scoped(
                "core.compiled.batch",
                0,
                blocks as u64,
                threads,
                || Shard {
                    lanes: LaneScratch::for_model(self),
                    out: Vec::with_capacity(per_worker),
                    err: None,
                },
                |id, _rng, acc| {
                    // After an error, this worker's later blocks cannot
                    // surface first.
                    if acc.err.is_some() {
                        return;
                    }
                    let start = id as usize * SCENARIO_LANES;
                    match self.lane_block(src, start, profile, &mut acc.lanes) {
                        Ok(block) => acc.out.extend_from_slice(&block[..used(start)]),
                        Err(e) => acc.err = Some(e),
                    }
                },
            );
            if let Some(e) = shard.err {
                return Err(e);
            }
            shard.out
        };
        hmdiv_obs::counter_add("core.compiled.lane_blocks", (n / SCENARIO_LANES) as u64);
        hmdiv_obs::counter_add("core.compiled.lane_tail", (n % SCENARIO_LANES) as u64);
        hmdiv_obs::counter_add("core.compiled.scenario_evals", n as u64);
        Ok(out)
    }

    /// Evaluates one lane block — the scenarios of `src` from `start`, at
    /// most [`SCENARIO_LANES`] — against a bound profile.
    ///
    /// The multi-patch sweep first broadcasts the baseline class-failure
    /// column across every lane of the rows the profile reads, then each
    /// lane overwrites only the cells its scenario changes: a sparse
    /// overlay (no baseline copy, no per-slot adaptation pass) when the
    /// source yields one, else the general
    /// [`CompiledModel::apply_scenario_into`] path. One fused pass then
    /// walks the profile once, advancing all lanes per entry.
    ///
    /// Lanes are independent evaluations: each lane's additions happen in
    /// its own profile order, so every lane is bit-identical to a scalar
    /// eq. (8) over the scenario's patched slots.
    ///
    /// # Errors
    ///
    /// The lowest-indexed lane's error, matching sequential fail-fast
    /// order.
    fn lane_block<S: LaneSource + ?Sized>(
        &self,
        src: &S,
        start: usize,
        profile: &CompiledProfile,
        lanes: &mut LaneScratch,
    ) -> Result<[Probability; SCENARIO_LANES], ModelError> {
        for &idx in profile.indices() {
            let i = idx as usize;
            lanes.cf_block[i * SCENARIO_LANES..][..SCENARIO_LANES].fill(self.class_failure[i]);
        }
        for lane in 0..(src.count() - start).min(SCENARIO_LANES) {
            match src.lane(self, start + lane, &mut lanes.overlay)? {
                Lane::Overlay(entries) => {
                    for &(slot, cp) in entries {
                        lanes.cf_block[slot as usize * SCENARIO_LANES + lane] =
                            cp.class_failure().value();
                    }
                }
                Lane::General(scenario) => {
                    self.apply_scenario_into(scenario, &mut lanes.scratch)?;
                    for &idx in profile.indices() {
                        let i = idx as usize;
                        lanes.cf_block[i * SCENARIO_LANES + lane] =
                            lanes.scratch[i].class_failure().value();
                    }
                }
            }
        }
        let mut acc = [0.0_f64; SCENARIO_LANES];
        for (idx, w) in profile.iter() {
            let row = &lanes.cf_block[idx as usize * SCENARIO_LANES..][..SCENARIO_LANES];
            for (a, &cf) in acc.iter_mut().zip(row) {
                *a += w * cf;
            }
        }
        Ok(acc.map(Probability::clamped))
    }

    /// A scenario's changes as the overlay rules read them, each class
    /// resolved when the rules reach it. An adaptation response other than
    /// [`AdaptationResponse::None`] leads with a whole-table step: only
    /// `None` is a proven identity, so only then may the per-slot pass be
    /// skipped.
    fn slot_changes<'s>(
        &'s self,
        scenario: &'s Scenario,
    ) -> impl Iterator<Item = Result<SlotChange, ModelError>> + 's {
        let adapts = !matches!(scenario.adaptation(), AdaptationResponse::None);
        let slot = move |class: &ClassId| self.universe.resolve(class.name());
        adapts
            .then_some(Ok(SlotChange::WholeTable))
            .into_iter()
            .chain(scenario.changes().iter().map(move |change| {
                Ok(match change {
                    Change::ImproveMachine { class, factor } => SlotChange::ImproveMachine {
                        slot: slot(class)?,
                        factor: *factor,
                    },
                    Change::SetMachineFailure { class, p_mf } => SlotChange::SetMachineFailure {
                        slot: slot(class)?,
                        p_mf: *p_mf,
                    },
                    Change::SetReader {
                        class,
                        p_hf_given_ms,
                        p_hf_given_mf,
                    } => SlotChange::SetReader {
                        slot: slot(class)?,
                        p_hf_given_ms: *p_hf_given_ms,
                        p_hf_given_mf: *p_hf_given_mf,
                    },
                    Change::ImproveMachineEverywhere { .. }
                    | Change::ScaleReaderEverywhere { .. } => SlotChange::WholeTable,
                })
            }))
    }

    /// The overlay composition rules, shared by both lane sources: appends
    /// one scenario's `(slot, final params)` entries to `overlay`, with
    /// successive changes to one slot composing in order, as they do on
    /// the scratch copy in the general path. Returns `Ok(false)` — the
    /// appended entries unspecified — at the first whole-table step.
    /// Errors surface in change order, exactly as
    /// [`CompiledModel::apply_scenario_into`] raises them; a whole-table
    /// step stops *before* later changes are resolved or validated, so the
    /// general pass re-raises errors in the original order.
    // Forced: an in-process lane calls this once per scenario inside the
    // block kernel; left to the optimizer, the 8-class `compiled_core`
    // sweep slowed from ~60 to ~97 µs.
    #[inline(always)]
    fn compose_overlay(
        &self,
        changes: impl IntoIterator<Item = Result<SlotChange, ModelError>>,
        overlay: &mut Vec<(u32, ClassParams)>,
    ) -> Result<bool, ModelError> {
        let from = overlay.len();
        // A slot's value under the entries composed so far.
        let base = |overlay: &[(u32, ClassParams)], slot: u32| {
            overlay[from..]
                .iter()
                .find(|(s, _)| *s == slot)
                .map_or(self.params[slot as usize], |(_, cp)| *cp)
        };
        for change in changes {
            let (slot, updated) = match change? {
                SlotChange::ImproveMachine { slot, factor } => {
                    (slot, base(overlay, slot).with_machine_improved(factor)?)
                }
                SlotChange::SetMachineFailure { slot, p_mf } => {
                    (slot, base(overlay, slot).with_p_mf(p_mf))
                }
                SlotChange::SetReader {
                    slot,
                    p_hf_given_ms,
                    p_hf_given_mf,
                } => (
                    slot,
                    base(overlay, slot).with_reader(p_hf_given_ms, p_hf_given_mf),
                ),
                SlotChange::WholeTable => return Ok(false),
            };
            match overlay[from..].iter_mut().find(|(s, _)| *s == slot) {
                Some(entry) => entry.1 = updated,
                None => overlay.push((slot, updated)),
            }
        }
        Ok(true)
    }

    /// Applies a scenario's changes (and adaptation) to `scratch`, which is
    /// reset to this model's baseline first. Slot-for-slot the same
    /// transformations as [`Scenario::apply`], without building maps.
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::evaluate_scenarios`].
    pub fn apply_scenario_into(
        &self,
        scenario: &Scenario,
        scratch: &mut Vec<ClassParams>,
    ) -> Result<(), ModelError> {
        scenario.adaptation().validate()?;
        scratch.clear();
        scratch.extend_from_slice(&self.params);
        for change in scenario.changes() {
            match change {
                Change::ImproveMachine { class, factor } => {
                    let i = self.universe.resolve(class.name())? as usize;
                    scratch[i] = scratch[i].with_machine_improved(*factor)?;
                }
                Change::ImproveMachineEverywhere { factor } => {
                    for cp in scratch.iter_mut() {
                        *cp = cp.with_machine_improved(*factor)?;
                    }
                }
                Change::SetMachineFailure { class, p_mf } => {
                    let i = self.universe.resolve(class.name())? as usize;
                    scratch[i] = scratch[i].with_p_mf(*p_mf);
                }
                Change::SetReader {
                    class,
                    p_hf_given_ms,
                    p_hf_given_mf,
                } => {
                    let i = self.universe.resolve(class.name())? as usize;
                    scratch[i] = scratch[i].with_reader(*p_hf_given_ms, *p_hf_given_mf);
                }
                Change::ScaleReaderEverywhere { factor } => {
                    if factor.is_nan() || *factor < 0.0 || factor.is_infinite() {
                        return Err(ModelError::InvalidFactor {
                            value: *factor,
                            context: "reader scale factor",
                        });
                    }
                    for cp in scratch.iter_mut() {
                        *cp = cp.with_reader(
                            Probability::clamped(cp.p_hf_given_ms().value() * factor),
                            Probability::clamped(cp.p_hf_given_mf().value() * factor),
                        );
                    }
                }
            }
        }
        // Indirect effects: the reader adapts to the machine change,
        // referenced against the *baseline* machine parameters — the same
        // pass `Scenario::apply` makes over the map in sorted order.
        for (i, cp) in scratch.iter_mut().enumerate() {
            *cp = scenario.adaptation().apply(self.params[i].p_mf(), cp)?;
        }
        Ok(())
    }

    /// Replaces one class slot in place, returning the previous parameters
    /// (hand them back to [`CompiledModel::restore`] to undo). Keeps the
    /// struct-of-arrays mirrors in sync.
    pub fn patch(&mut self, index: u32, params: ClassParams) -> ClassParams {
        let i = index as usize;
        let old = self.params[i];
        self.params[i] = params;
        self.p_mf[i] = params.p_mf().value();
        self.p_hf_given_ms[i] = params.p_hf_given_ms().value();
        self.p_hf_given_mf[i] = params.p_hf_given_mf().value();
        self.class_failure[i] = params.class_failure().value();
        old
    }

    /// Undoes a [`CompiledModel::patch`] by re-patching the saved slot.
    pub fn restore(&mut self, index: u32, params: ClassParams) {
        self.patch(index, params);
    }

    /// Eq. (8) with one class slot temporarily replaced — patch, evaluate,
    /// restore, without mutating `self` (the override is applied inline).
    #[must_use]
    pub fn system_failure_patched(
        &self,
        profile: &CompiledProfile,
        index: u32,
        params: ClassParams,
    ) -> Probability {
        let patched = params.class_failure().value();
        let mut total = 0.0;
        for (idx, w) in profile.iter() {
            let cf = if idx == index {
                patched
            } else {
                self.class_failure[idx as usize]
            };
            total += w * cf;
        }
        Probability::clamped(total)
    }

    /// Eq. (8) for a batch of single-slot candidate patches — the design
    /// sweep's inner loop, lane-blocked [`SCENARIO_LANES`] candidates at a
    /// time. Each lane selects between its candidate's class-failure value
    /// and the baseline column per profile entry, so every lane is
    /// bit-identical to [`CompiledModel::system_failure_patched`] (the
    /// scalar tail).
    ///
    /// Records the `core.compiled.lane_blocks` / `core.compiled.lane_tail`
    /// kernel dispatch counters (once per batch).
    #[must_use]
    pub fn system_failure_patched_batch(
        &self,
        profile: &CompiledProfile,
        candidates: &[(u32, ClassParams)],
    ) -> Vec<Probability> {
        let mut out = Vec::with_capacity(candidates.len());
        let mut blocks = candidates.chunks_exact(SCENARIO_LANES);
        for block in &mut blocks {
            let mut cand_idx = [0_u32; SCENARIO_LANES];
            let mut cand_cf = [0.0_f64; SCENARIO_LANES];
            for (lane, (i, cp)) in block.iter().enumerate() {
                cand_idx[lane] = *i;
                cand_cf[lane] = cp.class_failure().value();
            }
            let mut acc = [0.0_f64; SCENARIO_LANES];
            for (idx, w) in profile.iter() {
                let base = self.class_failure[idx as usize];
                for lane in 0..SCENARIO_LANES {
                    let cf = if cand_idx[lane] == idx {
                        cand_cf[lane]
                    } else {
                        base
                    };
                    acc[lane] += w * cf;
                }
            }
            out.extend(acc.map(Probability::clamped));
        }
        let tail = blocks.remainder();
        out.extend(
            tail.iter()
                .map(|(i, cp)| self.system_failure_patched(profile, *i, *cp)),
        );
        hmdiv_obs::counter_add(
            "core.compiled.lane_blocks",
            (candidates.len() / SCENARIO_LANES) as u64,
        );
        hmdiv_obs::counter_add("core.compiled.lane_tail", tail.len() as u64);
        out
    }

    /// Materialises the current slots back into a map-based table (e.g. to
    /// hand a patched model to callers of the map-based API).
    #[must_use]
    pub fn to_model_params(&self) -> ModelParams {
        let mut builder = ModelParams::builder();
        for (class, cp) in self.universe.iter().zip(&self.params) {
            builder = builder.class(class.clone(), *cp);
        }
        builder
            .build()
            .expect("a compiled model is non-empty with unique interned classes")
    }
}

/// Reusable scratch for the lane-blocked scenario kernels.
///
/// `cf_block` is the strided multi-patch region: `classes ×
/// SCENARIO_LANES` class-failure values laid out `[class][lane]`, so the
/// fused evaluation pass loads one contiguous lane-wide row per profile
/// entry. `scratch` holds a full baseline copy for general-path lanes
/// (whole-table changes or adaptation); `overlay` the `(slot, params)`
/// pairs an in-process lane composes.
struct LaneScratch {
    scratch: Vec<ClassParams>,
    overlay: Vec<(u32, ClassParams)>,
    cf_block: Vec<f64>,
}

impl LaneScratch {
    fn for_model(model: &CompiledModel) -> Self {
        LaneScratch {
            scratch: Vec::with_capacity(model.params.len()),
            overlay: Vec::new(),
            cf_block: vec![0.0; model.params.len() * SCENARIO_LANES],
        }
    }
}

/// What one lane of a block evaluates.
enum Lane<'a> {
    /// Final parameters for the slots the scenario changes.
    Overlay(&'a [(u32, ClassParams)]),
    /// A scenario for the general path.
    General(&'a Scenario),
}

/// Where the lanes of the scenario kernel come from.
trait LaneSource {
    /// Number of scenarios.
    fn count(&self) -> usize;

    /// Scenario `k` as a lane. `overlay` is worker scratch a source may
    /// compose into.
    fn lane<'a>(
        &'a self,
        model: &CompiledModel,
        k: usize,
        overlay: &'a mut Vec<(u32, ClassParams)>,
    ) -> Result<Lane<'a>, ModelError>;
}

/// In-process scenarios compose each lane's overlay inside the worker,
/// with no intermediate bind.
impl LaneSource for [Scenario] {
    fn count(&self) -> usize {
        self.len()
    }

    // Forced for the reason given on `compose_overlay`.
    #[inline(always)]
    fn lane<'a>(
        &'a self,
        model: &CompiledModel,
        k: usize,
        overlay: &'a mut Vec<(u32, ClassParams)>,
    ) -> Result<Lane<'a>, ModelError> {
        let scenario = &self[k];
        overlay.clear();
        Ok(
            if model.compose_overlay(model.slot_changes(scenario), overlay)? {
                Lane::Overlay(overlay)
            } else {
                Lane::General(scenario)
            },
        )
    }
}

/// A bound sweep hands out what binding composed.
impl LaneSource for CompiledScenarios {
    fn count(&self) -> usize {
        self.bound.len()
    }

    fn lane<'a>(
        &'a self,
        _model: &CompiledModel,
        k: usize,
        _overlay: &'a mut Vec<(u32, ClassParams)>,
    ) -> Result<Lane<'a>, ModelError> {
        match self.bound[k] {
            Bound::Overlay { start, end } => Ok(Lane::Overlay(&self.overlay[start..end])),
            Bound::General(i) => Ok(Lane::General(&self.general[i])),
            Bound::Failed(i) => Err(self.errors[i].clone()),
        }
    }
}

/// One scenario change with its class resolved to a universe slot — the
/// form the overlay composition rules read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotChange {
    /// Divide `PMf` by `factor >= 1` on one slot.
    ImproveMachine {
        /// The universe index.
        slot: u32,
        /// The division factor.
        factor: f64,
    },
    /// Set `PMf` on one slot.
    SetMachineFailure {
        /// The universe index.
        slot: u32,
        /// The new machine failure probability.
        p_mf: Probability,
    },
    /// Replace both reader conditionals on one slot.
    SetReader {
        /// The universe index.
        slot: u32,
        /// New `PHf|Ms`.
        p_hf_given_ms: Probability,
        /// New `PHf|Mf`.
        p_hf_given_mf: Probability,
    },
    /// A change to every slot, or an adaptation response: the scenario
    /// takes the general path.
    WholeTable,
}

/// How one scenario of a [`CompiledScenarios`] is held.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    /// `overlay[start..end]`.
    Overlay { start: usize, end: usize },
    /// `general[i]`.
    General(usize),
    /// `errors[i]`.
    Failed(usize),
}

/// A scenario sweep bound to one [`CompiledModel`] — the scenario
/// counterpart of [`CompiledProfile`], built by
/// [`CompiledModel::bind_scenarios`] or [`CompiledScenarios::push`] and
/// evaluated by [`CompiledModel::evaluate_bound_scenarios`].
///
/// Each scenario is held in flat arrays as one of:
///
/// * a run of `(slot, final ClassParams)` overlay entries, changes to one
///   class composed in order — when it has only targeted changes and no
///   adaptation;
/// * the whole [`Scenario`], kept for the general path;
/// * the first [`ModelError`] evaluating it would raise.
///
/// Errors are stored, not returned, so they surface at evaluation,
/// lowest-indexed scenario first, as [`CompiledModel::evaluate_scenarios`]
/// raises them. The overlay holds the binding model's parameters: a sweep
/// is evaluated only on the model that bound it.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenarios {
    universe: Arc<ClassUniverse>,
    bound: Vec<Bound>,
    overlay: Vec<(u32, ClassParams)>,
    general: Vec<Scenario>,
    errors: Vec<ModelError>,
}

impl CompiledScenarios {
    /// An empty sweep bound to `model`, with room for `scenarios`
    /// single-change scenarios.
    #[must_use]
    pub fn with_capacity(model: &CompiledModel, scenarios: usize) -> Self {
        CompiledScenarios {
            universe: Arc::clone(&model.universe),
            bound: Vec::with_capacity(scenarios),
            overlay: Vec::with_capacity(scenarios),
            general: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Appends one scenario given as resolved changes, in order; a
    /// resolution failure is an `Err` item where the change stands. The
    /// changes run through the overlay composition rules; `whole` builds
    /// the full [`Scenario`] only when they send it down the general path.
    ///
    /// # Panics
    ///
    /// If `model` is not the model this sweep is bound to, or a slot lies
    /// outside its universe.
    pub fn push(
        &mut self,
        model: &CompiledModel,
        changes: impl IntoIterator<Item = Result<SlotChange, ModelError>>,
        whole: impl FnOnce() -> Scenario,
    ) {
        assert!(
            Arc::ptr_eq(&self.universe, &model.universe),
            "a sweep is bound to one model"
        );
        let start = self.overlay.len();
        let bound = match model.compose_overlay(changes, &mut self.overlay) {
            Ok(true) => Bound::Overlay {
                start,
                end: self.overlay.len(),
            },
            Ok(false) => {
                self.overlay.truncate(start);
                self.general.push(whole());
                Bound::General(self.general.len() - 1)
            }
            Err(e) => {
                self.overlay.truncate(start);
                self.errors.push(e);
                Bound::Failed(self.errors.len() - 1)
            }
        };
        self.bound.push(bound);
    }

    /// Number of scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bound.len()
    }

    /// Whether the sweep holds no scenarios.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }
}

/// The §3 parallel-detection model compiled to dense per-class storage.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDetectionModel {
    universe: Arc<ClassUniverse>,
    params: Vec<DetectionParams>,
}

impl CompiledDetectionModel {
    /// Compiles a parallel-detection table (see [`CompiledModel::compile`]).
    #[must_use]
    pub fn compile(model: &ParallelDetectionModel) -> Self {
        let span = hmdiv_obs::span("core.compile");
        let universe = Arc::new(ClassUniverse::from_names(
            model.iter().map(|(c, _)| c.clone()),
        ));
        let params = model.iter().map(|(_, dp)| *dp).collect();
        hmdiv_obs::counter_add("core.compile.classes", model.len() as u64);
        drop(span);
        CompiledDetectionModel { universe, params }
    }

    /// The interned class universe.
    #[must_use]
    pub fn universe(&self) -> &Arc<ClassUniverse> {
        &self.universe
    }

    /// The parameters at a universe index.
    #[must_use]
    pub fn params_at(&self, index: u32) -> DetectionParams {
        self.params[index as usize]
    }

    /// Binds a demand profile to this model's universe.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] if the profile mentions a class the
    /// model does not cover.
    pub fn bind_profile(&self, profile: &DemandProfile) -> Result<CompiledProfile, ModelError> {
        CompiledProfile::bind(&self.universe, profile)
    }

    /// Eq. (1) aggregated over a bound profile — same order and the same
    /// `DetectionParams::class_failure` calls as the map-based path.
    #[must_use]
    pub fn system_failure(&self, profile: &CompiledProfile) -> Probability {
        let mut total = 0.0;
        for (idx, w) in profile.iter() {
            total += w * self.params[idx as usize].class_failure().value();
        }
        Probability::clamped(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn compile_aligns_universe_and_slots() {
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        assert_eq!(compiled.len(), 2);
        for (i, class) in compiled.universe().iter().enumerate() {
            let cp = model.params().class(class).unwrap();
            assert_eq!(compiled.params_at(i as u32), *cp);
            assert_eq!(compiled.p_mf_slice()[i], cp.p_mf().value());
            assert_eq!(
                compiled.p_hf_given_ms_slice()[i],
                cp.p_hf_given_ms().value()
            );
            assert_eq!(
                compiled.p_hf_given_mf_slice()[i],
                cp.p_hf_given_mf().value()
            );
            assert_eq!(
                compiled.class_failure_slice()[i],
                cp.class_failure().value()
            );
        }
    }

    #[test]
    fn system_failure_bit_identical_to_map_walk() {
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        for profile in [
            paper::trial_profile().unwrap(),
            paper::field_profile().unwrap(),
        ] {
            let bound = compiled.bind_profile(&profile).unwrap();
            // The pre-compilation reference: walk the map in profile order.
            let mut total = 0.0;
            for (class, weight) in profile.iter() {
                total +=
                    weight.value() * model.params().class(class).unwrap().class_failure().value();
            }
            let reference = Probability::clamped(total);
            assert_eq!(
                compiled.system_failure(&bound).value().to_bits(),
                reference.value().to_bits()
            );
        }
    }

    #[test]
    fn bind_rejects_unknown_class() {
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        let odd = DemandProfile::builder().class("odd", 1.0).build().unwrap();
        assert!(matches!(
            compiled.bind_profile(&odd),
            Err(ModelError::UnknownClass { class }) if class.name() == "odd"
        ));
    }

    #[test]
    fn patch_restore_round_trips() {
        let model = paper::example_model().unwrap();
        let mut compiled = CompiledModel::compile(model.params());
        let pristine = compiled.clone();
        let field = paper::field_profile().unwrap();
        let bound = compiled.bind_profile(&field).unwrap();
        let baseline = compiled.system_failure(&bound);

        let idx = compiled.universe().resolve("difficult").unwrap();
        let improved = compiled.params_at(idx).with_machine_improved(10.0).unwrap();
        let old = compiled.patch(idx, improved);
        let patched = compiled.system_failure(&bound);
        assert!(patched < baseline);
        assert!(
            (patched.value() - paper::published::FIELD_FAILURE_IMPROVED_DIFFICULT).abs() < 1e-9
        );
        compiled.restore(idx, old);
        assert_eq!(compiled, pristine);
        assert_eq!(
            compiled.system_failure(&bound).value().to_bits(),
            baseline.value().to_bits()
        );
        // The non-mutating variant agrees with patch/evaluate/restore.
        assert_eq!(
            compiled
                .system_failure_patched(&bound, idx, improved)
                .value()
                .to_bits(),
            patched.value().to_bits()
        );
    }

    #[test]
    fn scenario_batch_matches_map_based_apply() {
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        let field = paper::field_profile().unwrap();
        let bound = compiled.bind_profile(&field).unwrap();
        let scenarios = vec![
            Scenario::new(),
            Scenario::new().improve_machine(ClassId::new("easy"), 10.0),
            Scenario::new().improve_machine(ClassId::new("difficult"), 10.0),
            Scenario::new().improve_machine_everywhere(2.0),
            Scenario::new().scale_reader_everywhere(1.5),
        ];
        let batch = compiled.evaluate_scenarios(&scenarios, &bound).unwrap();
        for (scenario, got) in scenarios.iter().zip(&batch) {
            let reference = scenario
                .apply(&model)
                .unwrap()
                .system_failure(&field)
                .unwrap();
            assert_eq!(got.value().to_bits(), reference.value().to_bits());
        }
    }

    #[test]
    fn scenario_unknown_class_is_typed() {
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        let field = paper::field_profile().unwrap();
        let bound = compiled.bind_profile(&field).unwrap();
        let ghost = vec![Scenario::new().improve_machine(ClassId::new("ghost"), 10.0)];
        assert!(matches!(
            compiled.evaluate_scenarios(&ghost, &bound),
            Err(ModelError::UnknownClass { class }) if class.name() == "ghost"
        ));
    }

    #[test]
    fn evaluate_profiles_batches() {
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        let bound: Vec<CompiledProfile> = [
            paper::trial_profile().unwrap(),
            paper::field_profile().unwrap(),
        ]
        .iter()
        .map(|p| compiled.bind_profile(p).unwrap())
        .collect();
        let out = compiled.evaluate_profiles(&bound);
        assert!((out[0].value() - 0.23524).abs() < 1e-9);
        assert!((out[1].value() - 0.18902).abs() < 1e-9);
    }

    #[test]
    fn par_batches_bit_identical_at_any_thread_count() {
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        let bound: Vec<CompiledProfile> = [
            paper::trial_profile().unwrap(),
            paper::field_profile().unwrap(),
        ]
        .iter()
        .map(|p| compiled.bind_profile(p).unwrap())
        .collect();
        let field = bound[1].clone();
        let scenarios: Vec<Scenario> = (0..40)
            .map(|i| {
                Scenario::new().improve_machine(
                    ClassId::new(if i % 2 == 0 { "easy" } else { "difficult" }),
                    1.5 + f64::from(i) * 0.1,
                )
            })
            .collect();
        let seq_profiles = compiled.evaluate_profiles(&bound);
        let seq_scenarios = compiled.evaluate_scenarios(&scenarios, &field).unwrap();
        for threads in [1usize, 2, 7] {
            let par_profiles = compiled.evaluate_profiles_par(&bound, threads);
            let par_scenarios = compiled
                .evaluate_scenarios_par(&scenarios, &field, threads)
                .unwrap();
            for (a, b) in seq_profiles.iter().zip(&par_profiles) {
                assert_eq!(
                    a.value().to_bits(),
                    b.value().to_bits(),
                    "threads={threads}"
                );
            }
            for (a, b) in seq_scenarios.iter().zip(&par_scenarios) {
                assert_eq!(
                    a.value().to_bits(),
                    b.value().to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_scenarios_report_lowest_indexed_error() {
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        let field = paper::field_profile().unwrap();
        let bound = compiled.bind_profile(&field).unwrap();
        let mut scenarios: Vec<Scenario> = (0..10)
            .map(|_| Scenario::new().improve_machine(ClassId::new("easy"), 2.0))
            .collect();
        scenarios[7] = Scenario::new().improve_machine(ClassId::new("late-ghost"), 2.0);
        scenarios[3] = Scenario::new().improve_machine(ClassId::new("early-ghost"), 2.0);
        let sequential = compiled.evaluate_scenarios(&scenarios, &bound);
        for threads in [2usize, 7] {
            let par = compiled.evaluate_scenarios_par(&scenarios, &bound, threads);
            assert_eq!(par, sequential, "threads={threads}");
            assert!(matches!(
                par,
                Err(ModelError::UnknownClass { ref class }) if class.name() == "early-ghost"
            ));
        }
    }

    #[test]
    fn round_trip_to_model_params() {
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        assert_eq!(&compiled.to_model_params(), model.params());
    }

    #[test]
    fn profile_subset_of_universe_is_fine() {
        // The profile may use fewer classes than the model knows.
        let model = paper::example_model().unwrap();
        let compiled = CompiledModel::compile(model.params());
        let only_easy = DemandProfile::builder().class("easy", 1.0).build().unwrap();
        let bound = compiled.bind_profile(&only_easy).unwrap();
        assert_eq!(bound.len(), 1);
        assert!(!bound.is_empty());
        assert!((compiled.system_failure(&bound).value() - 0.1428).abs() < 1e-12);
    }
}
