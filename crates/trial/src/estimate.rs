//! Parameter estimation from trial tables.
//!
//! For each class of cancer cases the trial yields a 2×2 table of (machine,
//! human) outcomes; the estimators produce the sequential model's parameter
//! triple with confidence intervals, and optionally full Beta posteriors for
//! uncertainty propagation.

use hmdiv_core::interval::{ClassParamBox, IntervalModel};
use hmdiv_core::uncertainty::{ClassPosterior, ModelPosterior};
use hmdiv_core::{
    ClassId, ClassParams, ClassUniverse, DemandProfile, ModelParams, SequentialModel,
};
use hmdiv_prob::counts::{JointCounts, StratifiedCounts};
use hmdiv_prob::estimate::{BinomialEstimate, CiMethod, ConfidenceInterval};

use crate::run::TrialData;
use crate::TrialError;

/// One class's estimated parameter triple with confidence intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassEstimate {
    /// The class.
    pub class: ClassId,
    /// Cases observed in this class.
    pub cases: u64,
    /// Point estimates as a [`ClassParams`].
    pub point: ClassParams,
    /// Interval for `PMf(x)`.
    pub p_mf_ci: ConfidenceInterval,
    /// Interval for `PHf|Ms(x)`.
    pub p_hf_given_ms_ci: ConfidenceInterval,
    /// Interval for `PHf|Mf(x)`.
    pub p_hf_given_mf_ci: ConfidenceInterval,
}

impl ClassEstimate {
    /// The estimated coherence index `t̂(x)` with a conservative interval
    /// obtained by differencing the component bounds.
    #[must_use]
    pub fn coherence_index(&self) -> (f64, f64, f64) {
        let point = self.point.coherence_index();
        let lo = self.p_hf_given_mf_ci.lo().value() - self.p_hf_given_ms_ci.hi().value();
        let hi = self.p_hf_given_mf_ci.hi().value() - self.p_hf_given_ms_ci.lo().value();
        (lo, point, hi)
    }

    /// This class's confidence intervals as a parameter box for
    /// interval-arithmetic propagation
    /// ([`hmdiv_core::interval::IntervalModel`]).
    #[must_use]
    pub fn param_box(&self) -> ClassParamBox {
        ClassParamBox {
            p_mf: (self.p_mf_ci.lo(), self.p_mf_ci.hi()),
            p_hf_given_ms: (self.p_hf_given_ms_ci.lo(), self.p_hf_given_ms_ci.hi()),
            p_hf_given_mf: (self.p_hf_given_mf_ci.lo(), self.p_hf_given_mf_ci.hi()),
        }
    }
}

/// Estimates one class's parameters from its 2×2 table.
///
/// # Errors
///
/// [`TrialError::Inestimable`] naming the parameter whose margin is empty.
pub fn estimate_class(
    class: &ClassId,
    table: &JointCounts,
    method: CiMethod,
    level: f64,
) -> Result<ClassEstimate, TrialError> {
    let inest = |parameter: &'static str| TrialError::Inestimable {
        class: class.name().to_owned(),
        parameter,
    };
    let p_mf: BinomialEstimate = table.p_machine_fails().map_err(|_| inest("PMf"))?;
    let hf_ms = table
        .p_human_fails_given_machine_succeeds()
        .map_err(|_| inest("PHf|Ms"))?;
    let hf_mf = table
        .p_human_fails_given_machine_fails()
        .map_err(|_| inest("PHf|Mf"))?;
    Ok(ClassEstimate {
        class: class.clone(),
        cases: table.total(),
        point: ClassParams::new(p_mf.point(), hf_ms.point(), hf_mf.point()),
        p_mf_ci: p_mf.interval(method, level).map_err(TrialError::from)?,
        p_hf_given_ms_ci: hf_ms.interval(method, level).map_err(TrialError::from)?,
        p_hf_given_mf_ci: hf_mf.interval(method, level).map_err(TrialError::from)?,
    })
}

/// The full estimation product of a trial.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatedParams {
    /// Per-class estimates, in class order.
    pub classes: Vec<ClassEstimate>,
    /// The confidence level used.
    pub level: f64,
}

impl EstimatedParams {
    /// The point-estimate model.
    ///
    /// # Errors
    ///
    /// [`TrialError::Model`] if no classes were estimated.
    pub fn point_model(&self) -> Result<SequentialModel, TrialError> {
        let mut builder = ModelParams::builder();
        for est in &self.classes {
            builder = builder.class(est.class.clone(), est.point);
        }
        Ok(SequentialModel::new(
            builder.build().map_err(TrialError::from)?,
        ))
    }

    /// The estimate for a class, if present.
    #[must_use]
    pub fn class(&self, name: &str) -> Option<&ClassEstimate> {
        self.classes.iter().find(|e| e.class.name() == name)
    }

    /// The interned universe of the estimated classes. Identical to the
    /// universe of [`EstimatedParams::point_model`]'s compiled form, so
    /// downstream consumers can check coverage without building the model.
    #[must_use]
    pub fn universe(&self) -> ClassUniverse {
        ClassUniverse::from_names(self.classes.iter().map(|e| e.class.clone()))
    }

    /// The interval model built from every class's confidence intervals —
    /// input to guaranteed-bounds prediction via
    /// [`hmdiv_core::interval::IntervalModel::system_failure_bounds`].
    ///
    /// # Errors
    ///
    /// Propagates box-validation errors (never occur for well-formed CIs).
    pub fn interval_model(&self) -> Result<IntervalModel, TrialError> {
        let mut im = IntervalModel::new();
        for est in &self.classes {
            im = im
                .with_class(est.class.clone(), est.param_box())
                .map_err(TrialError::from)?;
        }
        Ok(im)
    }

    /// The *trial's* empirical demand profile over the estimated classes —
    /// usually **not** the field profile; that is the point of §5.
    ///
    /// # Errors
    ///
    /// [`TrialError::Model`] if no classes were estimated.
    pub fn trial_profile(&self) -> Result<DemandProfile, TrialError> {
        let pairs = self
            .classes
            .iter()
            .map(|e| (e.class.clone(), e.cases as f64))
            .collect::<Vec<_>>();
        DemandProfile::from_weights(pairs).map_err(TrialError::from)
    }
}

/// Estimates all cancer-side classes of a trial.
///
/// Classes whose tables leave a conditional inestimable are skipped when
/// `skip_inestimable` is true, and reported as errors otherwise.
///
/// # Errors
///
/// * [`TrialError::Inestimable`] (unless skipping) for sparse classes.
/// * [`TrialError::Model`] if nothing is estimable at all.
pub fn estimate_trial(
    data: &TrialData,
    method: CiMethod,
    level: f64,
    skip_inestimable: bool,
) -> Result<EstimatedParams, TrialError> {
    estimate_stratified(data.report.cancer_counts(), method, level, skip_inestimable)
}

/// As [`estimate_trial`], but over any stratified tables (e.g. the normal
/// side for false-positive modelling).
///
/// # Errors
///
/// As [`estimate_trial`].
pub fn estimate_stratified(
    counts: &StratifiedCounts<ClassId>,
    method: CiMethod,
    level: f64,
    skip_inestimable: bool,
) -> Result<EstimatedParams, TrialError> {
    let mut classes = Vec::new();
    for (class, table) in counts.iter() {
        match estimate_class(class, table, method, level) {
            Ok(est) => classes.push(est),
            Err(e @ TrialError::Inestimable { .. }) if skip_inestimable => {
                let _ = e; // deliberately skipped: not enough data for this class
            }
            Err(e) => return Err(e),
        }
    }
    if classes.is_empty() {
        return Err(TrialError::Model(hmdiv_core::ModelError::Empty {
            context: "estimable class set",
        }));
    }
    Ok(EstimatedParams { classes, level })
}

/// Builds Beta posteriors (Jeffreys prior) for every estimable class — the
/// input to [`hmdiv_core::uncertainty::propagate`].
///
/// # Errors
///
/// As [`estimate_trial`].
pub fn posterior_from_trial(data: &TrialData) -> Result<ModelPosterior, TrialError> {
    let mut posterior = ModelPosterior::new();
    for (class, table) in data.report.cancer_counts().iter() {
        let ms_total = table.ms_hs + table.ms_hf;
        let mf_total = table.mf_hs + table.mf_hf;
        if table.total() == 0 {
            continue;
        }
        let cp = ClassPosterior::from_counts(
            (table.machine_failures(), table.total()),
            (table.ms_hf, ms_total),
            (table.mf_hf, mf_total),
        )
        .map_err(TrialError::from)?;
        posterior = posterior.with_class(class.clone(), cp);
    }
    if posterior.is_empty() {
        return Err(TrialError::Model(hmdiv_core::ModelError::Empty {
            context: "posterior class set",
        }));
    }
    Ok(posterior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::TrialDesign;
    use crate::run::run_trial;
    use hmdiv_sim::scenario;

    fn trial_data(cases: u64, seed: u64) -> TrialData {
        let world = scenario::default_world().unwrap();
        let design = TrialDesign::new("est", cases, 0.5, seed).unwrap();
        run_trial(&world, &design).unwrap()
    }

    #[test]
    fn estimates_cover_known_structure() {
        let data = trial_data(40_000, 21);
        let est = estimate_trial(&data, CiMethod::Wilson, 0.95, true).unwrap();
        assert!(est.class("easy").is_some());
        assert!(est.class("difficult").is_some());
        let easy = est.class("easy").unwrap();
        let hard = est.class("difficult").unwrap();
        // The simulator's difficult class is harder for the machine…
        assert!(hard.point.p_mf() > easy.point.p_mf());
        // …and its coherence interval is informative.
        let (lo, point, hi) = hard.coherence_index();
        assert!(lo <= point && point <= hi);
    }

    #[test]
    fn point_model_predicts_trial_failure_rate() {
        let data = trial_data(60_000, 22);
        let est = estimate_trial(&data, CiMethod::Wilson, 0.95, true).unwrap();
        let model = est.point_model().unwrap();
        let profile = est.trial_profile().unwrap();
        let predicted = model.system_failure(&profile).unwrap();
        let observed = data.report.fn_rate().unwrap();
        // Same data both sides: should agree tightly.
        assert!(
            (predicted.value() - observed.value()).abs() < 0.01,
            "{} vs {}",
            predicted.value(),
            observed.value()
        );
    }

    #[test]
    fn small_trials_may_skip_sparse_classes() {
        let data = trial_data(60, 23);
        // With skipping, estimation still returns something (or a clean
        // error if literally nothing is estimable).
        match estimate_trial(&data, CiMethod::Wilson, 0.95, true) {
            Ok(est) => assert!(!est.classes.is_empty()),
            Err(TrialError::Model(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn strict_mode_reports_inestimable() {
        // Construct a table with no machine failures for some class.
        let mut counts: StratifiedCounts<ClassId> = StratifiedCounts::new();
        for _ in 0..50 {
            counts.record(ClassId::new("odd"), false, false);
        }
        let err = estimate_stratified(&counts, CiMethod::Wilson, 0.95, false).unwrap_err();
        assert!(
            matches!(
                err,
                TrialError::Inestimable {
                    parameter: "PHf|Mf",
                    ..
                }
            ),
            "{err}"
        );
        // Skipping yields the empty-set model error instead.
        assert!(matches!(
            estimate_stratified(&counts, CiMethod::Wilson, 0.95, true),
            Err(TrialError::Model(_))
        ));
    }

    #[test]
    fn interval_model_brackets_point_prediction() {
        let data = trial_data(30_000, 26);
        let est = estimate_trial(&data, CiMethod::Wilson, 0.95, true).unwrap();
        let im = est.interval_model().unwrap();
        let profile = est.trial_profile().unwrap();
        let point = est.point_model().unwrap().system_failure(&profile).unwrap();
        let (lo, hi) = im.system_failure_bounds(&profile).unwrap();
        assert!(
            lo <= point && point <= hi,
            "{} in [{}, {}]",
            point.value(),
            lo.value(),
            hi.value()
        );
        assert!(
            hi.value() - lo.value() < 0.2,
            "bounds informative at this size"
        );
        // More data narrows the guaranteed bounds.
        let big = trial_data(120_000, 27);
        let est_big = estimate_trial(&big, CiMethod::Wilson, 0.95, true).unwrap();
        let (lo2, hi2) = est_big
            .interval_model()
            .unwrap()
            .system_failure_bounds(&est_big.trial_profile().unwrap())
            .unwrap();
        assert!(hi2.value() - lo2.value() < hi.value() - lo.value());
    }

    #[test]
    fn posterior_construction() {
        let data = trial_data(20_000, 24);
        let posterior = posterior_from_trial(&data).unwrap();
        assert!(posterior.len() >= 2);
        let mean = posterior.mean_model().unwrap();
        assert!(mean.params().class_by_name("easy").is_ok());
    }

    #[test]
    fn universe_matches_point_model() {
        let data = trial_data(40_000, 28);
        let est = estimate_trial(&data, CiMethod::Wilson, 0.95, true).unwrap();
        let universe = est.universe();
        let model = est.point_model().unwrap();
        assert_eq!(model.compiled().universe().classes(), universe.classes());
        for e in &est.classes {
            assert!(universe.contains(e.class.name()));
        }
    }

    #[test]
    fn wider_level_wider_intervals() {
        let data = trial_data(20_000, 25);
        let e90 = estimate_trial(&data, CiMethod::Wilson, 0.90, true).unwrap();
        let e99 = estimate_trial(&data, CiMethod::Wilson, 0.99, true).unwrap();
        let w90 = e90.class("easy").unwrap().p_mf_ci.width();
        let w99 = e99.class("easy").unwrap().p_mf_ci.width();
        assert!(w99 > w90);
    }
}
