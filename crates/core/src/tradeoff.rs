//! False-negative / false-positive trade-offs (§7: "Of more general
//! interest … will be the study of trade-offs between the probabilities of
//! false positive and false negative failures").
//!
//! The paper notes its equations describe both failure kinds identically, so
//! a two-sided system is a pair of sequential models: one over *cancer*
//! cases (false negatives) and one over *normal* cases (false positives).
//! The CADT's tuning threshold moves its operating point along a
//! per-class ROC curve; the reader's response parameters then determine the
//! system-level operating point. Sweeping the threshold produces the system
//! ROC, from which an operating point can be chosen under recall-rate
//! constraints or failure costs.

use std::collections::BTreeMap;

use hmdiv_prob::Probability;

use crate::{ClassId, DemandProfile, ModelError, SequentialModel};

/// A two-sided system model: false negatives on cancer cases, false
/// positives on normal cases.
///
/// In both halves, "machine fails" means the machine's output pushes toward
/// the wrong decision: missing the relevant features of a cancer (FN side),
/// or prompting spurious features on a healthy film (FP side). The reader
/// conditionals have the same reading as in [`SequentialModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct TwoSidedModel {
    /// Model of false-negative failures over cancer-case classes.
    pub false_negative: SequentialModel,
    /// Model of false-positive failures over normal-case classes.
    pub false_positive: SequentialModel,
}

/// A system-level operating point, produced by sweeping the machine
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// The machine threshold `τ ∈ [0, 1]` that produced this point
    /// (`τ` is the machine's per-class false-positive prompt rate scale).
    pub tau: f64,
    /// System false-negative probability (on cancer cases).
    pub fn_rate: Probability,
    /// System false-positive probability (on normal cases).
    pub fp_rate: Probability,
    /// Overall recall rate, `prevalence·(1 − FN) + (1 − prevalence)·FP`.
    pub recall_rate: Probability,
}

/// The machine's ROC family: per cancer class, a power-curve exponent
/// `r ∈ (0, 1]` such that at prompt-rate threshold `τ` the machine's
/// sensitivity on that class is `τ^r` (so its false-negative probability is
/// `1 − τ^r`). Smaller `r` = better detector; `r = 1` = chance.
///
/// The FP side prompts spurious features at rate `τ` scaled by a per-class
/// susceptibility factor.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRoc {
    fn_exponents: BTreeMap<ClassId, f64>,
    fp_susceptibility: BTreeMap<ClassId, f64>,
}

impl MachineRoc {
    /// Starts building a machine ROC family.
    #[must_use]
    pub fn builder() -> MachineRocBuilder {
        MachineRocBuilder::default()
    }

    /// The machine's false-negative probability on a cancer class at
    /// threshold `tau`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::MissingClass`] if the class has no exponent.
    /// * [`ModelError::InvalidFactor`] if `tau` is outside `[0, 1]`.
    pub fn fn_probability(&self, class: &ClassId, tau: f64) -> Result<Probability, ModelError> {
        validate_tau(tau)?;
        let r = self
            .fn_exponents
            .get(class)
            .ok_or_else(|| ModelError::MissingClass {
                class: class.clone(),
            })?;
        Ok(Probability::clamped(1.0 - tau.powf(*r)))
    }

    /// The machine's false-positive (spurious prompt) probability on a
    /// normal class at threshold `tau`.
    ///
    /// # Errors
    ///
    /// As [`MachineRoc::fn_probability`].
    pub fn fp_probability(&self, class: &ClassId, tau: f64) -> Result<Probability, ModelError> {
        validate_tau(tau)?;
        let s = self
            .fp_susceptibility
            .get(class)
            .ok_or_else(|| ModelError::MissingClass {
                class: class.clone(),
            })?;
        Ok(Probability::clamped(tau * s))
    }
}

fn validate_tau(tau: f64) -> Result<(), ModelError> {
    if tau.is_nan() || !(0.0..=1.0).contains(&tau) {
        return Err(ModelError::InvalidFactor {
            value: tau,
            context: "machine threshold",
        });
    }
    Ok(())
}

/// Builder for [`MachineRoc`].
#[derive(Debug, Clone, Default)]
pub struct MachineRocBuilder {
    fn_exponents: BTreeMap<ClassId, f64>,
    fp_susceptibility: BTreeMap<ClassId, f64>,
    error: Option<ModelError>,
}

impl MachineRocBuilder {
    /// Sets the power-curve exponent for a cancer class (`0 < r <= 1`).
    #[must_use]
    pub fn cancer_class(mut self, class: impl Into<ClassId>, exponent: f64) -> Self {
        if !(exponent > 0.0 && exponent <= 1.0) {
            self.error.get_or_insert(ModelError::InvalidFactor {
                value: exponent,
                context: "ROC exponent (must be in (0, 1])",
            });
        }
        self.fn_exponents.insert(class.into(), exponent);
        self
    }

    /// Sets the spurious-prompt susceptibility for a normal class
    /// (`0 <= s <= 1`).
    #[must_use]
    pub fn normal_class(mut self, class: impl Into<ClassId>, susceptibility: f64) -> Self {
        if !(0.0..=1.0).contains(&susceptibility) || susceptibility.is_nan() {
            self.error.get_or_insert(ModelError::InvalidFactor {
                value: susceptibility,
                context: "FP susceptibility (must be in [0, 1])",
            });
        }
        self.fp_susceptibility.insert(class.into(), susceptibility);
        self
    }

    /// Builds the ROC family.
    ///
    /// # Errors
    ///
    /// * Any parameter validation error recorded during building.
    /// * [`ModelError::Empty`] if either side has no classes.
    pub fn build(self) -> Result<MachineRoc, ModelError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.fn_exponents.is_empty() || self.fp_susceptibility.is_empty() {
            return Err(ModelError::Empty {
                context: "machine ROC family",
            });
        }
        Ok(MachineRoc {
            fn_exponents: self.fn_exponents,
            fp_susceptibility: self.fp_susceptibility,
        })
    }
}

/// Evaluation context for the trade-off sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffStudy {
    /// The two-sided reader-response model (its machine parameters are
    /// overridden per threshold).
    pub base: TwoSidedModel,
    /// The machine's ROC family.
    pub roc: MachineRoc,
    /// Demand profile over cancer-case classes.
    pub cancer_profile: DemandProfile,
    /// Demand profile over normal-case classes.
    pub normal_profile: DemandProfile,
    /// Cancer prevalence in the screened population (well under 1% in the
    /// paper's setting).
    pub prevalence: Probability,
}

impl TradeoffStudy {
    /// Evaluates the system at machine threshold `tau`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidFactor`] for `tau` outside `[0, 1]`.
    /// * [`ModelError::MissingClass`] if a profile class lacks parameters or
    ///   ROC entries.
    pub fn operating_point(&self, tau: f64) -> Result<OperatingPoint, ModelError> {
        validate_tau(tau)?;
        let fn_params = self
            .base
            .false_negative
            .params()
            .map_classes(|class, cp| Ok(cp.with_p_mf(self.roc.fn_probability(class, tau)?)))?;
        let fp_params = self
            .base
            .false_positive
            .params()
            .map_classes(|class, cp| Ok(cp.with_p_mf(self.roc.fp_probability(class, tau)?)))?;
        let fn_rate = SequentialModel::new(fn_params).system_failure(&self.cancer_profile)?;
        let fp_rate = SequentialModel::new(fp_params).system_failure(&self.normal_profile)?;
        let prev = self.prevalence.value();
        let recall_rate =
            Probability::clamped(prev * (1.0 - fn_rate.value()) + (1.0 - prev) * fp_rate.value());
        Ok(OperatingPoint {
            tau,
            fn_rate,
            fp_rate,
            recall_rate,
        })
    }

    /// Sweeps `points` thresholds evenly over `[0, 1]`, producing the system
    /// ROC curve.
    ///
    /// # Errors
    ///
    /// As [`TradeoffStudy::operating_point`].
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn sweep(&self, points: usize) -> Result<Vec<OperatingPoint>, ModelError> {
        assert!(points >= 2, "a sweep needs at least 2 points");
        (0..points)
            .map(|i| self.operating_point(i as f64 / (points - 1) as f64))
            .collect()
    }

    /// The area under the system ROC curve swept over `points` thresholds:
    /// sensitivity `1 − FN` against false-positive rate, by the trapezoid
    /// rule, with the curve anchored at `(0, 0)` and `(1, 1)`.
    ///
    /// A scale-free summary of the whole human–machine system's
    /// discrimination, comparable across designs.
    ///
    /// # Errors
    ///
    /// As [`TradeoffStudy::sweep`].
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn system_auc(&self, points: usize) -> Result<f64, ModelError> {
        let sweep = self.sweep(points)?;
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(sweep.len() + 2);
        pts.push((0.0, 0.0));
        for p in &sweep {
            pts.push((p.fp_rate.value(), 1.0 - p.fn_rate.value()));
        }
        pts.push((1.0, 1.0));
        pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut auc = 0.0;
        for w in pts.windows(2) {
            auc += (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0;
        }
        Ok(auc.clamp(0.0, 1.0))
    }

    /// Finds the swept operating point minimising expected cost
    /// `prevalence·FN·cost_fn + (1 − prevalence)·FP·cost_fp`, optionally
    /// subject to `recall_rate <= max_recall`.
    ///
    /// Returns `None` if no swept point satisfies the constraint.
    ///
    /// # Errors
    ///
    /// As [`TradeoffStudy::sweep`], plus [`ModelError::InvalidFactor`] for
    /// non-positive costs.
    pub fn best_operating_point(
        &self,
        points: usize,
        cost_fn: f64,
        cost_fp: f64,
        max_recall: Option<Probability>,
    ) -> Result<Option<OperatingPoint>, ModelError> {
        if cost_fn.is_nan() || cost_fn <= 0.0 || cost_fp.is_nan() || cost_fp <= 0.0 {
            return Err(ModelError::InvalidFactor {
                value: cost_fn.min(cost_fp),
                context: "failure cost (must be positive)",
            });
        }
        let prev = self.prevalence.value();
        let mut best: Option<(f64, OperatingPoint)> = None;
        for point in self.sweep(points)? {
            if let Some(cap) = max_recall {
                if point.recall_rate > cap {
                    continue;
                }
            }
            let cost = prev * point.fn_rate.value() * cost_fn
                + (1.0 - prev) * point.fp_rate.value() * cost_fp;
            match &best {
                Some((c, _)) if *c <= cost => {}
                _ => best = Some((cost, point)),
            }
        }
        Ok(best.map(|(_, p)| p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassParams, ModelParams};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn study() -> TradeoffStudy {
        // FN side: the paper's example classes; machine PMf will be driven
        // by the ROC, the values here are placeholders.
        let fn_model = SequentialModel::new(
            ModelParams::builder()
                .class("easy", ClassParams::new(p(0.07), p(0.14), p(0.18)))
                .class("difficult", ClassParams::new(p(0.41), p(0.4), p(0.9)))
                .build()
                .unwrap(),
        );
        // FP side: healthy films; "machine fails" = spurious prompt, reader
        // recalls more when prompted (automation bias toward recall).
        let fp_model = SequentialModel::new(
            ModelParams::builder()
                .class("clear", ClassParams::new(p(0.1), p(0.02), p(0.08)))
                .class("ambiguous", ClassParams::new(p(0.3), p(0.15), p(0.4)))
                .build()
                .unwrap(),
        );
        let roc = MachineRoc::builder()
            .cancer_class("easy", 0.15)
            .cancer_class("difficult", 0.6)
            .normal_class("clear", 0.3)
            .normal_class("ambiguous", 0.9)
            .build()
            .unwrap();
        TradeoffStudy {
            base: TwoSidedModel {
                false_negative: fn_model,
                false_positive: fp_model,
            },
            roc,
            cancer_profile: DemandProfile::builder()
                .class("easy", 0.9)
                .class("difficult", 0.1)
                .build()
                .unwrap(),
            normal_profile: DemandProfile::builder()
                .class("clear", 0.85)
                .class("ambiguous", 0.15)
                .build()
                .unwrap(),
            prevalence: p(0.008),
        }
    }

    #[test]
    fn roc_endpoints() {
        let s = study();
        // τ = 0: machine prompts nothing → FN side at its worst (PMf = 1),
        // FP side at its best (no spurious prompts).
        let at0 = s.operating_point(0.0).unwrap();
        // τ = 1: machine prompts everything → PMf = 0, FP prompts maximal.
        let at1 = s.operating_point(1.0).unwrap();
        assert!(at0.fn_rate > at1.fn_rate);
        assert!(at0.fp_rate < at1.fp_rate);
    }

    #[test]
    fn sweep_is_monotone_in_both_rates() {
        let s = study();
        let curve = s.sweep(21).unwrap();
        for w in curve.windows(2) {
            assert!(w[1].fn_rate <= w[0].fn_rate, "FN decreases with τ");
            assert!(w[1].fp_rate >= w[0].fp_rate, "FP increases with τ");
        }
    }

    #[test]
    fn fn_rate_never_below_reader_floor() {
        // Even with a perfect machine (τ=1), the FN rate cannot fall below
        // the profile-weighted PHf|Ms — the paper's §6.1 bound, surfacing in
        // the trade-off study.
        let s = study();
        let at1 = s.operating_point(1.0).unwrap();
        let floor =
            crate::importance::system_lower_bound(&s.base.false_negative, &s.cancer_profile)
                .unwrap();
        assert!((at1.fn_rate.value() - floor.value()).abs() < 1e-12);
    }

    #[test]
    fn recall_rate_combines_sides() {
        let s = study();
        let pt = s.operating_point(0.5).unwrap();
        let expected = 0.008 * (1.0 - pt.fn_rate.value()) + 0.992 * pt.fp_rate.value();
        assert!((pt.recall_rate.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn best_point_responds_to_costs() {
        let s = study();
        // Missing a cancer is far costlier than a needless recall: pick a
        // high-τ point. Reverse the costs: pick a low-τ point.
        let fn_heavy = s
            .best_operating_point(21, 1000.0, 1.0, None)
            .unwrap()
            .unwrap();
        let fp_heavy = s
            .best_operating_point(21, 1.0, 1000.0, None)
            .unwrap()
            .unwrap();
        assert!(fn_heavy.tau > fp_heavy.tau);
    }

    #[test]
    fn recall_constraint_filters() {
        let s = study();
        let cap = p(0.05);
        let constrained = s
            .best_operating_point(21, 1000.0, 1.0, Some(cap))
            .unwrap()
            .unwrap();
        assert!(constrained.recall_rate <= cap);
        // An impossible constraint yields None.
        let impossible = s
            .best_operating_point(21, 1000.0, 1.0, Some(Probability::ZERO))
            .unwrap();
        assert!(impossible.is_none());
    }

    #[test]
    fn validation_errors() {
        let s = study();
        assert!(s.operating_point(-0.1).is_err());
        assert!(s.operating_point(1.5).is_err());
        assert!(s.best_operating_point(5, 0.0, 1.0, None).is_err());
        assert!(MachineRoc::builder().build().is_err());
        assert!(MachineRoc::builder()
            .cancer_class("x", 1.5)
            .normal_class("y", 0.5)
            .build()
            .is_err());
        assert!(MachineRoc::builder()
            .cancer_class("x", 0.5)
            .normal_class("y", -0.5)
            .build()
            .is_err());
    }

    #[test]
    fn auc_rewards_better_detectors() {
        let s = study();
        let base_auc = s.system_auc(51).unwrap();
        assert!((0.5..=1.0).contains(&base_auc), "{base_auc}");
        let mut better = s.clone();
        better.roc = MachineRoc::builder()
            .cancer_class("easy", 0.05)
            .cancer_class("difficult", 0.2)
            .normal_class("clear", 0.3)
            .normal_class("ambiguous", 0.9)
            .build()
            .unwrap();
        let better_auc = better.system_auc(51).unwrap();
        assert!(better_auc > base_auc, "{better_auc} vs {base_auc}");
    }

    #[test]
    fn better_detector_dominates() {
        // Lowering an exponent (better detector on that class) cannot make
        // any swept FN rate worse.
        let s = study();
        let mut better = s.clone();
        better.roc = MachineRoc::builder()
            .cancer_class("easy", 0.05)
            .cancer_class("difficult", 0.2)
            .normal_class("clear", 0.3)
            .normal_class("ambiguous", 0.9)
            .build()
            .unwrap();
        let base_curve = s.sweep(11).unwrap();
        let better_curve = better.sweep(11).unwrap();
        for (b, g) in base_curve.iter().zip(&better_curve) {
            assert!(g.fn_rate <= b.fn_rate, "τ={}", b.tau);
            assert_eq!(g.fp_rate, b.fp_rate, "FP side untouched");
        }
    }
}
