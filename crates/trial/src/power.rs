//! Trial sizing: how many cases does a trial need?
//!
//! The paper's §5 assumes "narrow enough confidence intervals can be
//! obtained for all parameters"; this module computes what that costs. The
//! binding constraint is always the *conditional* parameters of the *rare*
//! classes: to pin down `PHf|Mf` for the difficult class, the trial needs
//! enough difficult cases **on which the machine fails** — a double rarity
//! that enrichment and oversampling exist to fight.

use hmdiv_core::{DemandProfile, SequentialModel};
use hmdiv_prob::special::normal_quantile;

use crate::TrialError;

/// Cases needed for a Wald-style interval of half-width `margin` on a
/// proportion near `p`, at confidence `level`:
/// `n = z² p(1−p) / margin²`.
///
/// Conservative for Wilson/Jeffreys intervals (they are narrower at the
/// same `n`), so plans made with it are safe.
///
/// # Errors
///
/// [`TrialError::InvalidDesign`] for a non-positive margin, `p` outside
/// `[0, 1]`, or `level` outside `(0, 1)`.
pub fn sample_size_for_proportion(p: f64, margin: f64, level: f64) -> Result<u64, TrialError> {
    if margin.is_nan() || margin <= 0.0 || margin >= 1.0 {
        return Err(TrialError::InvalidDesign {
            value: margin,
            context: "margin",
        });
    }
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(TrialError::InvalidDesign {
            value: p,
            context: "anticipated proportion",
        });
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(TrialError::InvalidDesign {
            value: level,
            context: "confidence level",
        });
    }
    let z = normal_quantile(1.0 - (1.0 - level) / 2.0);
    // p(1−p) maximised at ½ when the caller has no anticipation.
    let variance = (p * (1.0 - p)).max(f64::MIN_POSITIVE);
    Ok((z * z * variance / (margin * margin)).ceil() as u64)
}

/// The per-class case requirements of a planned trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRequirement {
    /// The class.
    pub class: hmdiv_core::ClassId,
    /// Cancer cases of this class needed to pin down `PMf(x)`.
    pub for_p_mf: u64,
    /// Cases needed so the *machine-success* subset pins down `PHf|Ms(x)`.
    pub for_p_hf_given_ms: u64,
    /// Cases needed so the *machine-failure* subset pins down `PHf|Mf(x)`.
    /// Usually the binding constraint.
    pub for_p_hf_given_mf: u64,
}

impl ClassRequirement {
    /// The binding (largest) requirement for this class.
    #[must_use]
    pub fn required_cases(&self) -> u64 {
        self.for_p_mf
            .max(self.for_p_hf_given_ms)
            .max(self.for_p_hf_given_mf)
    }
}

/// A full trial plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialPlan {
    /// Per-class requirements, in profile order.
    pub per_class: Vec<ClassRequirement>,
    /// Total *cancer* cases needed, accounting for the trial's class mix
    /// (the rarest class at its required count forces the others up).
    pub cancer_cases: u64,
    /// Total cases at the given enriched prevalence.
    pub total_cases: u64,
}

/// Plans a trial: cases needed for intervals of half-width `margin` at
/// confidence `level` on every parameter of every class, given anticipated
/// parameters (`model`), the trial's cancer-class mix (`trial_mix`), and
/// the enriched prevalence.
///
/// # Errors
///
/// * [`TrialError::Model`] if the mix mentions a class without parameters.
/// * [`TrialError::InvalidDesign`] for bad margin/level/prevalence.
pub fn plan_trial(
    model: &SequentialModel,
    trial_mix: &DemandProfile,
    enriched_prevalence: f64,
    margin: f64,
    level: f64,
) -> Result<TrialPlan, TrialError> {
    if !(enriched_prevalence > 0.0 && enriched_prevalence <= 1.0) {
        return Err(TrialError::InvalidDesign {
            value: enriched_prevalence,
            context: "enriched prevalence",
        });
    }
    let mut per_class = Vec::with_capacity(trial_mix.len());
    let mut cancer_cases: u64 = 0;
    for (class, weight) in trial_mix.iter() {
        let cp = model.params().class(class).map_err(TrialError::from)?;
        let n_mf = sample_size_for_proportion(cp.p_mf().value(), margin, level)?;
        // The conditional estimates see only the machine-success (resp.
        // -failure) subset: inflate by the inverse subset fraction.
        let n_ms_subset = sample_size_for_proportion(cp.p_hf_given_ms().value(), margin, level)?;
        let p_ms = cp.p_ms().value();
        let for_p_hf_given_ms = if p_ms > 0.0 {
            (n_ms_subset as f64 / p_ms).ceil() as u64
        } else {
            u64::MAX
        };
        let n_mf_subset = sample_size_for_proportion(cp.p_hf_given_mf().value(), margin, level)?;
        let p_mf = cp.p_mf().value();
        let for_p_hf_given_mf = if p_mf > 0.0 {
            (n_mf_subset as f64 / p_mf).ceil() as u64
        } else {
            u64::MAX
        };
        let req = ClassRequirement {
            class: class.clone(),
            for_p_mf: n_mf,
            for_p_hf_given_ms,
            for_p_hf_given_mf,
        };
        // This class receives `weight` of the cancer cases, so the whole
        // trial needs required/weight cancers for this class to fill up.
        let w = weight.value();
        let needed_total = if w > 0.0 {
            (req.required_cases() as f64 / w).ceil() as u64
        } else {
            u64::MAX
        };
        cancer_cases = cancer_cases.max(needed_total);
        per_class.push(req);
    }
    let total_cases = (cancer_cases as f64 / enriched_prevalence).ceil() as u64;
    Ok(TrialPlan {
        per_class,
        cancer_cases,
        total_cases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_core::paper;

    #[test]
    fn classic_sample_size_values() {
        // The textbook n = 384 for p=0.5, ±5%, 95%.
        let n = sample_size_for_proportion(0.5, 0.05, 0.95).unwrap();
        assert_eq!(n, 385); // ceil(384.14…)
                            // Smaller p needs fewer cases at the same absolute margin.
        let n_small = sample_size_for_proportion(0.07, 0.05, 0.95).unwrap();
        assert!(n_small < n);
        // Tighter margin, quadratically more cases.
        let n_tight = sample_size_for_proportion(0.5, 0.025, 0.95).unwrap();
        assert!(n_tight >= 4 * n - 4);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(sample_size_for_proportion(0.5, 0.0, 0.95).is_err());
        assert!(sample_size_for_proportion(0.5, 1.0, 0.95).is_err());
        assert!(sample_size_for_proportion(1.5, 0.05, 0.95).is_err());
        assert!(sample_size_for_proportion(0.5, 0.05, 0.0).is_err());
        assert!(sample_size_for_proportion(0.5, 0.05, 1.0).is_err());
    }

    #[test]
    fn conditional_on_rare_event_is_binding() {
        let model = paper::example_model().unwrap();
        let mix = paper::trial_profile().unwrap();
        let plan = plan_trial(&model, &mix, 0.5, 0.03, 0.95).unwrap();
        // For the easy class, PMf = 0.07: the PHf|Mf estimate needs ~14×
        // more cases than the PMf estimate itself.
        let easy = plan
            .per_class
            .iter()
            .find(|r| r.class.name() == "easy")
            .unwrap();
        assert!(easy.for_p_hf_given_mf > 5 * easy.for_p_mf, "{easy:?}");
        assert_eq!(easy.required_cases(), easy.for_p_hf_given_mf);
        // Total cases account for enrichment: at 50% prevalence the total is
        // twice the cancer count.
        assert_eq!(plan.total_cases, plan.cancer_cases * 2);
        assert!(plan.cancer_cases > 0);
    }

    #[test]
    fn rarer_class_forces_bigger_trials() {
        let model = paper::example_model().unwrap();
        let balanced = paper::trial_profile().unwrap(); // 80/20
        let skewed = hmdiv_core::DemandProfile::builder()
            .class("easy", 0.98)
            .class("difficult", 0.02)
            .build()
            .unwrap();
        let plan_balanced = plan_trial(&model, &balanced, 0.5, 0.03, 0.95).unwrap();
        let plan_skewed = plan_trial(&model, &skewed, 0.5, 0.03, 0.95).unwrap();
        assert!(plan_skewed.cancer_cases > plan_balanced.cancer_cases);
    }

    #[test]
    fn plan_validation() {
        let model = paper::example_model().unwrap();
        let mix = paper::trial_profile().unwrap();
        assert!(plan_trial(&model, &mix, 0.0, 0.03, 0.95).is_err());
        assert!(plan_trial(&model, &mix, 1.5, 0.03, 0.95).is_err());
        let ghost = hmdiv_core::DemandProfile::builder()
            .class("ghost", 1.0)
            .build()
            .unwrap();
        assert!(plan_trial(&model, &ghost, 0.5, 0.03, 0.95).is_err());
    }

    #[test]
    fn planned_trial_actually_achieves_the_margin() {
        // Close the loop: size a trial by the plan, simulate it with the
        // table-driven sampler, and check the achieved CI half-widths.
        use hmdiv_prob::estimate::CiMethod;
        use rand::SeedableRng;
        let model = paper::example_model().unwrap();
        let mix = paper::trial_profile().unwrap();
        let margin = 0.05;
        let plan = plan_trial(&model, &mix, 1.0, margin, 0.95).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(606);
        let counts =
            hmdiv_sim::table_driven::simulate(&model, &mix, plan.cancer_cases, &mut rng).unwrap();
        let est =
            crate::estimate::estimate_stratified(&counts, CiMethod::Wilson, 0.95, false).unwrap();
        for class in &est.classes {
            for (name, ci) in [
                ("PMf", &class.p_mf_ci),
                ("PHf|Ms", &class.p_hf_given_ms_ci),
                ("PHf|Mf", &class.p_hf_given_mf_ci),
            ] {
                assert!(
                    ci.width() / 2.0 <= margin * 1.15,
                    "{}/{name}: half-width {}",
                    class.class,
                    ci.width() / 2.0
                );
            }
        }
    }
}
