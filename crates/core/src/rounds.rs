//! Repeated screening rounds and interval cancers.
//!
//! Screening programmes re-invite patients every few years, so a cancer the
//! system misses this round gets further chances — but the *same case
//! difficulty* that caused the miss persists, so per-round failures are
//! correlated through the class, exactly the structure the paper's
//! conditional-on-demand modelling handles. A class-blind analysis that
//! chains the marginal failure probability (`PHf^k`) *underestimates* the
//! probability of a cancer slipping through `k` rounds, for the same
//! Jensen/covariance reason that drives eqs. (3) and (10):
//! `E[Π f_x] ≥ (E[f_x])^k` when the same class persists across rounds.
//!
//! Each round the tumour grows more visible, modelled by multiplying the
//! class failure probability by a per-round `visibility_gain < 1`.

use crate::{DemandProfile, ModelError, SequentialModel};

/// Result of a multi-round analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundsAnalysis {
    /// `P(first detected at round i)`, `i = 0..rounds`.
    pub detection_by_round: Vec<f64>,
    /// Probability the cancer survives all rounds undetected (the
    /// "interval cancer" proxy).
    pub p_missed_all: f64,
    /// What a class-blind analysis would predict for `p_missed_all`
    /// (chaining marginal probabilities), always ≤ the correct value.
    pub naive_p_missed_all: f64,
    /// Expected detection round among cancers detected within the horizon.
    pub expected_detection_round: Option<f64>,
}

impl RoundsAnalysis {
    /// The factor by which the class-blind analysis underestimates the
    /// miss-through probability, `p_missed_all / naive`, or `None` if the
    /// naive value is zero.
    #[must_use]
    pub fn persistence_penalty(&self) -> Option<f64> {
        (self.naive_p_missed_all > 0.0).then(|| self.p_missed_all / self.naive_p_missed_all)
    }
}

/// Analyses `rounds` successive screens of the same cancer case population.
///
/// Per class `x`, the round-`i` failure probability is
/// `min(1, PHf(x) · visibility_gain^i)`; rounds are conditionally
/// independent given the class.
///
/// # Errors
///
/// * [`ModelError::InvalidFactor`] if `rounds == 0` or `visibility_gain`
///   is outside `(0, 1]`.
/// * [`ModelError::MissingClass`] if the profile mentions an absent class.
///
/// # Example
///
/// ```
/// use hmdiv_core::{paper, rounds::screening_rounds};
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let model = paper::example_model()?;
/// let field = paper::field_profile()?;
/// let analysis = screening_rounds(&model, &field, 3, 0.7)?;
/// // Persisting difficulty makes the true miss-through probability exceed
/// // the class-blind chain.
/// assert!(analysis.p_missed_all > analysis.naive_p_missed_all);
/// # Ok(())
/// # }
/// ```
pub fn screening_rounds(
    model: &SequentialModel,
    profile: &DemandProfile,
    rounds: usize,
    visibility_gain: f64,
) -> Result<RoundsAnalysis, ModelError> {
    if rounds == 0 {
        return Err(ModelError::InvalidFactor {
            value: 0.0,
            context: "round count",
        });
    }
    if !(visibility_gain > 0.0 && visibility_gain <= 1.0) {
        return Err(ModelError::InvalidFactor {
            value: visibility_gain,
            context: "visibility gain (must be in (0, 1])",
        });
    }
    // Per-round marginal failure probabilities, for the naive baseline.
    let mut naive_chain = 1.0;
    let mut detection_by_round = vec![0.0; rounds];
    let mut p_missed_all = 0.0;
    for round in 0..rounds {
        let marginal = profile.expect(|class| {
            let f = model
                .params()
                .class(class)
                .map(|cp| cp.class_failure().value())
                .unwrap_or(f64::NAN);
            (f * visibility_gain.powi(round as i32)).min(1.0)
        });
        if marginal.is_nan() {
            // A class was missing: surface the precise error.
            for (class, _) in profile.iter() {
                model.params().class(class)?;
            }
        }
        naive_chain *= marginal;
    }
    for (class, weight) in profile.iter() {
        let f0 = model.params().class(class)?.class_failure().value();
        let mut survive = 1.0; // P(missed in all rounds so far | class)
        for (round, slot) in detection_by_round.iter_mut().enumerate() {
            let f_i = (f0 * visibility_gain.powi(round as i32)).min(1.0);
            *slot += weight.value() * survive * (1.0 - f_i);
            survive *= f_i;
        }
        p_missed_all += weight.value() * survive;
    }
    let total_detected: f64 = detection_by_round.iter().sum();
    let expected_detection_round = (total_detected > 0.0).then(|| {
        detection_by_round
            .iter()
            .enumerate()
            .map(|(i, p)| i as f64 * p)
            .sum::<f64>()
            / total_detected
    });
    Ok(RoundsAnalysis {
        detection_by_round,
        p_missed_all,
        naive_p_missed_all: naive_chain,
        expected_detection_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn probabilities_account_for_everything() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let a = screening_rounds(&model, &field, 4, 0.8).unwrap();
        let total: f64 = a.detection_by_round.iter().sum::<f64>() + a.p_missed_all;
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert_eq!(a.detection_by_round.len(), 4);
    }

    #[test]
    fn single_round_matches_sequential_model() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let a = screening_rounds(&model, &field, 1, 1.0).unwrap();
        let phf = model.system_failure(&field).unwrap().value();
        assert!((a.p_missed_all - phf).abs() < 1e-12);
        assert!((a.detection_by_round[0] - (1.0 - phf)).abs() < 1e-12);
        // With one round, naive == exact.
        assert!((a.naive_p_missed_all - a.p_missed_all).abs() < 1e-12);
    }

    #[test]
    fn persistence_penalty_exceeds_one_with_heterogeneity() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let a = screening_rounds(&model, &field, 3, 1.0).unwrap();
        // The paper example's classes differ strongly (0.143 vs 0.605), so
        // chaining marginals badly underestimates the miss-through rate.
        let penalty = a.persistence_penalty().unwrap();
        assert!(penalty > 1.5, "{penalty}");
        assert!(a.p_missed_all > a.naive_p_missed_all);
    }

    #[test]
    fn visibility_gain_accelerates_detection() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let static_tumour = screening_rounds(&model, &field, 4, 1.0).unwrap();
        let growing = screening_rounds(&model, &field, 4, 0.6).unwrap();
        assert!(growing.p_missed_all < static_tumour.p_missed_all);
        assert!(
            growing.expected_detection_round.unwrap()
                < static_tumour.expected_detection_round.unwrap() + 1e-12
        );
    }

    #[test]
    fn more_rounds_fewer_misses() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let short = screening_rounds(&model, &field, 2, 0.8).unwrap();
        let long = screening_rounds(&model, &field, 6, 0.8).unwrap();
        assert!(long.p_missed_all < short.p_missed_all);
    }

    #[test]
    fn homogeneous_classes_have_no_penalty() {
        use crate::{ClassParams, ModelParams};
        use hmdiv_prob::Probability;
        let p = |v: f64| Probability::new(v).unwrap();
        let cp = ClassParams::new(p(0.2), p(0.3), p(0.6));
        let model = SequentialModel::new(
            ModelParams::builder()
                .class("a", cp)
                .class("b", cp)
                .build()
                .unwrap(),
        );
        let profile = DemandProfile::builder()
            .class("a", 0.5)
            .class("b", 0.5)
            .build()
            .unwrap();
        let a = screening_rounds(&model, &profile, 3, 0.9).unwrap();
        assert!((a.persistence_penalty().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation_errors() {
        let model = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        assert!(screening_rounds(&model, &field, 0, 0.8).is_err());
        assert!(screening_rounds(&model, &field, 3, 0.0).is_err());
        assert!(screening_rounds(&model, &field, 3, 1.5).is_err());
        let ghost = DemandProfile::builder()
            .class("ghost", 1.0)
            .build()
            .unwrap();
        assert!(screening_rounds(&model, &ghost, 3, 0.8).is_err());
    }
}
