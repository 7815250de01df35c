//! The covariance decomposition of eq. (10) (§6.2).
//!
//! ```text
//! PHf = E[PHf|Ms(x)] + E[PMf(x)]·E[t(x)] + cov(PMf(x), t(x))
//! ```
//!
//! Knowing the machine's average failure probability and the average effect
//! of its failures on the reader is *not enough*: if the machine fails most
//! on exactly the cases where its failures hurt the reader most (positive
//! covariance), the system is worse than the means predict — and vice versa.
//! This is the paper's argument for targeting improvement at classes with
//! high `t(x)` rather than at the machine's average failure rate.

use hmdiv_prob::moments::weighted_covariance;
use hmdiv_prob::Probability;

use crate::{DemandProfile, ModelError, SequentialModel};

/// The terms of eq. (10), plus the reconstructed and direct totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CovarianceDecomposition {
    /// `E[PHf|Ms(x)]` — the expected reader failure under machine success
    /// (the improvable-floor term).
    pub mean_hf_given_ms: f64,
    /// `E[PMf(x)]` — the machine's mean failure probability.
    pub mean_p_mf: f64,
    /// `E[t(x)]` — the mean coherence index.
    pub mean_t: f64,
    /// `cov(PMf(x), t(x))` over the demand profile.
    pub covariance: f64,
    /// The total reconstructed from the three terms.
    pub reconstructed: f64,
    /// The system failure computed directly from eq. (8), for
    /// reconciliation.
    pub direct: Probability,
}

impl CovarianceDecomposition {
    /// The contribution of machine unreliability *as the means see it*,
    /// `E[PMf]·E[t]`.
    #[must_use]
    pub fn mean_field_term(&self) -> f64 {
        self.mean_p_mf * self.mean_t
    }

    /// How much the means-only estimate misjudges the true failure
    /// probability: `direct − (E[PHf|Ms] + E[PMf]·E[t])`, which equals the
    /// covariance term (up to floating-point error).
    #[must_use]
    pub fn misjudgement_from_means(&self) -> f64 {
        self.direct.value() - (self.mean_hf_given_ms + self.mean_field_term())
    }

    /// Whether the decomposition reconciles with the direct computation to
    /// within `tol`.
    #[must_use]
    pub fn reconciles(&self, tol: f64) -> bool {
        (self.reconstructed - self.direct.value()).abs() <= tol
    }
}

/// Computes the eq. (10) decomposition of the model under a profile.
///
/// # Errors
///
/// [`ModelError::UnknownClass`] if the profile mentions a class without
/// parameters.
///
/// # Example
///
/// ```
/// use hmdiv_core::{paper, decomposition::decompose};
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let model = paper::example_model()?;
/// let trial = paper::trial_profile()?;
/// let d = decompose(&model, &trial)?;
/// assert!(d.reconciles(1e-12));
/// // The machine fails more exactly where its failures matter more
/// // (difficult cases have both higher PMf and higher t), so the
/// // covariance is positive: the system is worse than the means suggest.
/// assert!(d.covariance > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn decompose(
    model: &SequentialModel,
    profile: &DemandProfile,
) -> Result<CovarianceDecomposition, ModelError> {
    let compiled = model.compiled();
    let bound = compiled.bind_profile(profile)?;
    let mut weights = Vec::with_capacity(bound.len());
    let mut p_mfs = Vec::with_capacity(bound.len());
    let mut ts = Vec::with_capacity(bound.len());
    let mut hf_ms = Vec::with_capacity(bound.len());
    for (idx, w) in bound.iter() {
        let cp = compiled.params_at(idx);
        weights.push(w);
        p_mfs.push(cp.p_mf().value());
        ts.push(cp.coherence_index());
        hf_ms.push(cp.p_hf_given_ms().value());
    }
    let total_w: f64 = weights.iter().sum();
    let mean = |vals: &[f64]| -> f64 {
        weights.iter().zip(vals).map(|(w, v)| w * v).sum::<f64>() / total_w
    };
    let mean_hf_given_ms = mean(&hf_ms);
    let mean_p_mf = mean(&p_mfs);
    let mean_t = mean(&ts);
    let covariance = weighted_covariance(&weights, &p_mfs, &ts).map_err(ModelError::from)?;
    let reconstructed = mean_hf_given_ms + mean_p_mf * mean_t + covariance;
    let direct = model.system_failure(profile)?;
    Ok(CovarianceDecomposition {
        mean_hf_given_ms,
        mean_p_mf,
        mean_t,
        covariance,
        reconstructed,
        direct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassParams, ModelParams};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn paper_model() -> SequentialModel {
        SequentialModel::new(
            ModelParams::builder()
                .class("easy", ClassParams::new(p(0.07), p(0.14), p(0.18)))
                .class("difficult", ClassParams::new(p(0.41), p(0.4), p(0.9)))
                .build()
                .unwrap(),
        )
    }

    fn trial() -> DemandProfile {
        DemandProfile::builder()
            .class("easy", 0.8)
            .class("difficult", 0.2)
            .build()
            .unwrap()
    }

    #[test]
    fn reconstruction_matches_direct_exactly() {
        let d = decompose(&paper_model(), &trial()).unwrap();
        assert!(d.reconciles(1e-12), "{d:?}");
        assert!((d.misjudgement_from_means() - d.covariance).abs() < 1e-12);
    }

    #[test]
    fn paper_example_covariance_is_positive() {
        // PMf: easy 0.07, difficult 0.41; t: easy 0.04, difficult 0.5 —
        // perfectly aligned, so cov > 0.
        let d = decompose(&paper_model(), &trial()).unwrap();
        assert!(d.covariance > 0.0);
        assert!((d.mean_p_mf - (0.8 * 0.07 + 0.2 * 0.41)).abs() < 1e-12);
        assert!((d.mean_t - (0.8 * 0.04 + 0.2 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn single_class_has_zero_covariance() {
        let m = SequentialModel::new(
            ModelParams::builder()
                .class("only", ClassParams::new(p(0.2), p(0.1), p(0.7)))
                .build()
                .unwrap(),
        );
        let profile = DemandProfile::builder().class("only", 1.0).build().unwrap();
        let d = decompose(&m, &profile).unwrap();
        assert!(d.covariance.abs() < 1e-15);
        assert!(d.reconciles(1e-12));
    }

    #[test]
    fn anti_aligned_design_gives_negative_covariance() {
        // Machine fails most on classes where its failure matters least —
        // the favourable design the paper hopes a diverse CADT achieves.
        let m = SequentialModel::new(
            ModelParams::builder()
                // high PMf, low t
                .class("a", ClassParams::new(p(0.5), p(0.30), p(0.32)))
                // low PMf, high t
                .class("b", ClassParams::new(p(0.05), p(0.1), p(0.8)))
                .build()
                .unwrap(),
        );
        let profile = DemandProfile::builder()
            .class("a", 0.5)
            .class("b", 0.5)
            .build()
            .unwrap();
        let d = decompose(&m, &profile).unwrap();
        assert!(d.covariance < 0.0);
        // The system is *better* than the means would predict.
        assert!(d.direct.value() < d.mean_hf_given_ms + d.mean_field_term());
        assert!(d.reconciles(1e-12));
    }

    #[test]
    fn missing_class_errors() {
        let profile = DemandProfile::builder()
            .class("ghost", 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            decompose(&paper_model(), &profile),
            Err(ModelError::UnknownClass { .. })
        ));
    }

    #[test]
    fn decomposition_under_field_profile_differs() {
        let trial_d = decompose(&paper_model(), &trial()).unwrap();
        let field = DemandProfile::builder()
            .class("easy", 0.9)
            .class("difficult", 0.1)
            .build()
            .unwrap();
        let field_d = decompose(&paper_model(), &field).unwrap();
        assert!(field_d.direct < trial_d.direct);
        assert!(field_d.covariance < trial_d.covariance); // less weight on the aligned tail
        assert!(field_d.reconciles(1e-12));
    }
}
