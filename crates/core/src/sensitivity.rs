//! Parameter sensitivity of the system failure probability.
//!
//! Eq. (8) is linear in each parameter, so its partial derivatives have
//! closed forms:
//!
//! ```text
//! ∂PHf/∂PMf(x)      = p(x)·t(x)
//! ∂PHf/∂PHf|Ms(x)   = p(x)·PMs(x)
//! ∂PHf/∂PHf|Mf(x)   = p(x)·PMf(x)
//! ∂PHf/∂p(x)        = PHf(x)           (under re-normalisation, see below)
//! ```
//!
//! These gradients serve two purposes: ranking which estimated parameter's
//! uncertainty dominates the prediction (variance budgeting via the delta
//! method), and sanity-checking the §6 analyses (the `PMf` gradient *is*
//! the class leverage of [`crate::design`]).

use crate::{ClassId, DemandProfile, ModelError, SequentialModel};

/// Partial derivatives of the system failure probability with respect to
/// one class's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSensitivity {
    /// The class.
    pub class: ClassId,
    /// `∂PHf/∂PMf(x) = p(x)·t(x)`.
    pub d_p_mf: f64,
    /// `∂PHf/∂PHf|Ms(x) = p(x)·PMs(x)`.
    pub d_p_hf_given_ms: f64,
    /// `∂PHf/∂PHf|Mf(x) = p(x)·PMf(x)`.
    pub d_p_hf_given_mf: f64,
}

impl ClassSensitivity {
    /// The largest-magnitude derivative, with its parameter name.
    #[must_use]
    pub fn dominant(&self) -> (&'static str, f64) {
        let candidates = [
            ("PMf", self.d_p_mf),
            ("PHf|Ms", self.d_p_hf_given_ms),
            ("PHf|Mf", self.d_p_hf_given_mf),
        ];
        candidates
            .into_iter()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .expect("candidate list is a non-empty literal")
    }
}

/// Computes the closed-form gradients for every class in the profile.
///
/// # Errors
///
/// [`ModelError::UnknownClass`] if the profile mentions a class without
/// parameters.
pub fn gradients(
    model: &SequentialModel,
    profile: &DemandProfile,
) -> Result<Vec<ClassSensitivity>, ModelError> {
    let compiled = model.compiled();
    let bound = compiled.bind_profile(profile)?;
    let mut out = Vec::with_capacity(bound.len());
    for (idx, w) in bound.iter() {
        let cp = compiled.params_at(idx);
        out.push(ClassSensitivity {
            class: compiled.universe().class(idx).clone(),
            d_p_mf: w * cp.coherence_index(),
            d_p_hf_given_ms: w * cp.p_ms().value(),
            d_p_hf_given_mf: w * cp.p_mf().value(),
        });
    }
    Ok(out)
}

/// Delta-method variance of the system failure probability given standard
/// errors for each class's parameters (assumed independent):
///
/// ```text
/// Var(PHf) ≈ Σ_x (∂PHf/∂θ_x)²·se(θ_x)²
/// ```
///
/// `se_of` maps `(class, parameter-name)` — names `"PMf"`, `"PHf|Ms"`,
/// `"PHf|Mf"` — to the parameter's standard error.
///
/// Returns `(variance, contributions)` where `contributions` lists each
/// class's share, largest first.
///
/// # Errors
///
/// As [`gradients`].
pub fn delta_method_variance<F>(
    model: &SequentialModel,
    profile: &DemandProfile,
    mut se_of: F,
) -> Result<(f64, Vec<(ClassId, f64)>), ModelError>
where
    F: FnMut(&ClassId, &'static str) -> f64,
{
    let grads = gradients(model, profile)?;
    let mut contributions = Vec::with_capacity(grads.len());
    let mut total = 0.0;
    for g in &grads {
        let v = (g.d_p_mf * se_of(&g.class, "PMf")).powi(2)
            + (g.d_p_hf_given_ms * se_of(&g.class, "PHf|Ms")).powi(2)
            + (g.d_p_hf_given_mf * se_of(&g.class, "PHf|Mf")).powi(2);
        total += v;
        contributions.push((g.class.clone(), v));
    }
    contributions.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok((total, contributions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extrapolate::Scenario;
    use crate::paper;
    use hmdiv_prob::Probability;

    #[test]
    fn gradients_match_finite_differences() {
        let model = paper::example_model().unwrap();
        let profile = paper::field_profile().unwrap();
        let eps = 1e-6;
        for g in gradients(&model, &profile).unwrap() {
            let cp = *model.params().class(&g.class).unwrap();
            // ∂/∂PMf via the scenario machinery.
            let bumped = Scenario::new()
                .set_machine_failure(
                    g.class.clone(),
                    Probability::clamped(cp.p_mf().value() + eps),
                )
                .predict(&model, &profile)
                .unwrap();
            let fd = (bumped.after.value() - bumped.before.value()) / eps;
            assert!(
                (fd - g.d_p_mf).abs() < 1e-6,
                "{}: {} vs {}",
                g.class,
                fd,
                g.d_p_mf
            );
            // ∂/∂PHf|Mf via set_reader.
            let bumped = Scenario::new()
                .set_reader(
                    g.class.clone(),
                    cp.p_hf_given_ms(),
                    Probability::clamped(cp.p_hf_given_mf().value() + eps),
                )
                .predict(&model, &profile)
                .unwrap();
            let fd = (bumped.after.value() - bumped.before.value()) / eps;
            assert!((fd - g.d_p_hf_given_mf).abs() < 1e-6, "{}", g.class);
        }
    }

    #[test]
    fn pmf_gradient_is_design_leverage() {
        // ∂PHf/∂PMf(x) · PMf(x) = the max_benefit of the design module.
        let model = paper::example_model().unwrap();
        let profile = paper::field_profile().unwrap();
        let grads = gradients(&model, &profile).unwrap();
        let levers = crate::design::rank_improvement_targets(&model, &profile).unwrap();
        for lever in levers {
            let g = grads.iter().find(|g| g.class == lever.class).unwrap();
            assert!((g.d_p_mf * lever.p_mf - lever.max_benefit).abs() < 1e-12);
        }
    }

    #[test]
    fn dominant_parameter_identified() {
        let model = paper::example_model().unwrap();
        let profile = paper::field_profile().unwrap();
        let grads = gradients(&model, &profile).unwrap();
        // Easy class: p=0.9, PMs=0.93 → the PHf|Ms derivative (0.837)
        // dominates everything; the machine hardly matters there.
        let easy = grads.iter().find(|g| g.class.name() == "easy").unwrap();
        assert_eq!(easy.dominant().0, "PHf|Ms");
        assert!((easy.dominant().1 - 0.9 * 0.93).abs() < 1e-12);
    }

    #[test]
    fn delta_method_budget() {
        let model = paper::example_model().unwrap();
        let profile = paper::field_profile().unwrap();
        // Suppose every parameter has se = 0.02.
        let (var, contributions) = delta_method_variance(&model, &profile, |_, _| 0.02).unwrap();
        assert!(var > 0.0);
        // Contributions sorted descending and sum to the total.
        let sum: f64 = contributions.iter().map(|(_, v)| v).sum();
        assert!((sum - var).abs() < 1e-15);
        assert!(contributions[0].1 >= contributions[1].1);
        // With uniform standard errors, the frequent easy class dominates
        // the variance budget (its gradients carry weight 0.9).
        assert_eq!(contributions[0].0.name(), "easy");
    }

    #[test]
    fn zero_se_zero_variance() {
        let model = paper::example_model().unwrap();
        let profile = paper::field_profile().unwrap();
        let (var, _) = delta_method_variance(&model, &profile, |_, _| 0.0).unwrap();
        assert_eq!(var, 0.0);
    }

    #[test]
    fn missing_class_errors() {
        let model = paper::example_model().unwrap();
        let profile = DemandProfile::builder()
            .class("ghost", 1.0)
            .build()
            .unwrap();
        assert!(gradients(&model, &profile).is_err());
    }
}
