//! The coherence / importance index `t(x)` and the Fig. 4 analysis (§6.1).
//!
//! Rewriting eq. (8) per class as eq. (9),
//!
//! ```text
//! PHf(x) = PHf|Ms(x) + PMf(x)·t(x),     t(x) = PHf|Mf(x) − PHf|Ms(x)
//! ```
//!
//! the class failure probability is *linear in the machine failure
//! probability*, with intercept `PHf|Ms(x)` and slope `t(x)`. Fig. 4 plots
//! this line; its two lessons are (a) the slope is Birnbaum's importance of
//! the machine for the system, and (b) the intercept is a hard floor — no
//! machine improvement alone can push system failure below `PHf|Ms(x)`.

use hmdiv_prob::Probability;

use crate::{ClassId, DemandProfile, ModelError, SequentialModel};

/// The Fig. 4 line for one class: system failure as a function of machine
/// failure probability, holding the reader's conditional behaviour fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineResponseLine {
    class: ClassId,
    intercept: Probability,
    slope: f64,
    current_p_mf: Probability,
}

impl MachineResponseLine {
    /// The class this line describes.
    #[must_use]
    pub fn class(&self) -> &ClassId {
        &self.class
    }

    /// The intercept `PHf|Ms(x)` — the floor no machine improvement can
    /// break (§6.1: "No improvement in the machine will reduce this failure
    /// probability, unless we also change the reader's skills").
    #[must_use]
    pub fn lower_bound(&self) -> Probability {
        self.intercept
    }

    /// The slope `t(x)`: the coherence / importance index.
    #[must_use]
    pub fn coherence_index(&self) -> f64 {
        self.slope
    }

    /// The machine failure probability at which the model currently sits.
    #[must_use]
    pub fn current_p_mf(&self) -> Probability {
        self.current_p_mf
    }

    /// The class failure probability at a hypothetical machine failure
    /// probability `p_mf` (a point on the Fig. 4 line).
    #[must_use]
    pub fn failure_at(&self, p_mf: Probability) -> Probability {
        Probability::clamped(self.intercept.value() + p_mf.value() * self.slope)
    }

    /// Sweeps the line over `points` evenly spaced machine failure
    /// probabilities in `[0, 1]`, returning `(p_mf, p_system_failure)`
    /// pairs — the series plotted in Fig. 4.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFactor`] if `points < 2` (a line needs two
    /// points).
    pub fn sweep(&self, points: usize) -> Result<Vec<(f64, f64)>, ModelError> {
        if points < 2 {
            return Err(ModelError::InvalidFactor {
                value: points as f64,
                context: "sweep point count (need at least 2)",
            });
        }
        Ok((0..points)
            .map(|i| {
                let p_mf = i as f64 / (points - 1) as f64;
                (p_mf, self.failure_at(Probability::clamped(p_mf)).value())
            })
            .collect())
    }
}

/// Builds the Fig. 4 line for one class of the model.
///
/// # Errors
///
/// [`ModelError::MissingClass`] if the class has no parameters.
///
/// # Example
///
/// ```
/// use hmdiv_core::{paper, importance::machine_response_line, ClassId};
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let model = paper::example_model()?;
/// let line = machine_response_line(&model, &ClassId::new("difficult"))?;
/// assert!((line.coherence_index() - 0.5).abs() < 1e-12);
/// assert!((line.lower_bound().value() - 0.4).abs() < 1e-12);
/// // A perfect machine leaves 0.4; a useless one gives 0.9.
/// # Ok(())
/// # }
/// ```
pub fn machine_response_line(
    model: &SequentialModel,
    class: &ClassId,
) -> Result<MachineResponseLine, ModelError> {
    let cp = model.params().class(class)?;
    Ok(MachineResponseLine {
        class: class.clone(),
        intercept: cp.p_hf_given_ms(),
        slope: cp.coherence_index(),
        current_p_mf: cp.p_mf(),
    })
}

/// Builds the Fig. 4 lines for every class of the model, in class order.
#[must_use]
pub fn machine_response_lines(model: &SequentialModel) -> Vec<MachineResponseLine> {
    model
        .params()
        .iter()
        .map(|(class, cp)| MachineResponseLine {
            class: class.clone(),
            intercept: cp.p_hf_given_ms(),
            slope: cp.coherence_index(),
            current_p_mf: cp.p_mf(),
        })
        .collect()
}

/// The profile-level floor on system failure achievable by machine
/// improvement alone: `Σ p(x)·PHf|Ms(x)` (every class at its intercept).
///
/// # Errors
///
/// [`ModelError::UnknownClass`] if the profile mentions an absent class.
pub fn system_lower_bound(
    model: &SequentialModel,
    profile: &DemandProfile,
) -> Result<Probability, ModelError> {
    let compiled = model.compiled();
    let bound = compiled.bind_profile(profile)?;
    let mut total = 0.0;
    for (idx, w) in bound.iter() {
        total += w * compiled.p_hf_given_ms_slice()[idx as usize];
    }
    Ok(Probability::clamped(total))
}

/// Scales every class's machine failure probability by `scale ∈ [0, 1]` and
/// returns the resulting system failure probability — the system-level
/// Fig. 4 trajectory as the machine is improved uniformly.
///
/// # Errors
///
/// * [`ModelError::InvalidFactor`] if `scale` is not in `[0, 1]`.
/// * [`ModelError::UnknownClass`] if the profile mentions an absent class.
pub fn system_failure_with_machine_scaled(
    model: &SequentialModel,
    profile: &DemandProfile,
    scale: f64,
) -> Result<Probability, ModelError> {
    let compiled = model.compiled();
    let bound = compiled.bind_profile(profile)?;
    system_failure_scaled_compiled(compiled, &bound, scale)
}

/// The compiled-form core of [`system_failure_with_machine_scaled`]: reuse a
/// bound profile across the points of a sweep.
///
/// # Errors
///
/// [`ModelError::InvalidFactor`] if `scale` is not in `[0, 1]`.
pub fn system_failure_scaled_compiled(
    compiled: &crate::CompiledModel,
    bound: &crate::CompiledProfile,
    scale: f64,
) -> Result<Probability, ModelError> {
    if scale.is_nan() || !(0.0..=1.0).contains(&scale) {
        return Err(ModelError::InvalidFactor {
            value: scale,
            context: "machine failure scale",
        });
    }
    let mut total = 0.0;
    for (idx, w) in bound.iter() {
        let cp = compiled.params_at(idx);
        let scaled_pmf = cp.p_mf().value() * scale;
        total += w * (cp.p_hf_given_ms().value() + scaled_pmf * cp.coherence_index());
    }
    Ok(Probability::clamped(total))
}

/// [`system_failure_scaled_compiled`] for a batch of scale points:
/// [`crate::compiled::SCENARIO_LANES`] independent scale evaluations
/// advance per profile entry, each lane computing the exact scalar
/// expression tree in the exact scalar entry order — bit-identical to
/// calling the scalar form per point (which the remainder tail does). The
/// per-entry profile weight, intercept, machine failure and coherence
/// index are gathered once for the whole batch.
///
/// # Errors
///
/// [`ModelError::InvalidFactor`] for the lowest-indexed scale outside
/// `[0, 1]`, matching the scalar sweep's fail-fast order.
pub fn system_failure_scaled_batch(
    compiled: &crate::CompiledModel,
    bound: &crate::CompiledProfile,
    scales: &[f64],
) -> Result<Vec<Probability>, ModelError> {
    for &scale in scales {
        if scale.is_nan() || !(0.0..=1.0).contains(&scale) {
            return Err(ModelError::InvalidFactor {
                value: scale,
                context: "machine failure scale",
            });
        }
    }
    const LANES: usize = crate::compiled::SCENARIO_LANES;
    let entries: Vec<(f64, f64, f64, f64)> = bound
        .iter()
        .map(|(idx, w)| {
            let cp = compiled.params_at(idx);
            (
                w,
                cp.p_hf_given_ms().value(),
                cp.p_mf().value(),
                cp.coherence_index(),
            )
        })
        .collect();
    let mut out = Vec::with_capacity(scales.len());
    let mut blocks = scales.chunks_exact(LANES);
    for block in &mut blocks {
        let mut acc = [0.0_f64; LANES];
        for &(w, hf_ms, p_mf, t) in &entries {
            for (a, &scale) in acc.iter_mut().zip(block) {
                *a += w * (hf_ms + (p_mf * scale) * t);
            }
        }
        out.extend(acc.map(Probability::clamped));
    }
    for &scale in blocks.remainder() {
        out.push(system_failure_scaled_compiled(compiled, bound, scale)?);
    }
    Ok(out)
}

/// Sweeps the system-level Fig. 4 trajectory: `points` values of the
/// uniform machine-failure scale in `[0, 1]`, returning
/// `(scale, p_system_failure)` pairs. The left end is the §6.1 floor, the
/// right end the current system failure. Evaluated through the
/// lane-blocked [`system_failure_scaled_batch`] kernel.
///
/// # Errors
///
/// As [`system_failure_with_machine_scaled`], plus
/// [`ModelError::InvalidFactor`] if `points < 2`.
pub fn system_machine_sweep(
    model: &SequentialModel,
    profile: &DemandProfile,
    points: usize,
) -> Result<Vec<(f64, f64)>, ModelError> {
    if points < 2 {
        return Err(ModelError::InvalidFactor {
            value: points as f64,
            context: "sweep point count (need at least 2)",
        });
    }
    // Compile and bind once; the per-point evaluation is pure slice work.
    let compiled = model.compiled();
    let bound = compiled.bind_profile(profile)?;
    let scales: Vec<f64> = (0..points)
        .map(|i| i as f64 / (points - 1) as f64)
        .collect();
    let failures = system_failure_scaled_batch(compiled, &bound, &scales)?;
    Ok(scales
        .into_iter()
        .zip(failures)
        .map(|(scale, p)| (scale, p.value()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassParams, ModelParams};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn model() -> SequentialModel {
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
    fn line_reproduces_class_failure_at_current_pmf() {
        let m = model();
        for class in ["easy", "difficult"] {
            let id = ClassId::new(class);
            let line = machine_response_line(&m, &id).unwrap();
            let at_current = line.failure_at(line.current_p_mf());
            assert!(
                (at_current.value() - m.class_failure(&id).unwrap().value()).abs() < 1e-12,
                "{class}"
            );
        }
    }

    #[test]
    fn line_endpoints_are_the_conditionals() {
        let line = machine_response_line(&model(), &ClassId::new("difficult")).unwrap();
        assert!((line.failure_at(Probability::ZERO).value() - 0.4).abs() < 1e-12);
        assert!((line.failure_at(Probability::ONE).value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn sweep_is_monotone_for_positive_t() {
        let line = machine_response_line(&model(), &ClassId::new("easy")).unwrap();
        let series = line.sweep(11).unwrap();
        assert_eq!(series.len(), 11);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!((series[0].1 - 0.14).abs() < 1e-12);
        assert!((series[10].1 - 0.18).abs() < 1e-12);
    }

    #[test]
    fn sweep_rejects_single_point() {
        let line = machine_response_line(&model(), &ClassId::new("easy")).unwrap();
        assert!(matches!(
            line.sweep(1),
            Err(ModelError::InvalidFactor { .. })
        ));
        assert!(matches!(
            system_machine_sweep(&model(), &trial(), 0),
            Err(ModelError::InvalidFactor { .. })
        ));
    }

    #[test]
    fn lines_for_all_classes() {
        let lines = machine_response_lines(&model());
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].class().name(), "difficult");
    }

    #[test]
    fn lower_bound_is_weighted_intercepts() {
        let lb = system_lower_bound(&model(), &trial()).unwrap();
        assert!((lb.value() - (0.8 * 0.14 + 0.2 * 0.4)).abs() < 1e-12);
        // The floor is below the current failure probability.
        assert!(lb.value() < model().system_failure(&trial()).unwrap().value());
    }

    #[test]
    fn scaling_machine_interpolates_between_bound_and_current() {
        let m = model();
        let profile = trial();
        let at_one = system_failure_with_machine_scaled(&m, &profile, 1.0).unwrap();
        let at_zero = system_failure_with_machine_scaled(&m, &profile, 0.0).unwrap();
        assert!((at_one.value() - m.system_failure(&profile).unwrap().value()).abs() < 1e-12);
        assert!(
            (at_zero.value() - system_lower_bound(&m, &profile).unwrap().value()).abs() < 1e-12
        );
        let mid = system_failure_with_machine_scaled(&m, &profile, 0.5).unwrap();
        assert!(at_zero < mid && mid < at_one);
    }

    #[test]
    fn scale_validated() {
        let m = model();
        assert!(system_failure_with_machine_scaled(&m, &trial(), -0.1).is_err());
        assert!(system_failure_with_machine_scaled(&m, &trial(), 1.1).is_err());
        assert!(system_failure_with_machine_scaled(&m, &trial(), f64::NAN).is_err());
    }

    #[test]
    fn system_sweep_endpoints() {
        let m = model();
        let series = system_machine_sweep(&m, &trial(), 5).unwrap();
        assert_eq!(series.len(), 5);
        assert!((series[0].1 - system_lower_bound(&m, &trial()).unwrap().value()).abs() < 1e-12);
        assert!((series[4].1 - m.system_failure(&trial()).unwrap().value()).abs() < 1e-12);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn negative_t_line_decreases() {
        // Reader does better when machine fails (extra scrutiny).
        let m = SequentialModel::new(
            ModelParams::builder()
                .class("odd", ClassParams::new(p(0.3), p(0.5), p(0.2)))
                .build()
                .unwrap(),
        );
        let line = machine_response_line(&m, &ClassId::new("odd")).unwrap();
        assert!(line.coherence_index() < 0.0);
        let series = line.sweep(5).unwrap();
        assert!(series[4].1 < series[0].1);
    }
}
