//! Extrapolation-validity advice.
//!
//! The paper is explicit that its clear-box predictions are trustworthy
//! only under conditions: classes must be homogeneous, parameter changes
//! small enough not to trigger reader adaptation ("we should expect this
//! figure only to be a good guide given small changes of PMf"), and the
//! target conditions not too far from the measured ones. This module turns
//! those prose caveats into machine-checked warnings attached to a
//! prediction: an analyst gets not just a number but the list of modelling
//! assumptions the number leans on.

use std::fmt;

use crate::extrapolate::Scenario;
use crate::{DemandProfile, ModelError, SequentialModel};

/// One warning about an extrapolation's validity.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Warning {
    /// The target demand profile differs substantially from the measured
    /// one (total-variation distance above threshold): per-class parameters
    /// may not transfer if classes are not truly homogeneous (§5 item 1,
    /// §6.2 caveat).
    ProfileShift {
        /// Total-variation distance between the profiles.
        total_variation: f64,
    },
    /// A class's machine failure probability changes by a large factor:
    /// readers may adapt (complacency / distrust), invalidating the fixed
    /// conditionals (§5 item 4, §6.1 "t may not remain constant").
    LargeMachineChange {
        /// The class affected.
        class: String,
        /// Ratio `new PMf / old PMf` (0 when eliminated).
        ratio: f64,
    },
    /// A large machine change hits a class with a big coherence index: the
    /// prediction is maximally sensitive to the no-adaptation assumption
    /// there.
    AdaptationSensitive {
        /// The class affected.
        class: String,
        /// Its coherence index `t(x)`.
        coherence_index: f64,
    },
    /// The scenario changes reader parameters outright — the model cannot
    /// say where those new values would come from; they must be measured,
    /// not assumed (§5 item 2).
    ReaderChangeUnvalidated {
        /// The class affected.
        class: String,
    },
    /// A class carries extreme probability mass (`p(x)` above threshold)
    /// while its parameters were necessarily estimated from the *other*
    /// profile's case counts — estimation precision may not follow the new
    /// importance.
    WeightConcentration {
        /// The class affected.
        class: String,
        /// Its weight in the target profile.
        weight: f64,
    },
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Warning::ProfileShift { total_variation } => write!(
                f,
                "target profile is far from the measured one (TV distance {total_variation:.2}): class-homogeneity is load-bearing"
            ),
            Warning::LargeMachineChange { class, ratio } => write!(
                f,
                "machine failure probability on `{class}` changes by factor {ratio:.2}: readers may adapt"
            ),
            Warning::AdaptationSensitive { class, coherence_index } => write!(
                f,
                "`{class}` has t(x) = {coherence_index:.2} and a large machine change: prediction is sensitive to the no-adaptation assumption"
            ),
            Warning::ReaderChangeUnvalidated { class } => write!(
                f,
                "scenario sets reader conditionals on `{class}` by fiat: those values need measurement"
            ),
            Warning::WeightConcentration { class, weight } => write!(
                f,
                "`{class}` carries {:.0}% of the target profile: its estimation precision dominates",
                weight * 100.0
            ),
        }
    }
}

/// Thresholds for the checks; [`Thresholds::default`] mirrors the paper's
/// qualitative guidance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// TV distance above which a profile shift is flagged.
    pub profile_shift_tv: f64,
    /// Machine-change ratio beyond which adaptation is flagged (flags both
    /// `ratio > x` and `ratio < 1/x`).
    pub machine_change_factor: f64,
    /// Coherence-index magnitude that makes a machine change
    /// adaptation-sensitive.
    pub sensitive_coherence: f64,
    /// Target-profile weight above which concentration is flagged.
    pub concentration_weight: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            profile_shift_tv: 0.15,
            machine_change_factor: 3.0,
            sensitive_coherence: 0.3,
            concentration_weight: 0.7,
        }
    }
}

/// Audits a scenario-based extrapolation and returns the list of warnings
/// (empty = all checks passed).
///
/// `measured_profile` is where the parameters came from;
/// `target_profile` is where the prediction applies.
///
/// # Errors
///
/// * [`ModelError::MissingClass`] on model/profile mismatches.
/// * Scenario application errors.
///
/// # Example
///
/// ```
/// use hmdiv_core::advice::{audit_extrapolation, Thresholds, Warning};
/// use hmdiv_core::extrapolate::Scenario;
/// use hmdiv_core::{paper, ClassId};
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// // The paper's own table-3 scenario trips the §6.1 adaptation caveat.
/// let warnings = audit_extrapolation(
///     &paper::example_model()?,
///     &Scenario::new().improve_machine(ClassId::new("difficult"), 10.0),
///     &paper::trial_profile()?,
///     &paper::field_profile()?,
///     &Thresholds::default(),
/// )?;
/// assert!(warnings.iter().any(|w| matches!(w, Warning::AdaptationSensitive { .. })));
/// # Ok(())
/// # }
/// ```
pub fn audit_extrapolation(
    base: &SequentialModel,
    scenario: &Scenario,
    measured_profile: &DemandProfile,
    target_profile: &DemandProfile,
    thresholds: &Thresholds,
) -> Result<Vec<Warning>, ModelError> {
    let mut warnings = Vec::new();
    // Profile shift (only comparable when the class sets match positionally).
    if let Ok(tv) = measured_profile.total_variation(target_profile) {
        if tv > thresholds.profile_shift_tv {
            warnings.push(Warning::ProfileShift {
                total_variation: tv,
            });
        }
    } else {
        // Different class sets are the maximal shift.
        warnings.push(Warning::ProfileShift {
            total_variation: 1.0,
        });
    }
    let after = scenario.apply(base)?;
    for (class, weight) in target_profile.iter() {
        let old = base.params().class(class)?;
        let new = after.params().class(class)?;
        let old_mf = old.p_mf().value();
        let new_mf = new.p_mf().value();
        if old_mf > 0.0 {
            let ratio = new_mf / old_mf;
            let factor = thresholds.machine_change_factor;
            if ratio > factor || ratio < 1.0 / factor {
                warnings.push(Warning::LargeMachineChange {
                    class: class.name().to_owned(),
                    ratio,
                });
                if new.coherence_index().abs() > thresholds.sensitive_coherence {
                    warnings.push(Warning::AdaptationSensitive {
                        class: class.name().to_owned(),
                        coherence_index: new.coherence_index(),
                    });
                }
            }
        }
        if old.p_hf_given_ms() != new.p_hf_given_ms() || old.p_hf_given_mf() != new.p_hf_given_mf()
        {
            warnings.push(Warning::ReaderChangeUnvalidated {
                class: class.name().to_owned(),
            });
        }
        if weight.value() > thresholds.concentration_weight {
            warnings.push(Warning::WeightConcentration {
                class: class.name().to_owned(),
                weight: weight.value(),
            });
        }
    }
    Ok(warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptation::AdaptationResponse;
    use crate::{paper, ClassId};
    use hmdiv_prob::Probability;

    fn defaults() -> Thresholds {
        Thresholds::default()
    }

    #[test]
    fn paper_table3_difficult_scenario_is_flagged_for_adaptation() {
        // ×10 machine improvement on a high-t class: exactly the §6.1
        // caveat.
        let base = paper::example_model().unwrap();
        let scenario = Scenario::new().improve_machine(ClassId::new("difficult"), 10.0);
        let warnings = audit_extrapolation(
            &base,
            &scenario,
            &paper::trial_profile().unwrap(),
            &paper::field_profile().unwrap(),
            &defaults(),
        )
        .unwrap();
        assert!(warnings.iter().any(
            |w| matches!(w, Warning::LargeMachineChange { class, .. } if class == "difficult")
        ));
        assert!(warnings.iter().any(
            |w| matches!(w, Warning::AdaptationSensitive { class, .. } if class == "difficult")
        ));
        // The 90%-easy field profile triggers the concentration check.
        assert!(warnings
            .iter()
            .any(|w| matches!(w, Warning::WeightConcentration { class, .. } if class == "easy")));
    }

    #[test]
    fn small_changes_pass_quietly() {
        let base = paper::example_model().unwrap();
        let scenario = Scenario::new().improve_machine(ClassId::new("easy"), 1.5);
        // Same profile both sides, easy class below concentration only if
        // threshold raised.
        let mut th = defaults();
        th.concentration_weight = 0.95;
        let warnings = audit_extrapolation(
            &base,
            &scenario,
            &paper::trial_profile().unwrap(),
            &paper::trial_profile().unwrap(),
            &th,
        )
        .unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn profile_shift_flagged_at_distance() {
        let base = paper::example_model().unwrap();
        let trial = paper::trial_profile().unwrap();
        let skewed = DemandProfile::builder()
            .class("easy", 0.5)
            .class("difficult", 0.5)
            .build()
            .unwrap();
        let warnings =
            audit_extrapolation(&base, &Scenario::new(), &trial, &skewed, &defaults()).unwrap();
        assert!(warnings.iter().any(
            |w| matches!(w, Warning::ProfileShift { total_variation } if *total_variation > 0.25)
        ));
    }

    #[test]
    fn reader_fiat_changes_flagged() {
        let base = paper::example_model().unwrap();
        let p = |v: f64| Probability::new(v).unwrap();
        let scenario = Scenario::new().set_reader(ClassId::new("easy"), p(0.1), p(0.2));
        let warnings = audit_extrapolation(
            &base,
            &scenario,
            &paper::trial_profile().unwrap(),
            &paper::trial_profile().unwrap(),
            &defaults(),
        )
        .unwrap();
        assert!(warnings
            .iter()
            .any(|w| matches!(w, Warning::ReaderChangeUnvalidated { class } if class == "easy")));
    }

    #[test]
    fn adaptation_coupled_scenarios_flag_reader_changes_too() {
        // When the scenario itself couples reader parameters to the machine
        // change, the audit reports the reader movement — by design: the
        // adapted values are a model, not a measurement.
        let base = paper::example_model().unwrap();
        let scenario = Scenario::new()
            .improve_machine(ClassId::new("difficult"), 10.0)
            .with_adaptation(AdaptationResponse::Complacency { strength: 0.5 });
        let warnings = audit_extrapolation(
            &base,
            &scenario,
            &paper::trial_profile().unwrap(),
            &paper::trial_profile().unwrap(),
            &defaults(),
        )
        .unwrap();
        assert!(warnings.iter().any(
            |w| matches!(w, Warning::ReaderChangeUnvalidated { class } if class == "difficult")
        ));
    }

    #[test]
    fn warnings_display_nonempty() {
        let all = [
            Warning::ProfileShift {
                total_variation: 0.3,
            },
            Warning::LargeMachineChange {
                class: "x".into(),
                ratio: 0.1,
            },
            Warning::AdaptationSensitive {
                class: "x".into(),
                coherence_index: 0.5,
            },
            Warning::ReaderChangeUnvalidated { class: "x".into() },
            Warning::WeightConcentration {
                class: "x".into(),
                weight: 0.9,
            },
        ];
        for w in all {
            assert!(!w.to_string().is_empty());
        }
    }

    #[test]
    fn disjoint_class_sets_are_maximal_shift() {
        let base = paper::example_model().unwrap();
        let trial = paper::trial_profile().unwrap();
        let other = DemandProfile::builder().class("easy", 1.0).build().unwrap();
        let warnings =
            audit_extrapolation(&base, &Scenario::new(), &trial, &other, &defaults()).unwrap();
        assert!(warnings.iter().any(
            |w| matches!(w, Warning::ProfileShift { total_variation } if *total_variation == 1.0)
        ));
    }
}
