//! Reader-adaptation models: indirect effects of machine reliability on
//! human behaviour (§5 items 3–4; automation bias, Skitka et al. \[7\]).
//!
//! The paper warns that its linear Fig. 4 analysis only holds for *small*
//! changes in `PMf`: readers who perceive a more reliable machine may become
//! complacent (raising `PHf|Mf` — they stop catching the machine's rare
//! failures), while readers who perceive an unreliable machine may come to
//! distrust it (pulling `PHf|Mf` back toward `PHf|Ms`, i.e. `t → 0`). An
//! [`AdaptationResponse`] is a rule that, given a class's old and new machine
//! failure probabilities, adjusts the reader's conditional failure
//! probabilities. Extrapolation scenarios apply it after machine changes.

use std::fmt;

use hmdiv_prob::Probability;

use crate::{ClassParams, ModelError};

/// A named model of how readers adapt to a change in machine reliability.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum AdaptationResponse {
    /// No adaptation: reader conditionals are unchanged (the paper's default
    /// working assumption, justified when machine failures are too rare for
    /// the reader to notice the change).
    None,
    /// Complacency / automation bias: as the machine's failure probability
    /// falls, the reader relies on it more, and failures of the machine are
    /// caught less often. `PHf|Mf` moves toward 1 by a fraction of the
    /// relative improvement, scaled by `strength ∈ [0, 1]`:
    ///
    /// ```text
    /// PHf|Mf' = PHf|Mf + strength·(1 − PHf|Mf)·(1 − PMf'/PMf)
    /// ```
    ///
    /// `PHf|Ms` is left unchanged: complacency in the automation-bias
    /// literature (Skitka et al.) is an *omission* effect — failures of the
    /// automation go uncaught — not a change in performance when the
    /// automation is right.
    Complacency {
        /// Fraction of the relative machine improvement converted into
        /// reader reliance.
        strength: f64,
    },
    /// Distrust: as the machine's failure probability rises, the reader
    /// discounts its output; both conditionals move toward their midpoint
    /// (`t → 0`) by `strength` of the relative degradation.
    Distrust {
        /// Fraction of the relative machine degradation converted into
        /// discounting.
        strength: f64,
    },
    /// Heightened vigilance: a visibly fallible machine trains the reader to
    /// double-check; `PHf|Mf` falls by `strength` of the relative
    /// degradation of the machine.
    Vigilance {
        /// Fraction of the relative machine degradation converted into
        /// extra scrutiny.
        strength: f64,
    },
}

impl AdaptationResponse {
    /// Validates the response's parameters.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFactor`] if a strength is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), ModelError> {
        let strength = match self {
            AdaptationResponse::None => return Ok(()),
            AdaptationResponse::Complacency { strength }
            | AdaptationResponse::Distrust { strength }
            | AdaptationResponse::Vigilance { strength } => *strength,
        };
        if strength.is_nan() || !(0.0..=1.0).contains(&strength) {
            return Err(ModelError::InvalidFactor {
                value: strength,
                context: "adaptation strength",
            });
        }
        Ok(())
    }

    /// Applies the response to a class whose machine failure probability
    /// changed from `old_p_mf` (in `params`) to `params.p_mf()`.
    ///
    /// Returns the parameters with adjusted reader conditionals. If the
    /// machine did not change, the parameters are returned unchanged.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFactor`] if the response is invalid (see
    /// [`AdaptationResponse::validate`]).
    pub fn apply(
        &self,
        old_p_mf: Probability,
        params: &ClassParams,
    ) -> Result<ClassParams, ModelError> {
        self.validate()?;
        let new_p_mf = params.p_mf();
        if old_p_mf == new_p_mf || old_p_mf.is_zero() {
            return Ok(*params);
        }
        let ratio = new_p_mf.value() / old_p_mf.value();
        match self {
            AdaptationResponse::None => Ok(*params),
            AdaptationResponse::Complacency { strength } => {
                if ratio >= 1.0 {
                    return Ok(*params); // complacency only reacts to improvement
                }
                let improvement = 1.0 - ratio;
                let hf_mf = params.p_hf_given_mf().value();
                let new_hf_mf = hf_mf + strength * (1.0 - hf_mf) * improvement;
                Ok(params.with_reader(params.p_hf_given_ms(), Probability::clamped(new_hf_mf)))
            }
            AdaptationResponse::Distrust { strength } => {
                if ratio <= 1.0 {
                    return Ok(*params); // distrust only reacts to degradation
                }
                let degradation = (ratio - 1.0).min(1.0);
                let hf_ms = params.p_hf_given_ms().value();
                let hf_mf = params.p_hf_given_mf().value();
                let mid = (hf_ms + hf_mf) / 2.0;
                let pull = strength * degradation;
                Ok(params.with_reader(
                    Probability::clamped(hf_ms + (mid - hf_ms) * pull),
                    Probability::clamped(hf_mf + (mid - hf_mf) * pull),
                ))
            }
            AdaptationResponse::Vigilance { strength } => {
                if ratio <= 1.0 {
                    return Ok(*params);
                }
                let degradation = (ratio - 1.0).min(1.0);
                let hf_mf = params.p_hf_given_mf().value();
                let new_hf_mf = hf_mf * (1.0 - strength * degradation);
                Ok(params.with_reader(params.p_hf_given_ms(), Probability::clamped(new_hf_mf)))
            }
        }
    }
}

impl Default for AdaptationResponse {
    /// The default is no adaptation.
    fn default() -> Self {
        AdaptationResponse::None
    }
}

impl fmt::Display for AdaptationResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptationResponse::None => write!(f, "none"),
            AdaptationResponse::Complacency { strength } => write!(f, "complacency({strength})"),
            AdaptationResponse::Distrust { strength } => write!(f, "distrust({strength})"),
            AdaptationResponse::Vigilance { strength } => write!(f, "vigilance({strength})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn difficult() -> ClassParams {
        ClassParams::new(p(0.41), p(0.4), p(0.9))
    }

    #[test]
    fn none_is_identity() {
        let improved = difficult().with_machine_improved(10.0).unwrap();
        let adapted = AdaptationResponse::None.apply(p(0.41), &improved).unwrap();
        assert_eq!(adapted, improved);
    }

    #[test]
    fn complacency_raises_hf_given_mf_on_improvement() {
        let improved = difficult().with_machine_improved(10.0).unwrap();
        let adapted = AdaptationResponse::Complacency { strength: 0.5 }
            .apply(p(0.41), &improved)
            .unwrap();
        assert!(adapted.p_hf_given_mf() > improved.p_hf_given_mf());
        assert_eq!(adapted.p_hf_given_ms(), improved.p_hf_given_ms());
        // Machine parameter untouched by the adaptation itself.
        assert_eq!(adapted.p_mf(), improved.p_mf());
    }

    #[test]
    fn complacency_ignores_degradation() {
        let degraded = difficult().with_p_mf(p(0.8));
        let adapted = AdaptationResponse::Complacency { strength: 0.5 }
            .apply(p(0.41), &degraded)
            .unwrap();
        assert_eq!(adapted, degraded);
    }

    #[test]
    fn distrust_pulls_t_toward_zero() {
        let degraded = difficult().with_p_mf(p(0.8));
        let adapted = AdaptationResponse::Distrust { strength: 0.8 }
            .apply(p(0.41), &degraded)
            .unwrap();
        assert!(adapted.coherence_index() < degraded.coherence_index());
        assert!(adapted.coherence_index() >= 0.0);
        // Midpoint preserved: both conditionals moved symmetrically.
        let old_mid = (degraded.p_hf_given_ms().value() + degraded.p_hf_given_mf().value()) / 2.0;
        let new_mid = (adapted.p_hf_given_ms().value() + adapted.p_hf_given_mf().value()) / 2.0;
        assert!((old_mid - new_mid).abs() < 1e-12);
    }

    #[test]
    fn vigilance_lowers_hf_given_mf_on_degradation() {
        let degraded = difficult().with_p_mf(p(0.8));
        let adapted = AdaptationResponse::Vigilance { strength: 0.5 }
            .apply(p(0.41), &degraded)
            .unwrap();
        assert!(adapted.p_hf_given_mf() < degraded.p_hf_given_mf());
        assert_eq!(adapted.p_hf_given_ms(), degraded.p_hf_given_ms());
    }

    #[test]
    fn no_machine_change_is_identity_for_all() {
        for response in [
            AdaptationResponse::Complacency { strength: 1.0 },
            AdaptationResponse::Distrust { strength: 1.0 },
            AdaptationResponse::Vigilance { strength: 1.0 },
        ] {
            let adapted = response.apply(p(0.41), &difficult()).unwrap();
            assert_eq!(adapted, difficult(), "{response}");
        }
    }

    #[test]
    fn strength_validated() {
        for bad in [-0.1, 1.1, f64::NAN] {
            assert!(AdaptationResponse::Complacency { strength: bad }
                .validate()
                .is_err());
            assert!(AdaptationResponse::Distrust { strength: bad }
                .validate()
                .is_err());
            assert!(AdaptationResponse::Vigilance { strength: bad }
                .validate()
                .is_err());
        }
        assert!(AdaptationResponse::None.validate().is_ok());
    }

    #[test]
    fn zero_old_pmf_is_identity() {
        let params = ClassParams::new(p(0.1), p(0.2), p(0.6));
        let adapted = AdaptationResponse::Complacency { strength: 0.5 }
            .apply(Probability::ZERO, &params)
            .unwrap();
        assert_eq!(adapted, params);
    }

    #[test]
    fn full_complacency_can_erase_machine_benefit() {
        // With strength 1 and a 10× improvement, PHf|Mf rises sharply: the
        // complacent reader converts machine reliability into own fragility.
        let improved = difficult().with_machine_improved(10.0).unwrap();
        let adapted = AdaptationResponse::Complacency { strength: 1.0 }
            .apply(p(0.41), &improved)
            .unwrap();
        // t grew relative to the non-adapted case.
        assert!(adapted.coherence_index() > improved.coherence_index());
    }
}
