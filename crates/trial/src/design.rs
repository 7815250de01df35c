//! Trial specifications.

use hmdiv_prob::Probability;

use crate::TrialError;

/// A controlled-trial specification.
///
/// The defining compromise (paper §1): a trial of practical size must be
/// *enriched* — its cancer prevalence is far above the field's — which is
/// exactly why the per-class parameters must be carried to the field via the
/// model rather than the trial's raw failure rate.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialDesign {
    name: String,
    cases: u64,
    enriched_prevalence: Probability,
    seed: u64,
    threads: usize,
    oversample: Vec<(String, f64)>,
}

impl TrialDesign {
    /// Creates a design.
    ///
    /// # Errors
    ///
    /// [`TrialError::InvalidDesign`] if `cases == 0` or the prevalence is
    /// not a valid probability in `(0, 1]`.
    pub fn new(
        name: impl Into<String>,
        cases: u64,
        enriched_prevalence: f64,
        seed: u64,
    ) -> Result<Self, TrialError> {
        if cases == 0 {
            return Err(TrialError::InvalidDesign {
                value: 0.0,
                context: "case count",
            });
        }
        if enriched_prevalence.is_nan() || enriched_prevalence <= 0.0 || enriched_prevalence > 1.0 {
            return Err(TrialError::InvalidDesign {
                value: enriched_prevalence,
                context: "enriched prevalence",
            });
        }
        Ok(TrialDesign {
            name: name.into(),
            cases,
            enriched_prevalence: Probability::new(enriched_prevalence).map_err(TrialError::from)?,
            seed,
            threads: 4,
            oversample: Vec::new(),
        })
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cases read in the trial.
    #[must_use]
    pub fn cases(&self) -> u64 {
        self.cases
    }

    /// The enriched cancer prevalence of the trial case set.
    #[must_use]
    pub fn enriched_prevalence(&self) -> Probability {
        self.enriched_prevalence
    }

    /// The RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker threads used to run the trial.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A copy with a different thread count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Oversamples a cancer class by `factor` in the trial case set —
    /// trials deliberately include "interesting" (difficult) cases beyond
    /// their field share, distorting the demand profile the paper's
    /// reweighting must undo.
    ///
    /// # Errors
    ///
    /// [`TrialError::InvalidDesign`] if `factor` is not strictly positive
    /// and finite.
    pub fn with_oversample(
        mut self,
        class: impl Into<String>,
        factor: f64,
    ) -> Result<Self, TrialError> {
        if factor.is_nan() || factor <= 0.0 || factor.is_infinite() {
            return Err(TrialError::InvalidDesign {
                value: factor,
                context: "oversample factor",
            });
        }
        self.oversample.push((class.into(), factor));
        Ok(self)
    }

    /// The configured per-class oversampling factors.
    #[must_use]
    pub fn oversample(&self) -> &[(String, f64)] {
        &self.oversample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_design() {
        let d = TrialDesign::new("pilot", 1000, 0.5, 1).unwrap();
        assert_eq!(d.name(), "pilot");
        assert_eq!(d.cases(), 1000);
        assert_eq!(d.enriched_prevalence().value(), 0.5);
        assert_eq!(d.with_threads(0).threads(), 1);
    }

    #[test]
    fn invalid_designs_rejected() {
        assert!(TrialDesign::new("x", 0, 0.5, 1).is_err());
        assert!(TrialDesign::new("x", 10, 0.0, 1).is_err());
        assert!(TrialDesign::new("x", 10, 1.5, 1).is_err());
        assert!(TrialDesign::new("x", 10, -0.5, 1).is_err());
        assert!(TrialDesign::new("x", 10, 1.0, 1).is_ok());
    }
}
