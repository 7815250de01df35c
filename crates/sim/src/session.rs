//! Reading sessions: reader drift over time.
//!
//! §5 item 3: "the behaviour of the readers … will evolve over time as they
//! learn more about the behaviour of the CADT, e.g., becoming more
//! complacent about relying on its prompts, or more skilled in detecting its
//! failures." This module simulates a long reading session in which the
//! reader's parameters drift:
//!
//! * **fatigue** — the lapse rate climbs with cases read;
//! * **trust adaptation** — prompt trust moves toward the CADT's observed
//!   precision (spurious prompts erode trust, confirmed prompts build it);
//! * **complacency** — as trust grows, neglect of unprompted regions grows
//!   with it.
//!
//! The output is a per-batch time series of emergent parameters, the data
//! one would need to decide whether the paper's static per-class model is
//! adequate over a session, or must be refit per period.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cadt::Cadt;
use crate::case::CaseKind;
use crate::population::PopulationSpec;
use crate::reader::Reader;
use crate::SimError;

/// Drift dynamics for a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Added to the lapse rate per 1000 cases read (fatigue), clamped so the
    /// rate stays in `[0, 1]`.
    pub fatigue_per_1000: f64,
    /// Learning rate for trust adaptation in `[0, 1]`: after each prompted
    /// case, trust moves this fraction toward 1 (if the prompt marked a
    /// real lesion) or toward 0 (if all prompts were spurious).
    pub trust_learning_rate: f64,
    /// Fraction of trust converted into unprompted-region neglect
    /// (complacency coupling), in `[0, 1]`.
    pub complacency_coupling: f64,
}

impl DriftConfig {
    /// No drift: the session degenerates to the static reader.
    #[must_use]
    pub fn none() -> Self {
        DriftConfig {
            fatigue_per_1000: 0.0,
            trust_learning_rate: 0.0,
            complacency_coupling: 0.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.fatigue_per_1000.is_nan() || self.fatigue_per_1000 < 0.0 {
            return Err(SimError::InvalidConfig {
                value: self.fatigue_per_1000,
                context: "fatigue per 1000 cases",
            });
        }
        for (value, context) in [
            (self.trust_learning_rate, "trust learning rate"),
            (self.complacency_coupling, "complacency coupling"),
        ] {
            if value.is_nan() || !(0.0..=1.0).contains(&value) {
                return Err(SimError::InvalidConfig { value, context });
            }
        }
        Ok(())
    }
}

/// Summary of one batch of a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSummary {
    /// Batch index (0-based).
    pub batch: usize,
    /// Cases in the batch.
    pub cases: u64,
    /// Cancer cases in the batch.
    pub cancers: u64,
    /// False negatives among the cancers.
    pub false_negatives: u64,
    /// The reader's lapse rate at the END of the batch.
    pub lapse_rate: f64,
    /// The reader's prompt trust at the end of the batch.
    pub prompt_trust: f64,
    /// The reader's unprompted neglect at the end of the batch.
    pub unprompted_neglect: f64,
}

impl BatchSummary {
    /// The batch false-negative rate, or `None` without cancers.
    #[must_use]
    pub fn fn_rate(&self) -> Option<f64> {
        (self.cancers > 0).then(|| self.false_negatives as f64 / self.cancers as f64)
    }
}

/// Runs a drifting session of `batches × batch_size` cases and returns the
/// per-batch time series.
///
/// # Errors
///
/// * [`SimError::EmptyRun`] for zero batches or batch size.
/// * Configuration validation errors.
pub fn run_session(
    population: &PopulationSpec,
    cadt: &Cadt,
    reader: &Reader,
    drift: &DriftConfig,
    batches: usize,
    batch_size: u64,
    seed: u64,
) -> Result<Vec<BatchSummary>, SimError> {
    if batches == 0 {
        return Err(SimError::EmptyRun {
            context: "batch count",
        });
    }
    if batch_size == 0 {
        return Err(SimError::EmptyRun {
            context: "batch size",
        });
    }
    drift.validate()?;
    reader.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = *reader;
    let mut out = Vec::with_capacity(batches);
    let mut case_id = 0u64;
    for batch in 0..batches {
        let mut cancers = 0u64;
        let mut false_negatives = 0u64;
        for _ in 0..batch_size {
            let case = population.sample_case(case_id, &mut rng);
            case_id += 1;
            let output = cadt.process(&case, &mut rng);
            let decision = current.read(&case, Some(&output), &mut rng);
            if case.kind == CaseKind::Cancer {
                cancers += 1;
                if !decision.recall {
                    false_negatives += 1;
                }
            }
            // Trust adaptation: only prompted cases teach anything.
            if output.any_prompt() {
                let informative = output.detected_cancer();
                let target = if informative { 1.0 } else { 0.0 };
                current.prompt_trust += drift.trust_learning_rate * (target - current.prompt_trust);
                current.prompt_trust = current.prompt_trust.clamp(0.0, 1.0);
                current.unprompted_neglect = (drift.complacency_coupling * current.prompt_trust)
                    .clamp(0.0, 1.0)
                    .max(reader.unprompted_neglect.min(1.0));
            }
            // Fatigue.
            current.lapse_rate =
                (current.lapse_rate + drift.fatigue_per_1000 / 1000.0).clamp(0.0, 1.0);
        }
        out.push(BatchSummary {
            batch,
            cases: batch_size,
            cancers,
            false_negatives,
            lapse_rate: current.lapse_rate,
            prompt_trust: current.prompt_trust,
            unprompted_neglect: current.unprompted_neglect,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn setup() -> (PopulationSpec, Cadt, Reader) {
        (
            scenario::trial_population().unwrap(),
            Cadt::default_detector().unwrap(),
            Reader::expert(),
        )
    }

    #[test]
    fn no_drift_keeps_parameters_fixed() {
        let (pop, cadt, reader) = setup();
        let series = run_session(&pop, &cadt, &reader, &DriftConfig::none(), 5, 500, 1).unwrap();
        assert_eq!(series.len(), 5);
        for batch in &series {
            assert_eq!(batch.lapse_rate, reader.lapse_rate);
            assert_eq!(batch.prompt_trust, reader.prompt_trust);
            assert!(batch.fn_rate().is_some());
        }
    }

    #[test]
    fn fatigue_raises_lapse_rate_monotonically() {
        let (pop, cadt, reader) = setup();
        let drift = DriftConfig {
            // +0.12 lapse rate per 1000 cases: 0.05 → 0.77 over the session.
            fatigue_per_1000: 0.12,
            trust_learning_rate: 0.0,
            complacency_coupling: 0.0,
        };
        let series = run_session(&pop, &cadt, &reader, &drift, 6, 1000, 2).unwrap();
        for pair in series.windows(2) {
            assert!(pair[1].lapse_rate >= pair[0].lapse_rate);
        }
        assert!(series.last().unwrap().lapse_rate > reader.lapse_rate + 0.5);
        // Fatigue shows up in the outcome: late batches miss more.
        let early: u64 = series[..2].iter().map(|b| b.false_negatives).sum();
        let early_cancers: u64 = series[..2].iter().map(|b| b.cancers).sum();
        let late: u64 = series[4..].iter().map(|b| b.false_negatives).sum();
        let late_cancers: u64 = series[4..].iter().map(|b| b.cancers).sum();
        let early_rate = early as f64 / early_cancers as f64;
        let late_rate = late as f64 / late_cancers as f64;
        assert!(late_rate > early_rate, "{early_rate} vs {late_rate}");
    }

    #[test]
    fn trust_adapts_toward_machine_precision() {
        let (pop, cadt, _) = setup();
        let mut skeptic = Reader::expert();
        skeptic.prompt_trust = 0.2;
        let drift = DriftConfig {
            fatigue_per_1000: 0.0,
            trust_learning_rate: 0.02,
            complacency_coupling: 0.0,
        };
        let series = run_session(&pop, &cadt, &skeptic, &drift, 4, 1000, 3).unwrap();
        // On the enriched population most prompted cases include a true
        // prompt, so trust should climb from 0.2.
        assert!(
            series.last().unwrap().prompt_trust > 0.4,
            "{:?}",
            series.last()
        );
    }

    #[test]
    fn complacency_couples_neglect_to_trust() {
        let (pop, cadt, reader) = setup();
        let drift = DriftConfig {
            fatigue_per_1000: 0.0,
            trust_learning_rate: 0.05,
            complacency_coupling: 0.8,
        };
        let series = run_session(&pop, &cadt, &reader, &drift, 4, 1000, 4).unwrap();
        let last = series.last().unwrap();
        assert!(last.unprompted_neglect >= reader.unprompted_neglect);
        assert!(
            (last.unprompted_neglect - 0.8 * last.prompt_trust).abs() < 0.05
                || last.unprompted_neglect >= reader.unprompted_neglect
        );
    }

    #[test]
    fn validation_errors() {
        let (pop, cadt, reader) = setup();
        assert!(run_session(&pop, &cadt, &reader, &DriftConfig::none(), 0, 10, 1).is_err());
        assert!(run_session(&pop, &cadt, &reader, &DriftConfig::none(), 1, 0, 1).is_err());
        let bad = DriftConfig {
            fatigue_per_1000: -1.0,
            ..DriftConfig::none()
        };
        assert!(run_session(&pop, &cadt, &reader, &bad, 1, 10, 1).is_err());
        let bad = DriftConfig {
            trust_learning_rate: 1.5,
            ..DriftConfig::none()
        };
        assert!(run_session(&pop, &cadt, &reader, &bad, 1, 10, 1).is_err());
    }
}
