//! The behavioural reader model.
//!
//! The reader performs the paper's two (not physically separable) subtasks:
//! *detecting* features worth examining and *classifying* the case into
//! recall / no recall. The model exposes the behavioural knobs the paper's
//! discussion turns on:
//!
//! * **perception / lapses** — detection is logistic in lesion subtlety and
//!   film difficulty; attentional lapses transiently degrade it (the CADT's
//!   design goal is "compensating e.g. for lapses of attention");
//! * **prompt following** — a prompted feature is *examined* with
//!   probability `prompt_trust`, and examination adds `prompt_benefit` of
//!   detection the reader would otherwise have missed;
//! * **automation bias** — when prompts are present, unprompted features
//!   get only `1 − unprompted_neglect` of normal attention ("cause the user
//!   to ignore those parts of a mammogram that the CADT has not prompted" —
//!   the misuse the tool's designers warn against, which the model can turn
//!   on to study the sequential-operation regime);
//! * **classification** — a found cancer is still misclassified with a
//!   probability increasing in film difficulty;
//! * **false positives** — spurious prompts and confusing films can
//!   persuade the reader to recall a healthy patient.

use rand::Rng;

use hmdiv_prob::Probability;

use crate::cadt::CadtOutput;
use crate::case::Case;
use crate::SimError;

/// The reader's final decision on a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReaderDecision {
    /// Whether the reader recalls the patient.
    pub recall: bool,
    /// Whether the reader personally noticed at least one true lesion
    /// (diagnostic for analyses; not observable in a real trial).
    pub noticed_lesion: bool,
}

/// Behavioural parameters of one reader.
///
/// All probabilities in `[0, 1]`; sharpness values strictly positive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reader {
    /// Perceptual skill in `[0, 1]`: the subtlety level at which unaided
    /// detection is 50% on an average film.
    pub perception: f64,
    /// Logistic sharpness of the detection response.
    pub sharpness: f64,
    /// How much overall film difficulty degrades detection, in `[0, 1]`.
    pub density_penalty: f64,
    /// Probability of an attentional lapse on a case.
    pub lapse_rate: f64,
    /// Perception lost during a lapse, in `[0, 1]`.
    pub lapse_penalty: f64,
    /// Probability of properly examining a prompted feature.
    pub prompt_trust: f64,
    /// Extra detection probability for an examined prompted feature:
    /// `p' = 1 − (1 − p)(1 − prompt_benefit)`.
    pub prompt_benefit: f64,
    /// Attention lost on unprompted features when prompts exist (automation
    /// bias), in `[0, 1]`.
    pub unprompted_neglect: f64,
    /// Interpretation skill in `[0, 1]`: difficulty level at which a *found*
    /// cancer is misclassified 50% of the time.
    pub interpretation: f64,
    /// Logistic sharpness of the classification response.
    pub interpret_sharpness: f64,
    /// Probability that one examined spurious prompt persuades recall on a
    /// healthy film.
    pub spurious_persuasion: f64,
    /// Intrinsic false-positive tendency on a maximally confusing healthy
    /// film (scales with difficulty).
    pub intrinsic_fp: f64,
}

impl Reader {
    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), SimError> {
        let unit_fields = [
            (self.perception, "reader perception"),
            (self.density_penalty, "reader density penalty"),
            (self.lapse_rate, "reader lapse rate"),
            (self.lapse_penalty, "reader lapse penalty"),
            (self.prompt_trust, "reader prompt trust"),
            (self.prompt_benefit, "reader prompt benefit"),
            (self.unprompted_neglect, "reader unprompted neglect"),
            (self.interpretation, "reader interpretation"),
            (self.spurious_persuasion, "reader spurious persuasion"),
            (self.intrinsic_fp, "reader intrinsic false-positive rate"),
        ];
        for (value, context) in unit_fields {
            if value.is_nan() || !(0.0..=1.0).contains(&value) {
                return Err(SimError::InvalidConfig { value, context });
            }
        }
        for (value, context) in [
            (self.sharpness, "reader sharpness"),
            (self.interpret_sharpness, "reader interpretation sharpness"),
        ] {
            if value.is_nan() || value <= 0.0 || value.is_infinite() {
                return Err(SimError::InvalidConfig { value, context });
            }
        }
        Ok(())
    }

    /// An experienced film reader.
    #[must_use]
    pub fn expert() -> Self {
        Reader {
            perception: 0.72,
            sharpness: 5.0,
            density_penalty: 0.3,
            lapse_rate: 0.05,
            lapse_penalty: 0.4,
            prompt_trust: 0.9,
            prompt_benefit: 0.75,
            unprompted_neglect: 0.1,
            interpretation: 0.85,
            interpret_sharpness: 4.0,
            spurious_persuasion: 0.04,
            intrinsic_fp: 0.12,
        }
    }

    /// A less qualified reader (the §7 configuration): weaker perception and
    /// interpretation, more lapses, more reliance on the prompts.
    #[must_use]
    pub fn novice() -> Self {
        Reader {
            perception: 0.55,
            sharpness: 4.0,
            density_penalty: 0.4,
            lapse_rate: 0.12,
            lapse_penalty: 0.5,
            prompt_trust: 0.95,
            prompt_benefit: 0.7,
            unprompted_neglect: 0.25,
            interpretation: 0.7,
            interpret_sharpness: 3.0,
            spurious_persuasion: 0.10,
            intrinsic_fp: 0.2,
        }
    }

    /// A copy with a different automation-bias level.
    #[must_use]
    pub fn with_unprompted_neglect(&self, unprompted_neglect: f64) -> Self {
        Reader {
            unprompted_neglect,
            ..*self
        }
    }

    /// A copy with a different lapse rate.
    #[must_use]
    pub fn with_lapse_rate(&self, lapse_rate: f64) -> Self {
        Reader {
            lapse_rate,
            ..*self
        }
    }

    /// A copy with a different prompt trust.
    #[must_use]
    pub fn with_prompt_trust(&self, prompt_trust: f64) -> Self {
        Reader {
            prompt_trust,
            ..*self
        }
    }

    /// Unaided detection probability for one lesion, before lapses and
    /// prompt effects.
    #[must_use]
    pub fn p_notice_lesion(&self, subtlety: f64, difficulty: f64) -> Probability {
        let x = self.sharpness * (self.perception - subtlety - self.density_penalty * difficulty);
        Probability::from_logit(x)
    }

    /// Misclassification probability for a *found* cancer on a film of the
    /// given difficulty.
    #[must_use]
    pub fn p_misclassify(&self, difficulty: f64) -> Probability {
        let x = self.interpret_sharpness * (difficulty - self.interpretation);
        Probability::from_logit(x)
    }

    /// Reviews the CADT's prompts *after* an unaided pass that decided "no
    /// recall" (the §3 procedure-1 second phase). Returns `true` if the
    /// review upgrades the decision to recall.
    ///
    /// Each prompted feature is examined with probability `prompt_trust`;
    /// examination detects the feature with the prompt-boosted probability,
    /// and a detection leads to recall unless misclassified. Examined
    /// spurious prompts can persuade recall with `spurious_persuasion`.
    /// Unprompted features are not revisited, so the unaided pass's misses
    /// stand — exactly the 1-out-of-2 detection structure of Fig. 2.
    pub fn review_prompts<R: Rng + ?Sized>(
        &self,
        case: &Case,
        output: &CadtOutput,
        rng: &mut R,
    ) -> bool {
        let mut found = false;
        for (i, lesion) in case.lesions.iter().enumerate() {
            if !output.prompted_lesions.get(i).copied().unwrap_or(false) {
                continue;
            }
            if rng.gen::<f64>() >= self.prompt_trust {
                continue; // prompt ignored
            }
            let base = self
                .p_notice_lesion(lesion.subtlety, case.difficulty)
                .value();
            let p = 1.0 - (1.0 - base) * (1.0 - self.prompt_benefit);
            if rng.gen::<f64>() < p {
                found = true;
            }
        }
        if found {
            return rng.gen::<f64>() >= self.p_misclassify(case.difficulty).value();
        }
        let mut p_fp = 0.0;
        for _ in 0..output.spurious_prompts {
            if rng.gen::<f64>() < self.prompt_trust {
                p_fp = 1.0 - (1.0 - p_fp) * (1.0 - self.spurious_persuasion);
            }
        }
        rng.gen::<f64>() < p_fp
    }

    /// Reads a case, optionally with CADT output (None = unaided reading).
    pub fn read<R: Rng + ?Sized>(
        &self,
        case: &Case,
        cadt: Option<&CadtOutput>,
        rng: &mut R,
    ) -> ReaderDecision {
        let lapsed = rng.gen::<f64>() < self.lapse_rate;
        let perception_scale = if lapsed {
            1.0 - self.lapse_penalty
        } else {
            1.0
        };
        let prompts_present = cadt.map(CadtOutput::any_prompt).unwrap_or(false);

        // Detection stage over true lesions.
        let mut noticed_lesion = false;
        for (i, lesion) in case.lesions.iter().enumerate() {
            let prompted = cadt
                .map(|out| out.prompted_lesions.get(i).copied().unwrap_or(false))
                .unwrap_or(false);
            let base = self
                .p_notice_lesion(lesion.subtlety, case.difficulty)
                .value()
                * perception_scale;
            let p = if prompted {
                if rng.gen::<f64>() < self.prompt_trust {
                    // Examined: the prompt recovers most of what the eye missed.
                    1.0 - (1.0 - base) * (1.0 - self.prompt_benefit)
                } else {
                    base
                }
            } else if prompts_present {
                // Automation bias: attention drawn away from unprompted areas.
                base * (1.0 - self.unprompted_neglect)
            } else {
                base
            };
            if rng.gen::<f64>() < p {
                noticed_lesion = true;
            }
        }

        // Classification stage.
        let recall = if noticed_lesion {
            rng.gen::<f64>() >= self.p_misclassify(case.difficulty).value()
        } else {
            // Nothing found: possible false-positive recall driven by
            // spurious prompts and film confusion.
            let spurious = cadt.map(|o| o.spurious_prompts).unwrap_or(0);
            let mut p_fp = self.intrinsic_fp * case.difficulty;
            for _ in 0..spurious {
                if rng.gen::<f64>() < self.prompt_trust {
                    p_fp = 1.0 - (1.0 - p_fp) * (1.0 - self.spurious_persuasion);
                }
            }
            rng.gen::<f64>() < p_fp
        };
        ReaderDecision {
            recall,
            noticed_lesion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{CaseKind, Lesion};
    use hmdiv_core::ClassId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cancer(subtlety: f64, difficulty: f64) -> Case {
        Case {
            id: 0,
            kind: CaseKind::Cancer,
            class: ClassId::new("x"),
            difficulty,
            lesions: vec![Lesion { subtlety }],
        }
    }

    fn normal(difficulty: f64) -> Case {
        Case {
            id: 0,
            kind: CaseKind::Normal,
            class: ClassId::new("x"),
            difficulty,
            lesions: vec![],
        }
    }

    fn recall_rate(reader: &Reader, case: &Case, cadt: Option<&CadtOutput>, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 20_000;
        (0..n)
            .filter(|_| reader.read(case, cadt, &mut rng).recall)
            .count() as f64
            / n as f64
    }

    #[test]
    fn presets_validate() {
        Reader::expert().validate().unwrap();
        Reader::novice().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut r = Reader::expert();
        r.lapse_rate = 1.5;
        assert!(r.validate().is_err());
        let mut r = Reader::expert();
        r.sharpness = 0.0;
        assert!(r.validate().is_err());
        let mut r = Reader::expert();
        r.perception = f64::NAN;
        assert!(r.validate().is_err());
    }

    #[test]
    fn expert_beats_novice_unaided() {
        let case = cancer(0.6, 0.5);
        let expert = recall_rate(&Reader::expert(), &case, None, 1);
        let novice = recall_rate(&Reader::novice(), &case, None, 1);
        assert!(expert > novice + 0.05, "{expert} vs {novice}");
    }

    #[test]
    fn subtle_cancers_are_missed_more() {
        let r = Reader::expert();
        let obvious = recall_rate(&r, &cancer(0.2, 0.3), None, 2);
        let subtle = recall_rate(&r, &cancer(0.9, 0.3), None, 2);
        assert!(obvious > subtle + 0.2, "{obvious} vs {subtle}");
    }

    #[test]
    fn helpful_prompt_raises_detection() {
        let r = Reader::expert();
        let case = cancer(0.85, 0.5); // hard for the unaided eye
        let prompted = CadtOutput {
            prompted_lesions: vec![true],
            spurious_prompts: 0,
        };
        let unaided = recall_rate(&r, &case, None, 3);
        let aided = recall_rate(&r, &case, Some(&prompted), 3);
        assert!(aided > unaided + 0.1, "{aided} vs {unaided}");
    }

    #[test]
    fn machine_miss_plus_automation_bias_hurts() {
        // The CADT missed the lesion but put spurious prompts elsewhere: a
        // biased reader now does *worse* than unaided — the mechanism behind
        // PHf|Mf > unaided failure probability.
        let r = Reader::expert().with_unprompted_neglect(0.6);
        let case = cancer(0.6, 0.5);
        let missed = CadtOutput {
            prompted_lesions: vec![false],
            spurious_prompts: 2,
        };
        let unaided = recall_rate(&r, &case, None, 4);
        let misled = recall_rate(&r, &case, Some(&missed), 4);
        assert!(misled < unaided - 0.05, "{misled} vs {unaided}");
    }

    #[test]
    fn zero_neglect_reader_immune_to_missing_prompts() {
        let r = Reader::expert()
            .with_unprompted_neglect(0.0)
            .with_lapse_rate(0.0);
        let case = cancer(0.6, 0.5);
        let missed = CadtOutput {
            prompted_lesions: vec![false],
            spurious_prompts: 0,
        };
        let unaided = recall_rate(&r, &case, None, 5);
        let with_miss = recall_rate(&r, &case, Some(&missed), 5);
        assert!(
            (unaided - with_miss).abs() < 0.02,
            "{unaided} vs {with_miss}"
        );
    }

    #[test]
    fn spurious_prompts_raise_false_positives() {
        let r = Reader::novice();
        let case = normal(0.7);
        let clean = CadtOutput {
            prompted_lesions: vec![],
            spurious_prompts: 0,
        };
        let noisy = CadtOutput {
            prompted_lesions: vec![],
            spurious_prompts: 3,
        };
        let fp_clean = recall_rate(&r, &case, Some(&clean), 6);
        let fp_noisy = recall_rate(&r, &case, Some(&noisy), 6);
        assert!(fp_noisy > fp_clean, "{fp_noisy} vs {fp_clean}");
    }

    #[test]
    fn lapses_hurt_detection() {
        let alert = Reader::expert().with_lapse_rate(0.0);
        let drowsy = Reader::expert().with_lapse_rate(0.8);
        let case = cancer(0.65, 0.4);
        let a = recall_rate(&alert, &case, None, 7);
        let d = recall_rate(&drowsy, &case, None, 7);
        assert!(a > d, "{a} vs {d}");
    }

    #[test]
    fn difficult_films_cause_misclassification() {
        let r = Reader::expert();
        assert!(r.p_misclassify(0.95).value() > r.p_misclassify(0.2).value());
        // Even a detected cancer on a horrid film can be misclassified.
        let case = cancer(0.1, 0.99); // obvious lesion, awful film
        let rate = recall_rate(&r, &case, None, 8);
        assert!(rate < 0.9, "{rate}");
    }

    #[test]
    fn prompt_trust_zero_means_prompts_ignored() {
        let r = Reader::expert()
            .with_prompt_trust(0.0)
            .with_unprompted_neglect(0.0);
        let case = cancer(0.85, 0.5);
        let prompted = CadtOutput {
            prompted_lesions: vec![true],
            spurious_prompts: 0,
        };
        let unaided = recall_rate(&r, &case, None, 9);
        let aided = recall_rate(&r, &case, Some(&prompted), 9);
        assert!((unaided - aided).abs() < 0.02, "{unaided} vs {aided}");
    }
}
