//! The computer-aided detection tool (CADT) model.
//!
//! The CADT processes the digitised films and prompts features the reader
//! should examine. Its per-lesion detection probability is logistic in the
//! lesion's subtlety relative to an operating threshold:
//!
//! ```text
//! P(prompt lesion) = σ( sharpness · (operating − subtlety − density·difficulty) )
//! ```
//!
//! Raising `operating` prompts more (better sensitivity, more spurious
//! prompts on normal films); `sharpness` controls how decisively the
//! detector separates easy from subtle lesions; `density_penalty` makes
//! dense/confusing films (high difficulty) hurt the algorithm the way they
//! hurt a human — the shared-difficulty coupling that produces correlated
//! failures.
//!
//! On normal films the CADT emits spurious prompts at a rate increasing in
//! the operating threshold and the film difficulty.

use rand::Rng;

use hmdiv_prob::Probability;

use crate::case::Case;
use crate::SimError;

/// Output of the CADT on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CadtOutput {
    /// For each lesion of the case (by index), whether it was prompted.
    /// Empty for normal cases.
    pub prompted_lesions: Vec<bool>,
    /// Number of spurious prompts on non-lesion features.
    pub spurious_prompts: usize,
}

impl CadtOutput {
    /// Number of true lesions prompted (0 for normal cases).
    #[must_use]
    pub fn true_prompts(&self) -> usize {
        self.prompted_lesions.iter().filter(|&&p| p).count()
    }

    /// Whether the CADT prompted at least one genuine lesion. For cancer
    /// cases, `false` is the machine's false-negative failure (`Mf`).
    #[must_use]
    pub fn detected_cancer(&self) -> bool {
        self.prompted_lesions.iter().any(|&p| p)
    }

    /// Whether the CADT produced any prompt at all.
    #[must_use]
    pub fn any_prompt(&self) -> bool {
        self.detected_cancer() || self.spurious_prompts > 0
    }
}

/// CADT configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cadt {
    /// Operating threshold in `[0, 1]`: higher prompts more.
    pub operating: f64,
    /// Logistic sharpness (> 0): how decisively subtlety separates
    /// detections from misses.
    pub sharpness: f64,
    /// How much overall film difficulty degrades the algorithm, in `[0, 1]`.
    pub density_penalty: f64,
    /// Expected number of spurious prompts on a maximally difficult normal
    /// film at `operating = 1` (scales down with both).
    pub max_spurious_rate: f64,
}

impl Cadt {
    /// Creates a CADT configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for out-of-range parameters.
    pub fn new(
        operating: f64,
        sharpness: f64,
        density_penalty: f64,
        max_spurious_rate: f64,
    ) -> Result<Self, SimError> {
        if operating.is_nan() || !(0.0..=1.0).contains(&operating) {
            return Err(SimError::InvalidConfig {
                value: operating,
                context: "CADT operating threshold",
            });
        }
        if sharpness.is_nan() || sharpness <= 0.0 || sharpness.is_infinite() {
            return Err(SimError::InvalidConfig {
                value: sharpness,
                context: "CADT sharpness",
            });
        }
        if density_penalty.is_nan() || !(0.0..=1.0).contains(&density_penalty) {
            return Err(SimError::InvalidConfig {
                value: density_penalty,
                context: "CADT density penalty",
            });
        }
        if max_spurious_rate.is_nan() || max_spurious_rate < 0.0 || max_spurious_rate.is_infinite()
        {
            return Err(SimError::InvalidConfig {
                value: max_spurious_rate,
                context: "CADT spurious-prompt rate",
            });
        }
        Ok(Cadt {
            operating,
            sharpness,
            density_penalty,
            max_spurious_rate,
        })
    }

    /// A reasonable default detector: moderately sensitive, sharp, with a
    /// realistic density penalty.
    ///
    /// # Errors
    ///
    /// Never fails in practice.
    pub fn default_detector() -> Result<Self, SimError> {
        Cadt::new(0.62, 6.0, 0.35, 2.0)
    }

    /// A copy at a different operating threshold (re-tuning, §5 item 4).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if `operating` is outside `[0, 1]`.
    pub fn with_operating(&self, operating: f64) -> Result<Self, SimError> {
        Cadt::new(
            operating,
            self.sharpness,
            self.density_penalty,
            self.max_spurious_rate,
        )
    }

    /// The probability of prompting one lesion of the given subtlety on a
    /// film of the given difficulty.
    #[must_use]
    pub fn p_prompt_lesion(&self, subtlety: f64, difficulty: f64) -> Probability {
        let x = self.sharpness * (self.operating - subtlety - self.density_penalty * difficulty);
        Probability::from_logit(x)
    }

    /// Runs the CADT on a case.
    pub fn process<R: Rng + ?Sized>(&self, case: &Case, rng: &mut R) -> CadtOutput {
        let prompted_lesions = case
            .lesions
            .iter()
            .map(|lesion| {
                rng.gen::<f64>()
                    < self
                        .p_prompt_lesion(lesion.subtlety, case.difficulty)
                        .value()
            })
            .collect();
        // Spurious prompts: Poisson with rate scaled by threshold and
        // difficulty (confusing normal structures attract prompts).
        let rate = self.max_spurious_rate * self.operating * (0.25 + 0.75 * case.difficulty);
        let spurious_prompts = sample_poisson(rate, rng);
        CadtOutput {
            prompted_lesions,
            spurious_prompts,
        }
    }
}

/// Knuth Poisson sampler; fine for the small rates used here.
fn sample_poisson<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> usize {
    if rate <= 0.0 {
        return 0;
    }
    let l = (-rate).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 64 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{CaseKind, Lesion};
    use hmdiv_core::ClassId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn case_with(subtlety: f64, difficulty: f64, kind: CaseKind) -> Case {
        Case {
            id: 0,
            kind,
            class: ClassId::new("x"),
            difficulty,
            lesions: if kind == CaseKind::Cancer {
                vec![Lesion { subtlety }]
            } else {
                vec![]
            },
        }
    }

    #[test]
    fn config_validation() {
        assert!(Cadt::new(-0.1, 1.0, 0.1, 1.0).is_err());
        assert!(Cadt::new(0.5, 0.0, 0.1, 1.0).is_err());
        assert!(Cadt::new(0.5, 1.0, 1.5, 1.0).is_err());
        assert!(Cadt::new(0.5, 1.0, 0.1, -1.0).is_err());
        assert!(Cadt::default_detector().is_ok());
    }

    #[test]
    fn subtle_lesions_are_harder_for_the_machine() {
        let cadt = Cadt::default_detector().unwrap();
        let easy = cadt.p_prompt_lesion(0.1, 0.2);
        let hard = cadt.p_prompt_lesion(0.9, 0.2);
        assert!(
            easy.value() > hard.value() + 0.3,
            "{} vs {}",
            easy.value(),
            hard.value()
        );
    }

    #[test]
    fn difficulty_penalises_detection() {
        let cadt = Cadt::default_detector().unwrap();
        let clean = cadt.p_prompt_lesion(0.4, 0.1);
        let dense = cadt.p_prompt_lesion(0.4, 0.9);
        assert!(clean.value() > dense.value());
    }

    #[test]
    fn higher_operating_prompts_more() {
        let low = Cadt::default_detector()
            .unwrap()
            .with_operating(0.3)
            .unwrap();
        let high = Cadt::default_detector()
            .unwrap()
            .with_operating(0.9)
            .unwrap();
        assert!(high.p_prompt_lesion(0.5, 0.3).value() > low.p_prompt_lesion(0.5, 0.3).value());
        let mut rng = StdRng::seed_from_u64(1);
        let normal = case_with(0.0, 0.5, CaseKind::Normal);
        let n = 5000;
        let low_spurious: usize = (0..n)
            .map(|_| low.process(&normal, &mut rng).spurious_prompts)
            .sum();
        let high_spurious: usize = (0..n)
            .map(|_| high.process(&normal, &mut rng).spurious_prompts)
            .sum();
        assert!(high_spurious > low_spurious);
    }

    #[test]
    fn empirical_detection_rate_matches_probability() {
        let cadt = Cadt::default_detector().unwrap();
        let case = case_with(0.5, 0.4, CaseKind::Cancer);
        let p = cadt.p_prompt_lesion(0.5, 0.4).value();
        let mut rng = StdRng::seed_from_u64(23);
        let n = 50_000;
        let detected = (0..n)
            .filter(|_| cadt.process(&case, &mut rng).detected_cancer())
            .count();
        let rate = detected as f64 / n as f64;
        assert!((rate - p).abs() < 0.01, "{rate} vs {p}");
    }

    #[test]
    fn normal_case_never_true_prompts() {
        let cadt = Cadt::default_detector().unwrap();
        let case = case_with(0.0, 0.9, CaseKind::Normal);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let out = cadt.process(&case, &mut rng);
            assert_eq!(out.true_prompts(), 0);
            assert!(!out.detected_cancer());
        }
    }

    #[test]
    fn multi_lesion_case_easier_to_detect() {
        let cadt = Cadt::default_detector().unwrap();
        let one = case_with(0.7, 0.4, CaseKind::Cancer);
        let mut three = one.clone();
        three.lesions = vec![
            Lesion { subtlety: 0.7 },
            Lesion { subtlety: 0.7 },
            Lesion { subtlety: 0.7 },
        ];
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let d1 = (0..n)
            .filter(|_| cadt.process(&one, &mut rng).detected_cancer())
            .count();
        let d3 = (0..n)
            .filter(|_| cadt.process(&three, &mut rng).detected_cancer())
            .count();
        assert!(d3 > d1);
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 50_000;
        let total: usize = (0..n).map(|_| sample_poisson(1.5, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.5).abs() < 0.05, "{mean}");
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }
}
