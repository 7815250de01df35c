//! Case population generators.
//!
//! A [`PopulationSpec`] describes the screened population: cancer
//! prevalence, the mix of demand classes on each side, and per-class latent
//! difficulty distributions. The same spec with a different prevalence
//! models an *enriched trial set* — the paper's concern that trials use "a
//! much higher proportion of cancers than that (less than 1%) of the
//! screened population".

use rand::Rng;

use hmdiv_core::{ClassId, ClassUniverse};
use hmdiv_prob::bayes::Beta;
use hmdiv_prob::{Categorical, Probability};

use crate::case::{Case, CaseKind, Lesion};
use crate::SimError;

/// Static description of one demand class's case generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// The class label.
    pub class: ClassId,
    /// Beta shape `alpha` of the latent difficulty distribution.
    pub difficulty_alpha: f64,
    /// Beta shape `beta` of the latent difficulty distribution.
    pub difficulty_beta: f64,
    /// Expected number of lesions for cancer cases of this class (at least
    /// one lesion is always generated; extra lesions follow a geometric
    /// law with this mean). Ignored for normal classes.
    pub mean_lesions: f64,
}

impl ClassSpec {
    /// Creates a class spec.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the Beta shapes are not strictly
    /// positive or `mean_lesions < 1`.
    pub fn new(
        class: impl Into<ClassId>,
        difficulty_alpha: f64,
        difficulty_beta: f64,
        mean_lesions: f64,
    ) -> Result<Self, SimError> {
        let spec = ClassSpec {
            class: class.into(),
            difficulty_alpha,
            difficulty_beta,
            mean_lesions,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the invariants [`ClassSpec::new`] enforces. The fields are
    /// public, so a hand-assembled spec can violate them; callers that
    /// accept arbitrary specs (e.g. [`crate::engine::Simulation::run`])
    /// re-validate here instead of panicking mid-sample.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the Beta shapes are not strictly
    /// positive or `mean_lesions < 1`.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.difficulty_alpha.is_nan() || self.difficulty_alpha <= 0.0 {
            return Err(SimError::InvalidConfig {
                value: self.difficulty_alpha,
                context: "difficulty alpha",
            });
        }
        if self.difficulty_beta.is_nan() || self.difficulty_beta <= 0.0 {
            return Err(SimError::InvalidConfig {
                value: self.difficulty_beta,
                context: "difficulty beta",
            });
        }
        if self.mean_lesions.is_nan() || self.mean_lesions < 1.0 {
            return Err(SimError::InvalidConfig {
                value: self.mean_lesions,
                context: "mean lesions",
            });
        }
        Ok(())
    }

    /// The mean of the latent difficulty distribution.
    #[must_use]
    pub fn mean_difficulty(&self) -> f64 {
        self.difficulty_alpha / (self.difficulty_alpha + self.difficulty_beta)
    }

    fn sample_difficulty<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Beta::new(self.difficulty_alpha, self.difficulty_beta)
            .expect("shapes validated at construction")
            .sample(rng)
            .value()
    }
}

/// The screened population: prevalence plus per-side class mixes.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    prevalence: Probability,
    cancer_mix: Categorical<ClassSpec>,
    normal_mix: Categorical<ClassSpec>,
}

impl PopulationSpec {
    /// Creates a population.
    ///
    /// `cancer_mix` and `normal_mix` are `(spec, weight)` pairs for the two
    /// ground-truth sides.
    ///
    /// # Errors
    ///
    /// [`SimError::Prob`] if either mix is empty or has invalid weights.
    pub fn new(
        prevalence: Probability,
        cancer_mix: Vec<(ClassSpec, f64)>,
        normal_mix: Vec<(ClassSpec, f64)>,
    ) -> Result<Self, SimError> {
        Ok(PopulationSpec {
            prevalence,
            cancer_mix: Categorical::new(cancer_mix)?,
            normal_mix: Categorical::new(normal_mix)?,
        })
    }

    /// The cancer prevalence.
    #[must_use]
    pub fn prevalence(&self) -> Probability {
        self.prevalence
    }

    /// A copy of the population with a different prevalence — the enriched
    /// trial set of §1 ("necessary to make the trial reasonably short").
    #[must_use]
    pub fn with_prevalence(&self, prevalence: Probability) -> Self {
        PopulationSpec {
            prevalence,
            ..self.clone()
        }
    }

    /// The weighted mix of cancer classes.
    #[must_use]
    pub fn cancer_mix(&self) -> &Categorical<ClassSpec> {
        &self.cancer_mix
    }

    /// A copy with the cancer-class weights multiplied per class — modelling
    /// a trial case set that *oversamples* certain classes (e.g. difficult
    /// cases chosen to be "interesting"), on top of prevalence enrichment.
    ///
    /// `multiplier` receives each class spec and its current weight and
    /// returns the new (unnormalised) weight.
    ///
    /// # Errors
    ///
    /// [`SimError::Prob`] if the resulting weights are invalid.
    pub fn with_cancer_mix_reweighted(
        &self,
        mut multiplier: impl FnMut(&ClassSpec, Probability) -> f64,
    ) -> Result<Self, SimError> {
        let cancer_mix = self.cancer_mix.reweighted(|spec, w| multiplier(spec, w))?;
        Ok(PopulationSpec {
            cancer_mix,
            ..self.clone()
        })
    }

    /// The weighted mix of normal classes.
    #[must_use]
    pub fn normal_mix(&self) -> &Categorical<ClassSpec> {
        &self.normal_mix
    }

    /// The interned universe of every class this population can emit,
    /// across both ground-truth sides. The simulation engine resolves each
    /// screened case against this universe so per-worker tallies can be
    /// dense arrays instead of keyed maps.
    #[must_use]
    pub fn universe(&self) -> ClassUniverse {
        ClassUniverse::from_names(
            self.cancer_mix
                .iter()
                .chain(self.normal_mix.iter())
                .map(|(spec, _)| spec.class.clone()),
        )
    }

    /// Validates every class spec in both mixes (see
    /// [`ClassSpec::validate`]).
    ///
    /// # Errors
    ///
    /// The first [`SimError::InvalidConfig`] found.
    pub fn validate(&self) -> Result<(), SimError> {
        for (spec, _) in self.cancer_mix.iter().chain(self.normal_mix.iter()) {
            spec.validate()?;
        }
        Ok(())
    }

    /// Samples one case.
    pub fn sample_case<R: Rng + ?Sized>(&self, id: u64, rng: &mut R) -> Case {
        let is_cancer = rng.gen::<f64>() < self.prevalence.value();
        let spec = if is_cancer {
            self.cancer_mix.sample(rng)
        } else {
            self.normal_mix.sample(rng)
        };
        let difficulty = spec.sample_difficulty(rng);
        let lesions = if is_cancer {
            let mut lesions = vec![sample_lesion(difficulty, rng)];
            // Extra lesions: geometric with mean (mean_lesions − 1).
            let extra_mean = spec.mean_lesions - 1.0;
            if extra_mean > 0.0 {
                let p_continue = extra_mean / (1.0 + extra_mean);
                while rng.gen::<f64>() < p_continue && lesions.len() < 16 {
                    lesions.push(sample_lesion(difficulty, rng));
                }
            }
            lesions
        } else {
            Vec::new()
        };
        Case {
            id,
            kind: if is_cancer {
                CaseKind::Cancer
            } else {
                CaseKind::Normal
            },
            class: spec.class.clone(),
            difficulty,
            lesions,
        }
    }

    /// Samples a *cancer* case unconditionally (used by harnesses that study
    /// false negatives only, like the paper's §2.3 restriction).
    pub fn sample_cancer_case<R: Rng + ?Sized>(&self, id: u64, rng: &mut R) -> Case {
        let spec = self.cancer_mix.sample(rng);
        let difficulty = spec.sample_difficulty(rng);
        let mut lesions = vec![sample_lesion(difficulty, rng)];
        let extra_mean = spec.mean_lesions - 1.0;
        if extra_mean > 0.0 {
            let p_continue = extra_mean / (1.0 + extra_mean);
            while rng.gen::<f64>() < p_continue && lesions.len() < 16 {
                lesions.push(sample_lesion(difficulty, rng));
            }
        }
        Case {
            id,
            kind: CaseKind::Cancer,
            class: spec.class.clone(),
            difficulty,
            lesions,
        }
    }
}

/// Lesion subtlety tracks the case difficulty with moderate noise.
fn sample_lesion<R: Rng + ?Sized>(difficulty: f64, rng: &mut R) -> Lesion {
    let noise = (rng.gen::<f64>() - 0.5) * 0.3;
    Lesion {
        subtlety: (difficulty + noise).clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> PopulationSpec {
        PopulationSpec::new(
            Probability::new(0.008).unwrap(),
            vec![
                (ClassSpec::new("easy", 2.0, 5.0, 1.2).unwrap(), 0.9),
                (ClassSpec::new("difficult", 5.0, 2.0, 1.0).unwrap(), 0.1),
            ],
            vec![(ClassSpec::new("clear", 2.0, 8.0, 1.0).unwrap(), 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn class_spec_validation() {
        assert!(ClassSpec::new("x", 0.0, 1.0, 1.0).is_err());
        assert!(ClassSpec::new("x", 1.0, -1.0, 1.0).is_err());
        assert!(ClassSpec::new("x", 1.0, 1.0, 0.5).is_err());
        assert!(ClassSpec::new("x", 1.0, 1.0, 1.0).is_ok());
    }

    #[test]
    fn mean_difficulty_reflects_shapes() {
        let easy = ClassSpec::new("easy", 2.0, 8.0, 1.0).unwrap();
        let hard = ClassSpec::new("hard", 8.0, 2.0, 1.0).unwrap();
        assert!(easy.mean_difficulty() < hard.mean_difficulty());
    }

    #[test]
    fn prevalence_respected() {
        let pop = spec();
        let mut rng = StdRng::seed_from_u64(13);
        let n = 200_000;
        let cancers = (0..n)
            .filter(|&i| pop.sample_case(i, &mut rng).is_cancer())
            .count();
        let rate = cancers as f64 / n as f64;
        assert!((rate - 0.008).abs() < 0.002, "{rate}");
    }

    #[test]
    fn cancer_cases_always_have_lesions() {
        let pop = spec();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..1000 {
            let c = pop.sample_cancer_case(i, &mut rng);
            assert!(c.is_cancer());
            assert!(!c.lesions.is_empty());
            assert!((0.0..=1.0).contains(&c.difficulty));
            for l in &c.lesions {
                assert!((0.0..=1.0).contains(&l.subtlety));
            }
        }
    }

    #[test]
    fn normal_cases_have_no_lesions() {
        let pop = spec().with_prevalence(Probability::ZERO);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..100 {
            let c = pop.sample_case(i, &mut rng);
            assert!(!c.is_cancer());
            assert!(c.lesions.is_empty());
            assert_eq!(c.class.name(), "clear");
        }
    }

    #[test]
    fn enrichment_changes_only_prevalence() {
        let pop = spec();
        let enriched = pop.with_prevalence(Probability::new(0.5).unwrap());
        assert_eq!(enriched.prevalence().value(), 0.5);
        assert_eq!(enriched.cancer_mix(), pop.cancer_mix());
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20_000;
        let cancers = (0..n)
            .filter(|&i| enriched.sample_case(i, &mut rng).is_cancer())
            .count();
        assert!((cancers as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn difficult_class_cases_are_harder_on_average() {
        let pop = spec().with_prevalence(Probability::ONE);
        let mut rng = StdRng::seed_from_u64(17);
        let mut easy_sum = (0.0, 0u32);
        let mut hard_sum = (0.0, 0u32);
        for i in 0..20_000 {
            let c = pop.sample_case(i, &mut rng);
            if c.class.name() == "easy" {
                easy_sum = (easy_sum.0 + c.difficulty, easy_sum.1 + 1);
            } else {
                hard_sum = (hard_sum.0 + c.difficulty, hard_sum.1 + 1);
            }
        }
        let easy_mean = easy_sum.0 / f64::from(easy_sum.1);
        let hard_mean = hard_sum.0 / f64::from(hard_sum.1);
        assert!(hard_mean > easy_mean + 0.2, "{easy_mean} vs {hard_mean}");
        // Class mix ~ 90/10.
        let frac_easy = f64::from(easy_sum.1) / 20_000.0;
        assert!((frac_easy - 0.9).abs() < 0.02, "{frac_easy}");
    }

    #[test]
    fn extra_lesions_follow_mean() {
        let pop = PopulationSpec::new(
            Probability::ONE,
            vec![(ClassSpec::new("multi", 2.0, 2.0, 2.0).unwrap(), 1.0)],
            vec![(ClassSpec::new("clear", 2.0, 8.0, 1.0).unwrap(), 1.0)],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let n = 20_000;
        let total: usize = (0..n)
            .map(|i| pop.sample_case(i, &mut rng).lesions.len())
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "{mean}");
    }

    #[test]
    fn empty_mix_rejected() {
        assert!(PopulationSpec::new(Probability::HALF, vec![], vec![]).is_err());
    }

    #[test]
    fn universe_spans_both_sides_sorted() {
        let u = spec().universe();
        assert_eq!(u.len(), 3);
        let names: Vec<&str> = u.classes().iter().map(|c| c.name()).collect();
        assert_eq!(names, ["clear", "difficult", "easy"]);
        // Every sampled case resolves in the universe.
        let pop = spec();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..500 {
            let case = pop.sample_case(i, &mut rng);
            assert!(u.contains(case.class.name()), "{}", case.class);
        }
    }
}
