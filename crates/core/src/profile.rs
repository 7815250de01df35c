use std::fmt;

use rand::Rng;

use hmdiv_prob::{Categorical, Probability};

use crate::{ClassId, ModelError};

/// A *demand profile* `p(x)`: the distribution of case classes presented to
/// the system (paper §4).
///
/// The paper's central extrapolation move (§5) is evaluating the same
/// per-class parameters under a different profile — e.g. a trial enriched to
/// 20% difficult cases versus a field population with 10%.
///
/// # Example
///
/// ```
/// use hmdiv_core::DemandProfile;
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let trial = DemandProfile::builder()
///     .class("easy", 0.8)
///     .class("difficult", 0.2)
///     .build()?;
/// assert_eq!(trial.len(), 2);
/// assert!((trial.weight("easy").unwrap().value() - 0.8).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandProfile {
    dist: Categorical<ClassId>,
}

impl DemandProfile {
    /// Starts building a profile.
    #[must_use]
    pub fn builder() -> DemandProfileBuilder {
        DemandProfileBuilder {
            entries: Vec::new(),
        }
    }

    /// Builds a profile directly from `(class, weight)` pairs.
    ///
    /// # Errors
    ///
    /// * [`ModelError::Empty`] if no classes are given.
    /// * [`ModelError::DuplicateClass`] if a class appears twice.
    /// * [`ModelError::Prob`] for invalid weights.
    pub fn from_weights(
        pairs: impl IntoIterator<Item = (ClassId, f64)>,
    ) -> Result<Self, ModelError> {
        let mut builder = DemandProfile::builder();
        for (class, w) in pairs {
            builder.entries.push((class, w));
        }
        builder.build()
    }

    /// The number of classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// Whether the profile has no classes (never true for a built profile).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// The classes, in insertion order.
    #[must_use]
    pub fn classes(&self) -> &[ClassId] {
        self.dist.categories()
    }

    /// The probability weight of a class.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] if the profile does not mention the
    /// class — the same typed error the compiled evaluation layer reports
    /// for the reverse mismatch (a profile class absent from a model's
    /// universe).
    pub fn weight(&self, class: &str) -> Result<Probability, ModelError> {
        self.dist
            .categories()
            .iter()
            .position(|c| c.name() == class)
            .map(|i| self.dist.probability_at(i))
            .ok_or_else(|| ModelError::UnknownClass {
                class: ClassId::new(class),
            })
    }

    /// Iterates `(class, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&ClassId, Probability)> + '_ {
        self.dist.iter()
    }

    /// The profile-expectation `Σ p(x)·f(x)` of a per-class quantity.
    pub fn expect<F: FnMut(&ClassId) -> f64>(&self, f: F) -> f64 {
        self.dist.expect(f)
    }

    /// Samples a class according to the profile.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &ClassId {
        self.dist.sample(rng)
    }

    /// Returns a new profile over the same classes with different weights.
    ///
    /// # Errors
    ///
    /// As [`DemandProfile::from_weights`].
    pub fn reweighted<F: FnMut(&ClassId, Probability) -> f64>(
        &self,
        mut reweight: F,
    ) -> Result<Self, ModelError> {
        let dist = self
            .dist
            .reweighted(|c, p| reweight(c, p))
            .map_err(ModelError::from)?;
        Ok(DemandProfile { dist })
    }

    /// Total-variation distance to another profile over the same classes in
    /// the same order.
    ///
    /// # Errors
    ///
    /// [`ModelError::Prob`] if the profiles have different class counts.
    pub fn total_variation(&self, other: &DemandProfile) -> Result<f64, ModelError> {
        self.dist
            .total_variation(&other.dist)
            .map_err(ModelError::from)
    }

    /// Access to the underlying categorical distribution.
    #[must_use]
    pub fn as_categorical(&self) -> &Categorical<ClassId> {
        &self.dist
    }
}

impl fmt::Display for DemandProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.dist, f)
    }
}

/// Builder for [`DemandProfile`].
#[derive(Debug, Clone, Default)]
pub struct DemandProfileBuilder {
    entries: Vec<(ClassId, f64)>,
}

impl DemandProfileBuilder {
    /// Adds a class with the given (unnormalised) weight.
    #[must_use]
    pub fn class(mut self, class: impl Into<ClassId>, weight: f64) -> Self {
        self.entries.push((class.into(), weight));
        self
    }

    /// Builds the profile, normalising weights.
    ///
    /// # Errors
    ///
    /// * [`ModelError::Empty`] if no classes were added.
    /// * [`ModelError::DuplicateClass`] if a class was added twice.
    /// * [`ModelError::Prob`] for negative/NaN/all-zero weights.
    pub fn build(self) -> Result<DemandProfile, ModelError> {
        if self.entries.is_empty() {
            return Err(ModelError::Empty {
                context: "demand profile",
            });
        }
        for (i, (class, _)) in self.entries.iter().enumerate() {
            if self.entries[..i].iter().any(|(c, _)| c == class) {
                return Err(ModelError::DuplicateClass {
                    class: class.clone(),
                });
            }
        }
        let dist = Categorical::new(self.entries).map_err(ModelError::from)?;
        Ok(DemandProfile { dist })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_normalises() {
        let p = DemandProfile::builder()
            .class("a", 2.0)
            .class("b", 2.0)
            .build()
            .unwrap();
        assert!((p.weight("a").unwrap().value() - 0.5).abs() < 1e-12);
        assert!(matches!(
            p.weight("missing"),
            Err(ModelError::UnknownClass { class }) if class.name() == "missing"
        ));
    }

    #[test]
    fn builder_rejects_duplicates_and_empty() {
        assert!(matches!(
            DemandProfile::builder()
                .class("a", 1.0)
                .class("a", 2.0)
                .build(),
            Err(ModelError::DuplicateClass { .. })
        ));
        assert!(matches!(
            DemandProfile::builder().build(),
            Err(ModelError::Empty { .. })
        ));
    }

    #[test]
    fn expectation_over_profile() {
        let p = DemandProfile::builder()
            .class("easy", 0.9)
            .class("difficult", 0.1)
            .build()
            .unwrap();
        let v = p.expect(|c| if c.name() == "easy" { 0.1428 } else { 0.605 });
        assert!((v - (0.9 * 0.1428 + 0.1 * 0.605)).abs() < 1e-12);
    }

    #[test]
    fn reweight_trial_to_field() {
        let trial = DemandProfile::builder()
            .class("easy", 0.8)
            .class("difficult", 0.2)
            .build()
            .unwrap();
        let field = trial
            .reweighted(|c, _| if c.name() == "easy" { 0.9 } else { 0.1 })
            .unwrap();
        assert!((field.weight("difficult").unwrap().value() - 0.1).abs() < 1e-12);
        let tv = trial.total_variation(&field).unwrap();
        assert!((tv - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_weights() {
        use rand::SeedableRng;
        let p = DemandProfile::builder()
            .class("easy", 0.9)
            .class("difficult", 0.1)
            .build()
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut difficult = 0;
        for _ in 0..n {
            if p.sample(&mut rng).name() == "difficult" {
                difficult += 1;
            }
        }
        let freq = difficult as f64 / n as f64;
        assert!((freq - 0.1).abs() < 0.01, "{freq}");
    }

    #[test]
    fn from_weights_equivalent_to_builder() {
        let a = DemandProfile::from_weights([(ClassId::new("x"), 1.0), (ClassId::new("y"), 3.0)])
            .unwrap();
        assert!((a.weight("y").unwrap().value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_classes() {
        let p = DemandProfile::builder().class("easy", 1.0).build().unwrap();
        assert!(p.to_string().contains("easy"));
    }
}
