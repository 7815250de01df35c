//! Discrete distributions over arbitrary categories.
//!
//! The paper's *demand profile* `p(x)` — the probability that a screening
//! case belongs to class `x` — is a categorical distribution. [`Categorical`]
//! stores normalised weights and supports O(1) sampling via Walker's alias
//! method, expectation of per-category functions, and reweighting (the §5
//! trial → field profile change).

use std::fmt;

use rand::Rng;

use crate::{ProbError, Probability};

/// A normalised discrete distribution over categories of type `T`.
///
/// Construction validates the weights (non-negative, finite, not all zero)
/// and normalises them to sum to one. Sampling uses Walker's alias method,
/// built lazily on first use and cached.
///
/// # Example
///
/// ```
/// use hmdiv_prob::Categorical;
///
/// # fn main() -> Result<(), hmdiv_prob::ProbError> {
/// // The paper's trial profile: 80% easy, 20% difficult.
/// let profile = Categorical::new(vec![("easy", 0.8), ("difficult", 0.2)])?;
/// assert_eq!(profile.len(), 2);
/// assert!((profile.probability_of(&"easy").unwrap().value() - 0.8).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Categorical<T> {
    categories: Vec<T>,
    probabilities: Vec<f64>,
    alias: std::sync::OnceLock<AliasTable>,
}

impl<T: PartialEq> PartialEq for Categorical<T> {
    fn eq(&self, other: &Self) -> bool {
        self.categories == other.categories && self.probabilities == other.probabilities
    }
}

impl<T> Categorical<T> {
    /// Builds a distribution from `(category, weight)` pairs.
    ///
    /// Weights need not sum to one; they are normalised. Zero weights are
    /// allowed (the category is kept but never sampled).
    ///
    /// # Errors
    ///
    /// * [`ProbError::Empty`] if no pairs are given.
    /// * [`ProbError::InvalidWeights`] if any weight is negative, NaN or
    ///   infinite, or if all weights are zero.
    pub fn new(pairs: Vec<(T, f64)>) -> Result<Self, ProbError> {
        if pairs.is_empty() {
            return Err(ProbError::Empty {
                context: "categorical distribution",
            });
        }
        let mut total = 0.0;
        for (i, (_, w)) in pairs.iter().enumerate() {
            if w.is_nan() || w.is_infinite() || *w < 0.0 {
                return Err(ProbError::InvalidWeights {
                    detail: format!("weight {w} at index {i} is not a finite non-negative number"),
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(ProbError::InvalidWeights {
                detail: "all weights are zero".into(),
            });
        }
        let (categories, probabilities) = pairs.into_iter().map(|(c, w)| (c, w / total)).unzip();
        Ok(Categorical {
            categories,
            probabilities,
            alias: std::sync::OnceLock::new(),
        })
    }

    /// Builds the uniform distribution over the given categories.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::Empty`] if `categories` is empty.
    pub fn uniform(categories: Vec<T>) -> Result<Self, ProbError> {
        let n = categories.len();
        if n == 0 {
            return Err(ProbError::Empty {
                context: "categorical distribution",
            });
        }
        let p = 1.0 / n as f64;
        Ok(Categorical {
            categories,
            probabilities: vec![p; n],
            alias: std::sync::OnceLock::new(),
        })
    }

    /// Number of categories (including zero-probability ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.categories.len()
    }

    /// Returns `true` if the distribution has no categories.
    ///
    /// Always `false` for a successfully constructed value; provided for
    /// API completeness alongside [`Categorical::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.categories.is_empty()
    }

    /// The categories, in construction order.
    #[must_use]
    pub fn categories(&self) -> &[T] {
        &self.categories
    }

    /// The normalised probability of the category at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn probability_at(&self, index: usize) -> Probability {
        Probability::clamped(self.probabilities[index])
    }

    /// Iterates over `(category, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&T, Probability)> + '_ {
        self.categories
            .iter()
            .zip(self.probabilities.iter().map(|&p| Probability::clamped(p)))
    }

    /// The expectation `Σ p(x)·f(x)` of a per-category function.
    ///
    /// This is the workhorse behind the paper's eq. (8): the system failure
    /// probability is the profile-expectation of the per-class failure
    /// probability.
    pub fn expect<F: FnMut(&T) -> f64>(&self, mut f: F) -> f64 {
        self.categories
            .iter()
            .zip(&self.probabilities)
            .map(|(c, &p)| p * f(c))
            .sum()
    }

    /// Samples a category index.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let table = self
            .alias
            .get_or_init(|| AliasTable::new(&self.probabilities));
        table.sample(rng)
    }

    /// Samples a reference to a category.
    pub fn sample<'a, R: Rng + ?Sized>(&'a self, rng: &mut R) -> &'a T {
        &self.categories[self.sample_index(rng)]
    }

    /// Returns a new distribution with the same categories but new weights,
    /// produced by `reweight(category, old_probability)`.
    ///
    /// This implements the paper's §5 *demand-profile change*: keep the
    /// classes, replace `p(x)`.
    ///
    /// # Errors
    ///
    /// Same as [`Categorical::new`].
    pub fn reweighted<F>(&self, mut reweight: F) -> Result<Self, ProbError>
    where
        T: Clone,
        F: FnMut(&T, Probability) -> f64,
    {
        let pairs = self
            .categories
            .iter()
            .zip(&self.probabilities)
            .map(|(c, &p)| (c.clone(), reweight(c, Probability::clamped(p))))
            .collect();
        Categorical::new(pairs)
    }

    /// Total-variation distance to another distribution over the *same*
    /// category sequence: `½ Σ |p(x) − q(x)|`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::LengthMismatch`] if the distributions have
    /// different numbers of categories. Categories are matched by position.
    pub fn total_variation(&self, other: &Self) -> Result<f64, ProbError> {
        if self.len() != other.len() {
            return Err(ProbError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        Ok(self
            .probabilities
            .iter()
            .zip(&other.probabilities)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0)
    }
}

impl<T: PartialEq> Categorical<T> {
    /// The probability of a given category, or `None` if it is not present.
    #[must_use]
    pub fn probability_of(&self, category: &T) -> Option<Probability> {
        self.categories
            .iter()
            .position(|c| c == category)
            .map(|i| self.probability_at(i))
    }
}

impl<T: fmt::Display> fmt::Display for Categorical<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (c, p)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}: {p}")?;
        }
        write!(f, "}}")
    }
}

/// Walker alias table for O(1) categorical sampling.
#[derive(Debug, Clone)]
struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    fn new(probabilities: &[f64]) -> Self {
        let n = probabilities.len();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut scaled: Vec<f64> = probabilities.iter().map(|p| p * n as f64).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = large.pop().expect("checked non-empty");
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Whatever remains is 1.0 up to round-off.
        for i in large.into_iter().chain(small) {
            prob[i] = 1.0;
        }
        AliasTable { prob, alias }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.prob.len();
        let i = rng.gen_range(0..n);
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_normalises() {
        let d = Categorical::new(vec![("a", 2.0), ("b", 6.0)]).unwrap();
        assert!((d.probability_at(0).value() - 0.25).abs() < 1e-12);
        assert!((d.probability_at(1).value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn new_rejects_bad_weights() {
        assert!(Categorical::<&str>::new(vec![]).is_err());
        assert!(Categorical::new(vec![("a", -1.0)]).is_err());
        assert!(Categorical::new(vec![("a", f64::NAN)]).is_err());
        assert!(Categorical::new(vec![("a", f64::INFINITY)]).is_err());
        assert!(Categorical::new(vec![("a", 0.0), ("b", 0.0)]).is_err());
    }

    #[test]
    fn zero_weight_category_kept_but_never_sampled() {
        let d = Categorical::new(vec![("never", 0.0), ("always", 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(*d.sample(&mut rng), "always");
        }
        assert_eq!(d.probability_of(&"never").unwrap(), Probability::ZERO);
    }

    #[test]
    fn uniform_is_uniform() {
        let d = Categorical::uniform(vec![1, 2, 3, 4]).unwrap();
        for i in 0..4 {
            assert!((d.probability_at(i).value() - 0.25).abs() < 1e-12);
        }
        assert!(Categorical::<u8>::uniform(vec![]).is_err());
    }

    #[test]
    fn expectation_matches_hand_computation() {
        // Paper table 2, trial profile: 0.8·0.1428 + 0.2·0.605 = 0.23524
        let d = Categorical::new(vec![("easy", 0.8), ("difficult", 0.2)]).unwrap();
        let phf = d.expect(|c| if *c == "easy" { 0.1428 } else { 0.605 });
        assert!((phf - 0.23524).abs() < 1e-12);
    }

    #[test]
    fn sampling_frequencies_converge() {
        let d = Categorical::new(vec![(0usize, 0.9), (1, 0.07), (2, 0.03)]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[d.sample_index(&mut rng)] += 1;
        }
        let freqs: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((freqs[0] - 0.9).abs() < 0.01, "{freqs:?}");
        assert!((freqs[1] - 0.07).abs() < 0.01, "{freqs:?}");
        assert!((freqs[2] - 0.03).abs() < 0.01, "{freqs:?}");
    }

    #[test]
    fn reweighted_changes_profile() {
        let trial = Categorical::new(vec![("easy", 0.8), ("difficult", 0.2)]).unwrap();
        let field = trial
            .reweighted(|c, _| if *c == "easy" { 0.9 } else { 0.1 })
            .unwrap();
        assert!((field.probability_of(&"easy").unwrap().value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn total_variation_basic() {
        let a = Categorical::new(vec![("x", 0.8), ("y", 0.2)]).unwrap();
        let b = Categorical::new(vec![("x", 0.9), ("y", 0.1)]).unwrap();
        let tv = a.total_variation(&b).unwrap();
        assert!((tv - 0.1).abs() < 1e-12);
        assert_eq!(a.total_variation(&a).unwrap(), 0.0);
        let c = Categorical::new(vec![("x", 1.0)]).unwrap();
        assert!(a.total_variation(&c).is_err());
    }

    #[test]
    fn display_lists_categories() {
        let d = Categorical::new(vec![("a", 1.0), ("b", 1.0)]).unwrap();
        let s = d.to_string();
        assert!(s.contains("a: 0.5") && s.contains("b: 0.5"), "{s}");
    }

    #[test]
    fn single_category_always_sampled() {
        let d = Categorical::new(vec![("only", 3.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(*d.sample(&mut rng), "only");
        assert_eq!(d.probability_at(0), Probability::ONE);
    }
}
