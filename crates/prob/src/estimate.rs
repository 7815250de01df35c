//! Binomial parameter estimation: point estimates and confidence intervals.
//!
//! The trial harness (`hmdiv-trial`) observes, for each class of cases,
//! counts such as "the machine failed on 14 of 200 difficult cases" and must
//! turn them into the per-class probabilities the paper's models consume —
//! with honest uncertainty. This module provides the five standard interval
//! methods for a binomial proportion, chosen because they behave differently
//! exactly where screening data lives (small counts, probabilities near 0).

use std::fmt;

use crate::special::{beta_quantile, normal_quantile};
use crate::{ProbError, Probability};

/// Which confidence-interval construction to use for a binomial proportion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CiMethod {
    /// The classical normal approximation `p̂ ± z·√(p̂(1−p̂)/n)`.
    ///
    /// Simple but badly behaved for small `n` or extreme `p̂` (can produce
    /// zero-width intervals at `p̂ ∈ {0, 1}`); included as the baseline.
    Wald,
    /// Wilson score interval: inverts the score test. Good coverage even for
    /// small counts; the recommended default.
    Wilson,
    /// Clopper–Pearson "exact" interval from beta quantiles. Conservative
    /// (coverage ≥ nominal).
    ClopperPearson,
    /// Agresti–Coull: Wald computed after adding `z²/2` pseudo-successes and
    /// failures.
    AgrestiCoull,
    /// Bayesian credible interval under the Jeffreys prior `Beta(½, ½)`.
    Jeffreys,
}

impl fmt::Display for CiMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CiMethod::Wald => "wald",
            CiMethod::Wilson => "wilson",
            CiMethod::ClopperPearson => "clopper-pearson",
            CiMethod::AgrestiCoull => "agresti-coull",
            CiMethod::Jeffreys => "jeffreys",
        };
        f.write_str(name)
    }
}

/// A two-sided confidence interval for a probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    lo: Probability,
    hi: Probability,
    level: f64,
}

impl ConfidenceInterval {
    /// Builds an interval, validating that `lo <= hi` and `level ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidConfidence`] for a bad level, or
    /// [`ProbError::OutOfRange`] if `lo > hi`.
    pub fn new(lo: Probability, hi: Probability, level: f64) -> Result<Self, ProbError> {
        if !(level > 0.0 && level < 1.0) {
            return Err(ProbError::InvalidConfidence { level });
        }
        if lo > hi {
            return Err(ProbError::OutOfRange {
                value: lo.value(),
                context: "interval lower bound (exceeds upper bound)",
            });
        }
        Ok(ConfidenceInterval { lo, hi, level })
    }

    /// The lower bound.
    #[must_use]
    pub fn lo(&self) -> Probability {
        self.lo
    }

    /// The upper bound.
    #[must_use]
    pub fn hi(&self) -> Probability {
        self.hi
    }

    /// The nominal confidence level (e.g. `0.95`).
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The width `hi − lo`.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi.value() - self.lo.value()
    }

    /// Whether the interval contains `p`.
    #[must_use]
    pub fn contains(&self, p: Probability) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// The midpoint of the interval.
    #[must_use]
    pub fn midpoint(&self) -> Probability {
        Probability::clamped((self.lo.value() + self.hi.value()) / 2.0)
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.6}, {:.6}] @ {:.0}%",
            self.lo.value(),
            self.hi.value(),
            self.level * 100.0
        )
    }
}

/// A binomial observation: `successes` out of `trials`.
///
/// "Success" here means *the event being counted occurred* — in this
/// workspace the counted event is usually a failure (e.g. a machine false
/// negative), so read it as "occurrences".
///
/// # Example
///
/// ```
/// use hmdiv_prob::estimate::{BinomialEstimate, CiMethod};
///
/// # fn main() -> Result<(), hmdiv_prob::ProbError> {
/// let est = BinomialEstimate::new(82, 200)?;
/// assert!((est.point().value() - 0.41).abs() < 1e-12);
/// let wilson = est.interval(CiMethod::Wilson, 0.95)?;
/// let exact = est.interval(CiMethod::ClopperPearson, 0.95)?;
/// // Clopper–Pearson is conservative: at least as wide as Wilson.
/// assert!(exact.width() >= wilson.width() - 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BinomialEstimate {
    successes: u64,
    trials: u64,
}

impl BinomialEstimate {
    /// Creates an estimate from observed counts.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidCounts`] if `trials == 0` or
    /// `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> Result<Self, ProbError> {
        if trials == 0 || successes > trials {
            return Err(ProbError::InvalidCounts { successes, trials });
        }
        Ok(BinomialEstimate { successes, trials })
    }

    /// The observed number of occurrences.
    #[must_use]
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// The number of trials.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The maximum-likelihood point estimate `k / n`.
    #[must_use]
    pub fn point(&self) -> Probability {
        Probability::clamped(self.successes as f64 / self.trials as f64)
    }

    /// The estimated standard error `√(p̂(1−p̂)/n)`.
    #[must_use]
    pub fn standard_error(&self) -> f64 {
        let p = self.point().value();
        (p * (1.0 - p) / self.trials as f64).sqrt()
    }

    /// A two-sided confidence interval at the given `level` (e.g. `0.95`).
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidConfidence`] if `level` is not strictly
    /// inside `(0, 1)`.
    pub fn interval(&self, method: CiMethod, level: f64) -> Result<ConfidenceInterval, ProbError> {
        if !(level > 0.0 && level < 1.0) {
            return Err(ProbError::InvalidConfidence { level });
        }
        let alpha = 1.0 - level;
        let z = normal_quantile(1.0 - alpha / 2.0);
        let n = self.trials as f64;
        let k = self.successes as f64;
        let p_hat = k / n;
        let (lo, hi) = match method {
            CiMethod::Wald => {
                let half = z * (p_hat * (1.0 - p_hat) / n).sqrt();
                (p_hat - half, p_hat + half)
            }
            CiMethod::Wilson => {
                let z2 = z * z;
                let denom = 1.0 + z2 / n;
                let centre = (p_hat + z2 / (2.0 * n)) / denom;
                let half = z * ((p_hat * (1.0 - p_hat) + z2 / (4.0 * n)) / n).sqrt() / denom;
                (centre - half, centre + half)
            }
            CiMethod::ClopperPearson => {
                let lo = if self.successes == 0 {
                    0.0
                } else {
                    beta_quantile(k, n - k + 1.0, alpha / 2.0)
                };
                let hi = if self.successes == self.trials {
                    1.0
                } else {
                    beta_quantile(k + 1.0, n - k, 1.0 - alpha / 2.0)
                };
                (lo, hi)
            }
            CiMethod::AgrestiCoull => {
                let z2 = z * z;
                let n_tilde = n + z2;
                let p_tilde = (k + z2 / 2.0) / n_tilde;
                let half = z * (p_tilde * (1.0 - p_tilde) / n_tilde).sqrt();
                (p_tilde - half, p_tilde + half)
            }
            CiMethod::Jeffreys => {
                let a = k + 0.5;
                let b = n - k + 0.5;
                let lo = if self.successes == 0 {
                    0.0
                } else {
                    beta_quantile(a, b, alpha / 2.0)
                };
                let hi = if self.successes == self.trials {
                    1.0
                } else {
                    beta_quantile(a, b, 1.0 - alpha / 2.0)
                };
                (lo, hi)
            }
        };
        // At the boundary counts the true bound is exactly the endpoint; pin
        // it there so the interval always contains the point estimate despite
        // floating-point round-off in the closed forms above.
        let lo = if self.successes == 0 { 0.0 } else { lo };
        let hi = if self.successes == self.trials {
            1.0
        } else {
            hi
        };
        ConfidenceInterval::new(Probability::clamped(lo), Probability::clamped(hi), level)
    }

    /// Pools two estimates drawn from the *same* underlying proportion.
    #[must_use]
    pub fn pooled(self, other: BinomialEstimate) -> BinomialEstimate {
        BinomialEstimate {
            successes: self.successes + other.successes,
            trials: self.trials + other.trials,
        }
    }
}

impl fmt::Display for BinomialEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} (p̂={:.4})",
            self.successes,
            self.trials,
            self.point().value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(k: u64, n: u64) -> BinomialEstimate {
        BinomialEstimate::new(k, n).unwrap()
    }

    #[test]
    fn new_rejects_bad_counts() {
        assert!(BinomialEstimate::new(1, 0).is_err());
        assert!(BinomialEstimate::new(5, 4).is_err());
        assert!(BinomialEstimate::new(0, 1).is_ok());
    }

    #[test]
    fn point_and_se() {
        let e = est(41, 100);
        assert!((e.point().value() - 0.41).abs() < 1e-12);
        assert!((e.standard_error() - (0.41 * 0.59 / 100.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn wilson_matches_published_example() {
        // Known reference: k=10, n=100, 95% Wilson ≈ [0.0552, 0.1744]
        let ci = est(10, 100).interval(CiMethod::Wilson, 0.95).unwrap();
        assert!((ci.lo().value() - 0.0552).abs() < 5e-4, "{ci}");
        assert!((ci.hi().value() - 0.1744).abs() < 5e-4, "{ci}");
    }

    #[test]
    fn clopper_pearson_matches_published_example() {
        // Known reference: k=10, n=100, 95% CP ≈ [0.0490, 0.1762]
        let ci = est(10, 100)
            .interval(CiMethod::ClopperPearson, 0.95)
            .unwrap();
        assert!((ci.lo().value() - 0.0490).abs() < 5e-4, "{ci}");
        assert!((ci.hi().value() - 0.1762).abs() < 5e-4, "{ci}");
    }

    #[test]
    fn zero_and_full_counts_have_sane_intervals() {
        for method in [
            CiMethod::Wilson,
            CiMethod::ClopperPearson,
            CiMethod::AgrestiCoull,
            CiMethod::Jeffreys,
        ] {
            let lo_ci = est(0, 50).interval(method, 0.95).unwrap();
            assert_eq!(lo_ci.lo(), Probability::ZERO, "{method}");
            assert!(lo_ci.hi().value() > 0.0, "{method}");
            let hi_ci = est(50, 50).interval(method, 0.95).unwrap();
            assert_eq!(hi_ci.hi(), Probability::ONE, "{method}");
            assert!(hi_ci.lo().value() < 1.0, "{method}");
        }
        // Wald degenerates to zero width here — documented behaviour.
        let wald = est(0, 50).interval(CiMethod::Wald, 0.95).unwrap();
        assert_eq!(wald.width(), 0.0);
    }

    #[test]
    fn rule_of_three_approximation() {
        // For k=0 the Clopper–Pearson 95% upper bound ≈ 3/n ("rule of three").
        let ci = est(0, 300)
            .interval(CiMethod::ClopperPearson, 0.95)
            .unwrap();
        assert!((ci.hi().value() - 3.0 / 300.0).abs() < 3e-3, "{ci}");
    }

    #[test]
    fn intervals_contain_point_estimate() {
        for method in [
            CiMethod::Wald,
            CiMethod::Wilson,
            CiMethod::ClopperPearson,
            CiMethod::AgrestiCoull,
            CiMethod::Jeffreys,
        ] {
            for &(k, n) in &[(1u64, 10u64), (7, 100), (41, 100), (90, 100), (199, 200)] {
                let e = est(k, n);
                let ci = e.interval(method, 0.95).unwrap();
                assert!(
                    ci.contains(e.point()),
                    "{method} k={k} n={n}: {ci} vs {}",
                    e.point()
                );
            }
        }
    }

    #[test]
    fn higher_level_is_wider() {
        let e = est(7, 100);
        for method in [
            CiMethod::Wilson,
            CiMethod::ClopperPearson,
            CiMethod::Jeffreys,
        ] {
            let ci90 = e.interval(method, 0.90).unwrap();
            let ci99 = e.interval(method, 0.99).unwrap();
            assert!(ci99.width() > ci90.width(), "{method}");
        }
    }

    #[test]
    fn more_data_is_narrower() {
        for method in [CiMethod::Wilson, CiMethod::ClopperPearson] {
            let small = est(7, 100).interval(method, 0.95).unwrap();
            let large = est(70, 1000).interval(method, 0.95).unwrap();
            assert!(large.width() < small.width(), "{method}");
        }
    }

    #[test]
    fn invalid_level_rejected() {
        let e = est(1, 10);
        assert!(e.interval(CiMethod::Wilson, 0.0).is_err());
        assert!(e.interval(CiMethod::Wilson, 1.0).is_err());
        assert!(e.interval(CiMethod::Wilson, -0.5).is_err());
    }

    #[test]
    fn pooling_adds_counts() {
        let pooled = est(3, 10).pooled(est(7, 30));
        assert_eq!(pooled.successes(), 10);
        assert_eq!(pooled.trials(), 40);
    }

    #[test]
    fn interval_accessors() {
        let ci = est(10, 100).interval(CiMethod::Wilson, 0.95).unwrap();
        assert!(ci.midpoint() > ci.lo() && ci.midpoint() < ci.hi());
        assert!((ci.level() - 0.95).abs() < 1e-12);
        assert!(!ci.to_string().is_empty());
    }

    #[test]
    fn interval_new_validates() {
        let p = |v| Probability::new(v).unwrap();
        assert!(ConfidenceInterval::new(p(0.6), p(0.4), 0.95).is_err());
        assert!(ConfidenceInterval::new(p(0.4), p(0.6), 1.5).is_err());
        assert!(ConfidenceInterval::new(p(0.4), p(0.6), 0.95).is_ok());
    }
}
