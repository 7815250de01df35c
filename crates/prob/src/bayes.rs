//! Bayesian estimation for probability parameters: the Beta distribution and
//! beta–binomial conjugate updating.
//!
//! The paper's conclusions stress that trial data for rare classes of cases
//! is scarce; Bayesian updating with an explicit prior is the standard
//! defensible way to combine scarce trial counts with prior knowledge (e.g.
//! published reader-performance studies) into the per-class parameters the
//! models consume.

use rand::Rng;

use crate::special::{beta_quantile, incomplete_beta, ln_beta};
use crate::{ProbError, Probability};

/// A Beta(α, β) distribution over a probability parameter.
///
/// # Example
///
/// ```
/// use hmdiv_prob::bayes::Beta;
///
/// # fn main() -> Result<(), hmdiv_prob::ProbError> {
/// // Jeffreys prior, updated with 7 failures in 100 cases:
/// let posterior = Beta::jeffreys().updated(7, 93);
/// assert!((posterior.mean().value() - 7.5 / 101.0).abs() < 1e-12);
/// let (lo, hi) = posterior.credible_interval(0.95)?;
/// assert!(lo.value() < 0.07 && hi.value() > 0.07);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

impl Beta {
    /// Creates a Beta distribution with the given shape parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidShape`] unless both parameters are
    /// strictly positive and finite.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, ProbError> {
        if alpha.is_nan() || alpha <= 0.0 || alpha.is_infinite() {
            return Err(ProbError::InvalidShape {
                value: alpha,
                name: "alpha",
            });
        }
        if beta.is_nan() || beta <= 0.0 || beta.is_infinite() {
            return Err(ProbError::InvalidShape {
                value: beta,
                name: "beta",
            });
        }
        Ok(Beta { alpha, beta })
    }

    /// The uniform prior `Beta(1, 1)`.
    #[must_use]
    pub fn uniform() -> Self {
        Beta {
            alpha: 1.0,
            beta: 1.0,
        }
    }

    /// The Jeffreys prior `Beta(½, ½)`.
    #[must_use]
    pub fn jeffreys() -> Self {
        Beta {
            alpha: 0.5,
            beta: 0.5,
        }
    }

    /// The α shape parameter.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The β shape parameter.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Posterior after observing `successes` occurrences and `failures`
    /// non-occurrences (conjugate update).
    #[must_use]
    pub fn updated(&self, successes: u64, failures: u64) -> Beta {
        Beta {
            alpha: self.alpha + successes as f64,
            beta: self.beta + failures as f64,
        }
    }

    /// The mean `α / (α + β)`.
    #[must_use]
    pub fn mean(&self) -> Probability {
        Probability::clamped(self.alpha / (self.alpha + self.beta))
    }

    /// The mode, defined for `α, β > 1`; `None` otherwise.
    #[must_use]
    pub fn mode(&self) -> Option<Probability> {
        if self.alpha > 1.0 && self.beta > 1.0 {
            Some(Probability::clamped(
                (self.alpha - 1.0) / (self.alpha + self.beta - 2.0),
            ))
        } else {
            None
        }
    }

    /// The variance `αβ / ((α+β)²(α+β+1))`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    /// The cumulative distribution function at `x`.
    #[must_use]
    pub fn cdf(&self, x: Probability) -> Probability {
        Probability::clamped(incomplete_beta(self.alpha, self.beta, x.value()))
    }

    /// The probability density function at `x`.
    #[must_use]
    pub fn pdf(&self, x: Probability) -> f64 {
        let x = x.value();
        if x == 0.0 || x == 1.0 {
            // Density may be infinite at the endpoints; report 0 for the
            // measure-zero endpoints of the open support when shape > 1,
            // and +∞ when the density genuinely diverges.
            if (x == 0.0 && self.alpha < 1.0) || (x == 1.0 && self.beta < 1.0) {
                return f64::INFINITY;
            }
            if (x == 0.0 && self.alpha == 1.0) || (x == 1.0 && self.beta == 1.0) {
                return (-ln_beta(self.alpha, self.beta)).exp();
            }
            return 0.0;
        }
        ((self.alpha - 1.0) * x.ln() + (self.beta - 1.0) * (1.0 - x).ln()
            - ln_beta(self.alpha, self.beta))
        .exp()
    }

    /// The `q`-th quantile.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::OutOfRange`] if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<Probability, ProbError> {
        if q.is_nan() || !(0.0..=1.0).contains(&q) {
            return Err(ProbError::OutOfRange {
                value: q,
                context: "quantile order",
            });
        }
        Ok(Probability::clamped(beta_quantile(
            self.alpha, self.beta, q,
        )))
    }

    /// An equal-tailed credible interval at the given `level`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidConfidence`] if `level` is not strictly
    /// inside `(0, 1)`.
    pub fn credible_interval(&self, level: f64) -> Result<(Probability, Probability), ProbError> {
        if !(level > 0.0 && level < 1.0) {
            return Err(ProbError::InvalidConfidence { level });
        }
        let alpha_tail = (1.0 - level) / 2.0;
        Ok((self.quantile(alpha_tail)?, self.quantile(1.0 - alpha_tail)?))
    }

    /// Draws a sample using Jöhnk/Cheng-style gamma ratio sampling
    /// (two `Gamma(shape, 1)` draws via Marsaglia–Tsang).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Probability {
        let x = sample_gamma(self.alpha, rng);
        let y = sample_gamma(self.beta, rng);
        Probability::clamped(x / (x + y))
    }
}

/// Marsaglia–Tsang gamma sampler, shape `k > 0`, scale 1.
fn sample_gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(k) = Gamma(k+1) · U^{1/k}
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = 1.0 + c * z;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_validates_shapes() {
        assert!(Beta::new(0.0, 1.0).is_err());
        assert!(Beta::new(1.0, -1.0).is_err());
        assert!(Beta::new(f64::NAN, 1.0).is_err());
        assert!(Beta::new(f64::INFINITY, 1.0).is_err());
        assert!(Beta::new(0.5, 0.5).is_ok());
    }

    #[test]
    fn conjugate_update_moves_mean_toward_data() {
        let prior = Beta::uniform();
        let posterior = prior.updated(41, 59); // 41% observed
        let m = posterior.mean().value();
        assert!((m - 42.0 / 102.0).abs() < 1e-12);
        // More data pulls the mean closer to the empirical rate.
        let tighter = prior.updated(410, 590);
        assert!((tighter.mean().value() - 0.41).abs() < (m - 0.41).abs());
    }

    #[test]
    fn moments_of_uniform() {
        let u = Beta::uniform();
        assert_eq!(u.mean(), Probability::HALF);
        assert!((u.variance() - 1.0 / 12.0).abs() < 1e-12);
        assert!(u.mode().is_none());
    }

    #[test]
    fn mode_when_defined() {
        let b = Beta::new(3.0, 2.0).unwrap();
        assert!((b.mode().unwrap().value() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_quantile_inverse() {
        let b = Beta::new(8.0, 93.0).unwrap();
        for &q in &[0.025, 0.5, 0.975] {
            let x = b.quantile(q).unwrap();
            assert!((b.cdf(x).value() - q).abs() < 1e-9);
        }
    }

    #[test]
    fn credible_interval_narrows_with_data() {
        let few = Beta::jeffreys().updated(7, 93);
        let many = Beta::jeffreys().updated(70, 930);
        let (lo1, hi1) = few.credible_interval(0.95).unwrap();
        let (lo2, hi2) = many.credible_interval(0.95).unwrap();
        assert!(hi2.value() - lo2.value() < hi1.value() - lo1.value());
        assert!(few.credible_interval(1.0).is_err());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let b = Beta::new(2.5, 4.0).unwrap();
        // Trapezoidal rule on a fine grid.
        let n = 20_000;
        let mut sum = 0.0;
        for i in 0..n {
            let x0 = i as f64 / n as f64;
            let x1 = (i + 1) as f64 / n as f64;
            sum += (b.pdf(Probability::clamped(x0)) + b.pdf(Probability::clamped(x1))) / 2.0
                * (x1 - x0);
        }
        assert!((sum - 1.0).abs() < 1e-5, "{sum}");
    }

    #[test]
    fn pdf_endpoint_conventions() {
        assert!((Beta::uniform().pdf(Probability::ZERO) - 1.0).abs() < 1e-12);
        assert_eq!(Beta::new(2.0, 2.0).unwrap().pdf(Probability::ZERO), 0.0);
        assert_eq!(Beta::jeffreys().pdf(Probability::ZERO), f64::INFINITY);
    }

    #[test]
    fn sampling_matches_moments() {
        let b = Beta::new(3.0, 7.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = b.sample(&mut rng).value();
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 0.3).abs() < 0.005, "mean {mean}");
        assert!(
            (var - b.variance()).abs() < 0.002,
            "var {var} vs {}",
            b.variance()
        );
    }

    #[test]
    fn sampling_small_shapes() {
        // Shape < 1 exercises the boost branch.
        let b = Beta::jeffreys();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| b.sample(&mut rng).value()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "{mean}");
    }

    #[test]
    fn quantile_rejects_bad_order() {
        let b = Beta::uniform();
        assert!(b.quantile(-0.1).is_err());
        assert!(b.quantile(1.1).is_err());
        assert!(b.quantile(f64::NAN).is_err());
    }
}
