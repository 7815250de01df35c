//! Streaming moment accumulators for Monte-Carlo runs.
//!
//! The simulation engine pushes millions of per-case outcomes; these
//! accumulators maintain numerically stable running moments (Welford's
//! algorithm and its bivariate extension) without storing the stream.

use crate::{ProbError, Probability};

/// Welford running mean/variance accumulator.
///
/// # Example
///
/// ```
/// use hmdiv_prob::seq::RunningMoments;
///
/// let mut acc = RunningMoments::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 4);
/// assert!((acc.mean().unwrap() - 2.5).abs() < 1e-12);
/// assert!((acc.sample_variance().unwrap() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningMoments::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// The population variance (divides by `n`), or `None` if empty.
    #[must_use]
    pub fn population_variance(&self) -> Option<f64> {
        (self.count > 0).then(|| (self.m2 / self.count as f64).max(0.0))
    }

    /// The sample variance (divides by `n − 1`), or `None` if fewer than two
    /// observations.
    #[must_use]
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count > 1).then(|| (self.m2 / (self.count - 1) as f64).max(0.0))
    }

    /// The standard error of the mean `√(s²/n)`, or `None` if fewer than two
    /// observations.
    #[must_use]
    pub fn standard_error(&self) -> Option<f64> {
        self.sample_variance()
            .map(|v| (v / self.count as f64).sqrt())
    }

    /// Merges another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Running Bernoulli tally: count of hits out of observations, convertible
/// into a [`Probability`] estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BernoulliTally {
    hits: u64,
    total: u64,
}

impl BernoulliTally {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        BernoulliTally::default()
    }

    /// Records one observation.
    pub fn push(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Number of hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The empirical frequency, or an error if nothing was observed.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidCounts`] if the tally is empty.
    pub fn frequency(&self) -> Result<Probability, ProbError> {
        if self.total == 0 {
            return Err(ProbError::InvalidCounts {
                successes: self.hits,
                trials: 0,
            });
        }
        Probability::from_ratio(self.hits, self.total)
    }

    /// Merges another tally.
    pub fn merge(&mut self, other: &BernoulliTally) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

/// Bivariate Welford accumulator: running means, variances and covariance of
/// a paired stream — used to estimate failure-probability covariances from
/// simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningCovariance {
    count: u64,
    mean_x: f64,
    mean_y: f64,
    m2_x: f64,
    m2_y: f64,
    c2: f64,
}

impl RunningCovariance {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningCovariance::default()
    }

    /// Adds one paired observation.
    pub fn push(&mut self, x: f64, y: f64) {
        self.count += 1;
        let n = self.count as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        self.m2_x += dx * (x - self.mean_x);
        let dy = y - self.mean_y;
        self.mean_y += dy / n;
        self.m2_y += dy * (y - self.mean_y);
        // Uses the updated mean_x and pre-update mean_y correction form.
        self.c2 += dx * (y - self.mean_y);
    }

    /// Number of paired observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The population covariance, or `None` if empty.
    #[must_use]
    pub fn population_covariance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.c2 / self.count as f64)
    }

    /// The sample covariance (divides by `n − 1`), or `None` if fewer than
    /// two observations.
    #[must_use]
    pub fn sample_covariance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.c2 / (self.count - 1) as f64)
    }

    /// The Pearson correlation, or `None` if undefined.
    #[must_use]
    pub fn correlation(&self) -> Option<f64> {
        if self.count == 0 || self.m2_x <= 0.0 || self.m2_y <= 0.0 {
            return None;
        }
        Some((self.c2 / (self.m2_x * self.m2_y).sqrt()).clamp(-1.0, 1.0))
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &RunningCovariance) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let total = n1 + n2;
        let dx = other.mean_x - self.mean_x;
        let dy = other.mean_y - self.mean_y;
        self.m2_x += other.m2_x + dx * dx * n1 * n2 / total;
        self.m2_y += other.m2_y + dy * dy * n1 * n2 / total;
        self.c2 += other.c2 + dx * dy * n1 * n2 / total;
        self.mean_x += dx * n2 / total;
        self.mean_y += dy * n2 / total;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_moments_empty_and_single() {
        let mut acc = RunningMoments::new();
        assert!(acc.mean().is_none());
        assert!(acc.population_variance().is_none());
        acc.push(3.0);
        assert_eq!(acc.mean(), Some(3.0));
        assert_eq!(acc.population_variance(), Some(0.0));
        assert!(acc.sample_variance().is_none());
    }

    #[test]
    fn running_moments_match_direct() {
        let data = [0.07, 0.41, 0.9, 0.4, 0.18, 0.14];
        let mut acc = RunningMoments::new();
        for &x in &data {
            acc.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / data.len() as f64;
        assert!((acc.mean().unwrap() - mean).abs() < 1e-12);
        assert!((acc.population_variance().unwrap() - var).abs() < 1e-12);
        assert!(acc.standard_error().unwrap() > 0.0);
    }

    #[test]
    fn running_moments_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut whole = RunningMoments::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert!((a.sample_variance().unwrap() - whole.sample_variance().unwrap()).abs() < 1e-12);
        // Merging an empty accumulator is the identity.
        let before = a;
        a.merge(&RunningMoments::new());
        assert_eq!(a, before);
    }

    #[test]
    fn bernoulli_tally() {
        let mut t = BernoulliTally::new();
        assert!(t.frequency().is_err());
        for i in 0..10 {
            t.push(i < 3);
        }
        assert_eq!(t.hits(), 3);
        assert_eq!(t.total(), 10);
        assert!((t.frequency().unwrap().value() - 0.3).abs() < 1e-12);
        let mut u = BernoulliTally::new();
        u.push(true);
        t.merge(&u);
        assert_eq!(t.hits(), 4);
        assert_eq!(t.total(), 11);
    }

    #[test]
    fn running_covariance_matches_direct() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 1.0, 4.0, 3.0, 5.0];
        let mut acc = RunningCovariance::new();
        for (x, y) in xs.iter().zip(&ys) {
            acc.push(*x, *y);
        }
        let mx: f64 = xs.iter().sum::<f64>() / 5.0;
        let my: f64 = ys.iter().sum::<f64>() / 5.0;
        let cov: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / 5.0;
        assert!((acc.population_covariance().unwrap() - cov).abs() < 1e-12);
        assert!(acc.correlation().unwrap() > 0.0);
    }

    #[test]
    fn running_covariance_merge_equals_sequential() {
        let pairs: Vec<(f64, f64)> = (0..50)
            .map(|i| ((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut whole = RunningCovariance::new();
        for &(x, y) in &pairs {
            whole.push(x, y);
        }
        let mut a = RunningCovariance::new();
        let mut b = RunningCovariance::new();
        for &(x, y) in &pairs[..20] {
            a.push(x, y);
        }
        for &(x, y) in &pairs[20..] {
            b.push(x, y);
        }
        a.merge(&b);
        assert!(
            (a.population_covariance().unwrap() - whole.population_covariance().unwrap()).abs()
                < 1e-12
        );
        assert!((a.correlation().unwrap() - whole.correlation().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn covariance_degenerate_cases() {
        let mut acc = RunningCovariance::new();
        assert!(acc.population_covariance().is_none());
        acc.push(1.0, 1.0);
        assert!(acc.sample_covariance().is_none());
        assert!(acc.correlation().is_none()); // zero variance
        acc.push(1.0, 2.0);
        assert!(acc.correlation().is_none()); // x still constant
    }
}
