//! Comparing two proportions: significance tests and effect sizes.
//!
//! A trial of a human–machine system constantly asks comparison questions:
//! did the CADT change the reader's failure rate (`PHf|Mf` vs `PHf|Ms`)? Is
//! reader A better than reader B on difficult cases? Is the improved CADT
//! measurably better? This module provides the classical two-sample tools:
//! the two-proportion z-test, Fisher's exact test (for the sparse counts
//! screening data produces), and a Woolf confidence interval for the odds
//! ratio.

use crate::estimate::BinomialEstimate;
use crate::special::{ln_gamma, normal_cdf, normal_quantile};
use crate::ProbError;

/// Result of a two-proportion comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Difference of proportions `p̂₁ − p̂₂`.
    pub difference: f64,
    /// The test statistic (z for the z-test; not meaningful for exact tests).
    pub statistic: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl Comparison {
    /// Whether the difference is significant at level `alpha`.
    #[must_use]
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Two-proportion z-test (pooled standard error), two-sided.
///
/// Appropriate for large counts; for sparse tables prefer
/// [`fisher_exact`].
///
/// # Errors
///
/// [`ProbError::InvalidCounts`] if either sample is empty.
///
/// # Example
///
/// ```
/// use hmdiv_prob::compare::two_proportion_z_test;
/// use hmdiv_prob::estimate::BinomialEstimate;
///
/// # fn main() -> Result<(), hmdiv_prob::ProbError> {
/// // Reader failures with machine failed (74/82) vs succeeded (47/118):
/// let with_mf = BinomialEstimate::new(74, 82)?;
/// let with_ms = BinomialEstimate::new(47, 118)?;
/// let cmp = two_proportion_z_test(with_mf, with_ms)?;
/// assert!(cmp.significant_at(0.001), "automation dependence is large");
/// # Ok(())
/// # }
/// ```
pub fn two_proportion_z_test(
    a: BinomialEstimate,
    b: BinomialEstimate,
) -> Result<Comparison, ProbError> {
    let n1 = a.trials() as f64;
    let n2 = b.trials() as f64;
    let p1 = a.point().value();
    let p2 = b.point().value();
    let pooled = (a.successes() + b.successes()) as f64 / (n1 + n2);
    let se = (pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)).sqrt();
    let difference = p1 - p2;
    if se == 0.0 {
        // Both proportions identical and degenerate: no evidence of any
        // difference.
        return Ok(Comparison {
            difference,
            statistic: 0.0,
            p_value: 1.0,
        });
    }
    let z = difference / se;
    let p_value = 2.0 * (1.0 - normal_cdf(z.abs()));
    Ok(Comparison {
        difference,
        statistic: z,
        p_value: p_value.clamp(0.0, 1.0),
    })
}

/// Fisher's exact test (two-sided, by summation of hypergeometric
/// probabilities no larger than the observed table's).
///
/// Suited to the sparse per-class tables screening trials produce (e.g. a
/// handful of machine failures in a rare class).
///
/// # Errors
///
/// [`ProbError::InvalidCounts`] if either sample is empty.
pub fn fisher_exact(a: BinomialEstimate, b: BinomialEstimate) -> Result<Comparison, ProbError> {
    let k1 = a.successes();
    let n1 = a.trials();
    let k2 = b.successes();
    let n2 = b.trials();
    let total_success = k1 + k2;
    // Hypergeometric probability of seeing x successes in sample 1, given
    // the margins.
    let ln_choose = |n: u64, k: u64| -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
    };
    let ln_denom = ln_choose(n1 + n2, total_success);
    let prob_of = |x: u64| -> f64 {
        if x > n1 || total_success < x || (total_success - x) > n2 {
            return 0.0;
        }
        (ln_choose(n1, x) + ln_choose(n2, total_success - x) - ln_denom).exp()
    };
    let observed = prob_of(k1);
    let lo = total_success.saturating_sub(n2);
    let hi = total_success.min(n1);
    let mut p_value = 0.0;
    for x in lo..=hi {
        let p = prob_of(x);
        if p <= observed * (1.0 + 1e-7) {
            p_value += p;
        }
    }
    Ok(Comparison {
        difference: a.point().value() - b.point().value(),
        statistic: f64::NAN, // exact test has no z statistic
        p_value: p_value.clamp(0.0, 1.0),
    })
}

/// McNemar's test for *paired* binary outcomes — the design of real CAD
/// reader studies, where the same cases are read with and without the tool
/// and only the discordant pairs are informative.
///
/// `b` counts pairs that failed under condition 1 but not condition 2;
/// `c` the reverse. Uses the exact binomial form (discordant pairs are
/// Binomial(b+c, ½) under the null), which is valid at any count — the
/// χ² approximation is not needed.
///
/// Returns a [`Comparison`] whose `difference` is the discordance asymmetry
/// `(b − c)/(b + c)`, or `p_value = 1` when there are no discordant pairs.
///
/// # Example
///
/// ```
/// use hmdiv_prob::compare::mcnemar_exact;
///
/// // 30 cancers missed unaided but caught with the CADT; 9 the reverse.
/// let cmp = mcnemar_exact(30, 9);
/// assert!(cmp.significant_at(0.01), "p = {}", cmp.p_value);
/// ```
#[must_use]
pub fn mcnemar_exact(b: u64, c: u64) -> Comparison {
    let n = b + c;
    if n == 0 {
        return Comparison {
            difference: 0.0,
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let difference = (b as f64 - c as f64) / n as f64;
    let k = b.min(c);
    // Two-sided exact binomial p-value: 2·P(X <= k) for X ~ Bin(n, ½),
    // capped at 1 (and halved correctly when b == c).
    let ln_choose = |n: u64, k: u64| -> f64 {
        ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
    };
    let ln_half_n = n as f64 * 0.5f64.ln();
    let tail: f64 = (0..=k).map(|i| (ln_choose(n, i) + ln_half_n).exp()).sum();
    let p_value = if b == c { 1.0 } else { (2.0 * tail).min(1.0) };
    Comparison {
        difference,
        statistic: f64::NAN,
        p_value,
    }
}

/// Woolf (log) confidence interval for the odds ratio of two proportions,
/// with the Haldane–Anscombe 0.5 correction when any cell is zero.
///
/// Returns `(or, lo, hi)`.
///
/// # Errors
///
/// [`ProbError::InvalidConfidence`] if `level` is not strictly in `(0, 1)`.
pub fn odds_ratio_interval(
    a: BinomialEstimate,
    b: BinomialEstimate,
    level: f64,
) -> Result<(f64, f64, f64), ProbError> {
    if !(level > 0.0 && level < 1.0) {
        return Err(ProbError::InvalidConfidence { level });
    }
    let mut x1 = a.successes() as f64;
    let mut y1 = (a.trials() - a.successes()) as f64;
    let mut x2 = b.successes() as f64;
    let mut y2 = (b.trials() - b.successes()) as f64;
    if x1 == 0.0 || y1 == 0.0 || x2 == 0.0 || y2 == 0.0 {
        x1 += 0.5;
        y1 += 0.5;
        x2 += 0.5;
        y2 += 0.5;
    }
    let or = (x1 / y1) / (x2 / y2);
    let se = (1.0 / x1 + 1.0 / y1 + 1.0 / x2 + 1.0 / y2).sqrt();
    let z = normal_quantile(1.0 - (1.0 - level) / 2.0);
    let lo = (or.ln() - z * se).exp();
    let hi = (or.ln() + z * se).exp();
    Ok((or, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(k: u64, n: u64) -> BinomialEstimate {
        BinomialEstimate::new(k, n).unwrap()
    }

    #[test]
    fn z_test_detects_large_differences() {
        let cmp = two_proportion_z_test(est(74, 82), est(47, 118)).unwrap();
        assert!(cmp.difference > 0.4);
        assert!(cmp.p_value < 1e-6);
        assert!(cmp.significant_at(0.01));
    }

    #[test]
    fn z_test_accepts_equal_proportions() {
        let cmp = two_proportion_z_test(est(30, 100), est(30, 100)).unwrap();
        assert!((cmp.difference).abs() < 1e-12);
        assert!(cmp.p_value > 0.99);
        assert!(!cmp.significant_at(0.05));
    }

    #[test]
    fn z_test_degenerate_pool() {
        // No successes anywhere: se = 0, p-value 1.
        let cmp = two_proportion_z_test(est(0, 50), est(0, 70)).unwrap();
        assert_eq!(cmp.p_value, 1.0);
        assert_eq!(cmp.statistic, 0.0);
    }

    #[test]
    fn fisher_matches_known_example() {
        // Classic tea-tasting table: 3/4 vs 1/4 → two-sided p ≈ 0.486.
        let cmp = fisher_exact(est(3, 4), est(1, 4)).unwrap();
        assert!((cmp.p_value - 0.485_714).abs() < 1e-4, "{}", cmp.p_value);
    }

    #[test]
    fn fisher_extreme_table_is_significant() {
        let cmp = fisher_exact(est(20, 20), est(0, 20)).unwrap();
        assert!(cmp.p_value < 1e-8, "{}", cmp.p_value);
    }

    #[test]
    fn fisher_and_z_agree_for_large_counts() {
        let a = est(300, 1000);
        let b = est(250, 1000);
        let z = two_proportion_z_test(a, b).unwrap();
        let f = fisher_exact(a, b).unwrap();
        // Same order of magnitude; both clearly significant.
        assert!(z.p_value < 0.02 && f.p_value < 0.02);
        assert!(
            (z.p_value.ln() - f.p_value.ln()).abs() < 1.0,
            "{} vs {}",
            z.p_value,
            f.p_value
        );
    }

    #[test]
    fn fisher_pvalue_never_exceeds_one() {
        for (k1, n1, k2, n2) in [(0u64, 5u64, 0u64, 5u64), (2, 4, 2, 4), (5, 10, 5, 10)] {
            let cmp = fisher_exact(est(k1, n1), est(k2, n2)).unwrap();
            assert!(cmp.p_value <= 1.0 && cmp.p_value > 0.9, "{cmp:?}");
        }
    }

    #[test]
    fn mcnemar_detects_asymmetric_discordance() {
        let cmp = mcnemar_exact(30, 9);
        assert!(cmp.p_value < 0.01, "{}", cmp.p_value);
        assert!(cmp.difference > 0.5);
        // Known value: 2·P(Bin(39, ½) <= 9) ≈ 0.00103.
        assert!((cmp.p_value - 0.00103).abs() < 2e-4, "{}", cmp.p_value);
    }

    #[test]
    fn mcnemar_symmetric_is_null() {
        let cmp = mcnemar_exact(12, 12);
        assert_eq!(cmp.p_value, 1.0);
        assert_eq!(cmp.difference, 0.0);
        let cmp = mcnemar_exact(0, 0);
        assert_eq!(cmp.p_value, 1.0);
    }

    #[test]
    fn mcnemar_small_counts_exact() {
        // b=5, c=0: p = 2·(½)^5 = 0.0625 — not significant at 5%, the
        // classic sparse-data caution.
        let cmp = mcnemar_exact(5, 0);
        assert!((cmp.p_value - 0.0625).abs() < 1e-10, "{}", cmp.p_value);
        assert!(!cmp.significant_at(0.05));
    }

    #[test]
    fn odds_ratio_interval_basics() {
        // Difficult class: 74/82 failures with Mf vs 47/118 with Ms.
        let (or, lo, hi) = odds_ratio_interval(est(74, 82), est(47, 118), 0.95).unwrap();
        assert!(or > 10.0, "{or}");
        assert!(lo < or && or < hi);
        assert!(lo > 1.0, "clearly above no-effect");
        assert!(odds_ratio_interval(est(1, 10), est(1, 10), 1.0).is_err());
    }

    #[test]
    fn odds_ratio_zero_cells_corrected() {
        let (or, lo, hi) = odds_ratio_interval(est(0, 10), est(5, 10), 0.95).unwrap();
        assert!(or.is_finite() && or > 0.0);
        assert!(lo < hi);
        assert!(
            or < 0.1,
            "zero successes vs 50%: OR point estimate well below 1, got {or}"
        );
        // At n=10 the corrected interval is wide — it may graze 1 — but the
        // bulk of it must sit below no-effect.
        assert!(hi < 1.5, "{hi}");
    }

    #[test]
    fn equal_odds_ratio_is_one() {
        let (or, lo, hi) = odds_ratio_interval(est(20, 100), est(20, 100), 0.95).unwrap();
        assert!((or - 1.0).abs() < 1e-12);
        assert!(lo < 1.0 && hi > 1.0);
    }
}
