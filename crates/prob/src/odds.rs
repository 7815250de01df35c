//! Odds and odds ratios.
//!
//! Odds are an alternative parameterisation of probability used when
//! comparing failure rates between strata (e.g. the odds ratio of human
//! failure given machine failure vs. machine success is a scale-free measure
//! of human–machine coupling).

use std::fmt;

use crate::{ProbError, Probability};

/// Odds `p / (1 − p)`: a non-negative value, possibly infinite.
///
/// # Example
///
/// ```
/// use hmdiv_prob::{Odds, Probability};
///
/// # fn main() -> Result<(), hmdiv_prob::ProbError> {
/// let o = Odds::new(3.0)?; // 3:1 on
/// assert!((o.to_probability().value() - 0.75).abs() < 1e-12);
/// let p = Probability::new(0.2)?;
/// assert!((p.to_odds().value() - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
// Derived `PartialOrd` expands to `partial_cmp`, which clippy.toml disallows
// for hand-written float comparisons; the derive itself is fine.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Odds(f64);

impl Odds {
    /// Creates odds from a raw non-negative value.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::OutOfRange`] if `value` is negative or NaN.
    /// `f64::INFINITY` is accepted (the odds of a certain event).
    pub fn new(value: f64) -> Result<Self, ProbError> {
        if value.is_nan() || value < 0.0 {
            return Err(ProbError::OutOfRange {
                value,
                context: "odds",
            });
        }
        Ok(Odds(value))
    }

    /// The odds of a certain event.
    #[must_use]
    pub fn infinite() -> Self {
        Odds(f64::INFINITY)
    }

    /// Converts a probability to odds.
    #[must_use]
    pub fn from_probability(p: Probability) -> Self {
        if p.is_one() {
            Odds::infinite()
        } else {
            Odds(p.value() / (1.0 - p.value()))
        }
    }

    /// Returns the raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Converts back to a probability `o / (1 + o)`.
    #[must_use]
    pub fn to_probability(self) -> Probability {
        if self.0.is_infinite() {
            Probability::ONE
        } else {
            Probability::clamped(self.0 / (1.0 + self.0))
        }
    }

    /// The odds ratio `self / other`, a standard effect-size measure.
    ///
    /// Conventions: `0/0` and `∞/∞` are undefined and return `None`;
    /// any finite odds divided by zero odds gives infinite ratio.
    #[must_use]
    pub fn ratio(self, other: Odds) -> Option<f64> {
        if (self.0 == 0.0 && other.0 == 0.0) || (self.0.is_infinite() && other.0.is_infinite()) {
            return None;
        }
        if other.0 == 0.0 {
            return Some(f64::INFINITY);
        }
        Some(self.0 / other.0)
    }
}

impl fmt::Display for Odds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl Default for Odds {
    /// Default odds are `0` (the impossible event), matching
    /// `Probability::default`.
    fn default() -> Self {
        Odds(0.0)
    }
}

/// Computes the odds ratio between two probabilities:
/// `[p/(1−p)] / [q/(1−q)]`.
///
/// Returns `None` where the ratio is undefined (both zero or both one).
///
/// # Example
///
/// ```
/// use hmdiv_prob::{odds, Probability};
///
/// # fn main() -> Result<(), hmdiv_prob::ProbError> {
/// // Paper §5, "difficult" cases: P(Hf|Mf) = 0.9 vs P(Hf|Ms) = 0.4 —
/// // the odds of human failure are 13.5 times higher when the machine fails.
/// let or = odds::odds_ratio(Probability::new(0.9)?, Probability::new(0.4)?).unwrap();
/// assert!((or - 13.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn odds_ratio(p: Probability, q: Probability) -> Option<f64> {
    p.to_odds().ratio(q.to_odds())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn roundtrip_probability_odds() {
        for &v in &[0.0, 0.1, 0.5, 0.9, 0.999] {
            let back = p(v).to_odds().to_probability();
            assert!((back.value() - v).abs() < 1e-12, "{v}");
        }
        assert_eq!(Probability::ONE.to_odds(), Odds::infinite());
        assert_eq!(Odds::infinite().to_probability(), Probability::ONE);
    }

    #[test]
    fn new_rejects_negative_and_nan() {
        assert!(Odds::new(-0.1).is_err());
        assert!(Odds::new(f64::NAN).is_err());
        assert!(Odds::new(f64::INFINITY).is_ok());
    }

    #[test]
    fn odds_ratio_conventions() {
        assert!(odds_ratio(Probability::ZERO, Probability::ZERO).is_none());
        assert!(odds_ratio(Probability::ONE, Probability::ONE).is_none());
        assert_eq!(odds_ratio(p(0.5), Probability::ZERO), Some(f64::INFINITY));
        let or = odds_ratio(p(0.5), p(0.5)).unwrap();
        assert!((or - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_nonempty() {
        assert!(!Odds::new(2.5).unwrap().to_string().is_empty());
    }
}
