use std::fmt;
use std::ops::{Mul, Not};

use crate::odds::Odds;
use crate::ProbError;

/// A probability: a finite `f64` guaranteed to lie in `[0, 1]`.
///
/// Every event probability in the `hmdiv` workspace — machine failure
/// `P(Mf)`, conditional human failure `P(Hf|Ms)`, demand-class weights — is a
/// `Probability`, so invalid values are rejected at the boundary once rather
/// than checked in every formula (C-NEWTYPE, C-VALIDATE).
///
/// Multiplication of two probabilities (the probability of the conjunction of
/// independent events) is closed and available through `*`. Addition is *not*
/// closed, so it is exposed as the fallible [`Probability::try_add`] and the
/// disjunction helpers [`Probability::or_independent`] and
/// [`Probability::mix`], which are closed.
///
/// # Example
///
/// ```
/// use hmdiv_prob::Probability;
///
/// # fn main() -> Result<(), hmdiv_prob::ProbError> {
/// let p_mf = Probability::new(0.07)?;
/// let p_hf = Probability::new(0.18)?;
/// // probability that both machine and human fail, were they independent:
/// let both = p_mf * p_hf;
/// assert!((both.value() - 0.0126).abs() < 1e-12);
/// // complement via `!`:
/// assert!(((!p_mf).value() - 0.93).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
// Derived `PartialOrd` expands to `partial_cmp`, which clippy.toml disallows
// for hand-written float comparisons; the derive itself is fine.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Probability(f64);

impl Probability {
    /// The impossible event, probability `0`.
    pub const ZERO: Probability = Probability(0.0);
    /// The certain event, probability `1`.
    pub const ONE: Probability = Probability(1.0);
    /// A fair coin, probability `0.5`.
    pub const HALF: Probability = Probability(0.5);

    /// Creates a probability from a raw value.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::OutOfRange`] if `value` is NaN or outside
    /// `[0, 1]`.
    pub fn new(value: f64) -> Result<Self, ProbError> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            return Err(ProbError::OutOfRange {
                value,
                context: "probability",
            });
        }
        Ok(Probability(value))
    }

    /// Creates a probability, clamping the value into `[0, 1]`.
    ///
    /// Useful when a value is known to be a probability up to floating-point
    /// round-off (e.g. `1.0 - p - q` computed from probabilities that sum to
    /// at most one).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN: a NaN is a logic error, not round-off.
    #[must_use]
    pub fn clamped(value: f64) -> Self {
        assert!(!value.is_nan(), "cannot clamp NaN into a probability");
        Probability(value.clamp(0.0, 1.0))
    }

    /// Creates the probability `k / n` of drawing one of `k` favourable
    /// outcomes out of `n` equally likely ones.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidCounts`] if `k > n` or `n == 0`.
    pub fn from_ratio(k: u64, n: u64) -> Result<Self, ProbError> {
        if n == 0 || k > n {
            return Err(ProbError::InvalidCounts {
                successes: k,
                trials: n,
            });
        }
        Ok(Probability(k as f64 / n as f64))
    }

    /// Returns the raw `f64` value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns the complement `1 − p` (also available through `!`).
    #[must_use]
    pub fn complement(self) -> Self {
        Probability(1.0 - self.0)
    }

    /// Fallible addition: `p + q` as the probability of the union of two
    /// *mutually exclusive* events.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::OutOfRange`] if the sum exceeds `1` by more than
    /// floating-point round-off (`1e-9`); sums within round-off are clamped.
    pub fn try_add(self, other: Self) -> Result<Self, ProbError> {
        let sum = self.0 + other.0;
        if sum > 1.0 + 1e-9 {
            return Err(ProbError::OutOfRange {
                value: sum,
                context: "sum of probabilities",
            });
        }
        Ok(Probability(sum.min(1.0)))
    }

    /// The probability that at least one of two *independent* events occurs:
    /// `1 − (1 − p)(1 − q)`.
    ///
    /// This is the 1-out-of-2 parallel-redundancy law used by the paper's
    /// Fig. 2 detection stage.
    #[must_use]
    pub fn or_independent(self, other: Self) -> Self {
        Probability(1.0 - (1.0 - self.0) * (1.0 - other.0))
    }

    /// Convex mixture: `w·p + (1 − w)·q`, the law of total probability over a
    /// binary partition with weight `w` on `self`.
    #[must_use]
    pub fn mix(self, other: Self, weight: Probability) -> Self {
        let w = weight.0;
        Probability::clamped(w * self.0 + (1.0 - w) * other.0)
    }

    /// Converts to odds `p / (1 − p)`.
    ///
    /// `Probability::ONE` maps to [`Odds::infinite`].
    #[must_use]
    pub fn to_odds(self) -> Odds {
        Odds::from_probability(self)
    }

    /// The log-odds (logit) of the probability; `±∞` at the endpoints.
    #[must_use]
    pub fn logit(self) -> f64 {
        (self.0 / (1.0 - self.0)).ln()
    }

    /// Inverse of [`Probability::logit`]: the standard logistic function.
    ///
    /// Accepts any finite or infinite `x`; NaN input panics.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    #[must_use]
    pub fn from_logit(x: f64) -> Self {
        assert!(!x.is_nan(), "logit input must not be NaN");
        if x == f64::INFINITY {
            return Probability::ONE;
        }
        if x == f64::NEG_INFINITY {
            return Probability::ZERO;
        }
        // Numerically stable logistic.
        let p = if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        };
        Probability::clamped(p)
    }

    /// Returns `true` if the probability is exactly `0`.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns `true` if the probability is exactly `1`.
    #[must_use]
    pub fn is_one(self) -> bool {
        self.0 == 1.0
    }

    /// Absolute difference `|p − q|`, itself a probability.
    #[must_use]
    pub fn abs_diff(self, other: Self) -> Self {
        Probability((self.0 - other.0).abs())
    }

    /// Returns the larger of two probabilities.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two probabilities.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Default for Probability {
    /// The default probability is `0` (the impossible event).
    fn default() -> Self {
        Probability::ZERO
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl Mul for Probability {
    type Output = Probability;

    /// Probability of the conjunction of two independent events.
    fn mul(self, rhs: Self) -> Self {
        Probability(self.0 * rhs.0)
    }
}

impl Not for Probability {
    type Output = Probability;

    /// The complement `1 − p`.
    fn not(self) -> Self {
        self.complement()
    }
}

impl TryFrom<f64> for Probability {
    type Error = ProbError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Probability::new(value)
    }
}

impl From<Probability> for f64 {
    fn from(p: Probability) -> f64 {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn new_accepts_endpoints() {
        assert_eq!(p(0.0), Probability::ZERO);
        assert_eq!(p(1.0), Probability::ONE);
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(Probability::new(-0.001).is_err());
        assert!(Probability::new(1.001).is_err());
        assert!(Probability::new(f64::NAN).is_err());
        assert!(Probability::new(f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_clamps() {
        assert_eq!(Probability::clamped(-0.5), Probability::ZERO);
        assert_eq!(Probability::clamped(1.5), Probability::ONE);
        assert_eq!(Probability::clamped(0.25).value(), 0.25);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn clamped_panics_on_nan() {
        let _ = Probability::clamped(f64::NAN);
    }

    #[test]
    fn from_ratio_basic() {
        assert_eq!(Probability::from_ratio(1, 4).unwrap().value(), 0.25);
        assert_eq!(Probability::from_ratio(0, 4).unwrap(), Probability::ZERO);
        assert_eq!(Probability::from_ratio(4, 4).unwrap(), Probability::ONE);
        assert!(Probability::from_ratio(5, 4).is_err());
        assert!(Probability::from_ratio(0, 0).is_err());
    }

    #[test]
    fn complement_involutes() {
        let x = p(0.37);
        assert!((x.complement().complement().value() - 0.37).abs() < 1e-15);
        assert_eq!(!Probability::ZERO, Probability::ONE);
    }

    #[test]
    fn try_add_respects_bound() {
        assert_eq!(p(0.3).try_add(p(0.4)).unwrap().value(), 0.7);
        assert!(p(0.7).try_add(p(0.4)).is_err());
        // Round-off-level overshoot is clamped, not rejected.
        let a = p(0.1 + 0.2); // 0.30000000000000004
        let b = p(0.7);
        assert_eq!(a.try_add(b).unwrap(), Probability::ONE);
    }

    #[test]
    fn or_independent_matches_formula() {
        let got = p(0.07).or_independent(p(0.18));
        assert!((got.value() - (1.0 - 0.93 * 0.82)).abs() < 1e-15);
        // An impossible event is the identity of `or`.
        assert_eq!(p(0.4).or_independent(Probability::ZERO).value(), 0.4);
        // A certain event absorbs.
        assert_eq!(p(0.4).or_independent(Probability::ONE), Probability::ONE);
    }

    #[test]
    fn mix_interpolates() {
        let a = p(0.2);
        let b = p(0.8);
        assert_eq!(a.mix(b, Probability::ONE), a);
        assert_eq!(a.mix(b, Probability::ZERO), b);
        assert!((a.mix(b, Probability::HALF).value() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn logit_roundtrip() {
        for &v in &[0.001, 0.07, 0.5, 0.93, 0.999] {
            let back = Probability::from_logit(p(v).logit());
            assert!((back.value() - v).abs() < 1e-12, "{v}");
        }
        assert_eq!(Probability::from_logit(f64::INFINITY), Probability::ONE);
        assert_eq!(
            Probability::from_logit(f64::NEG_INFINITY),
            Probability::ZERO
        );
        assert_eq!(Probability::ONE.logit(), f64::INFINITY);
        assert_eq!(Probability::ZERO.logit(), f64::NEG_INFINITY);
    }

    #[test]
    fn multiplication_is_conjunction() {
        assert!(((p(0.5) * p(0.5)).value() - 0.25).abs() < 1e-15);
        assert_eq!(p(0.3) * Probability::ZERO, Probability::ZERO);
        assert_eq!((p(0.3) * Probability::ONE).value(), 0.3);
    }

    #[test]
    fn ordering_and_minmax() {
        assert!(p(0.2) < p(0.3));
        assert_eq!(p(0.2).max(p(0.3)).value(), 0.3);
        assert_eq!(p(0.2).min(p(0.3)).value(), 0.2);
        assert_eq!(p(0.2).abs_diff(p(0.5)).value(), 0.3);
    }

    #[test]
    fn serde_roundtrip_and_validation() {
        let x = p(0.42);
        let json = serde_json_like_roundtrip(x);
        assert_eq!(json, x);
    }

    // Round-trips through the public `f64` conversions, which validate on
    // the way in.
    fn serde_json_like_roundtrip(x: Probability) -> Probability {
        Probability::try_from(f64::from(x)).unwrap()
    }
}
