//! Event tallies and contingency tables.
//!
//! A trial of a human–machine system produces, for each case, a pair of
//! binary outcomes: did the machine fail (`Mf`) and did the human fail
//! (`Hf`)? [`JointCounts`] accumulates the 2×2 table of those outcomes;
//! [`StratifiedCounts`] keeps one table per class of demand (the paper's
//! stratification by case difficulty). The estimators in
//! [`crate::estimate`] consume the marginal and conditional counts these
//! tables expose.

use std::collections::BTreeMap;
use std::fmt;

use crate::estimate::BinomialEstimate;
use crate::{ProbError, Probability};

/// A 2×2 contingency table of (machine outcome) × (human outcome) counts.
///
/// The four cells count cases by whether the machine failed and whether the
/// human (and hence the system) failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JointCounts {
    /// Machine succeeded, human succeeded.
    pub ms_hs: u64,
    /// Machine succeeded, human failed.
    pub ms_hf: u64,
    /// Machine failed, human succeeded.
    pub mf_hs: u64,
    /// Machine failed, human failed.
    pub mf_hf: u64,
}

impl JointCounts {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        JointCounts::default()
    }

    /// Records one case.
    pub fn record(&mut self, machine_failed: bool, human_failed: bool) {
        match (machine_failed, human_failed) {
            (false, false) => self.ms_hs += 1,
            (false, true) => self.ms_hf += 1,
            (true, false) => self.mf_hs += 1,
            (true, true) => self.mf_hf += 1,
        }
    }

    /// Total number of recorded cases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ms_hs + self.ms_hf + self.mf_hs + self.mf_hf
    }

    /// Number of cases on which the machine failed.
    #[must_use]
    pub fn machine_failures(&self) -> u64 {
        self.mf_hs + self.mf_hf
    }

    /// Number of cases on which the human failed (= system failures in the
    /// sequential model).
    #[must_use]
    pub fn human_failures(&self) -> u64 {
        self.ms_hf + self.mf_hf
    }

    /// The estimate of `P(Mf)` for this stratum.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidCounts`] if the table is empty.
    pub fn p_machine_fails(&self) -> Result<BinomialEstimate, ProbError> {
        BinomialEstimate::new(self.machine_failures(), self.total())
    }

    /// The estimate of `P(Hf)` for this stratum.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidCounts`] if the table is empty.
    pub fn p_human_fails(&self) -> Result<BinomialEstimate, ProbError> {
        BinomialEstimate::new(self.human_failures(), self.total())
    }

    /// The estimate of `P(Hf | Ms)`: human failures among machine successes.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidCounts`] if the machine never succeeded
    /// in this stratum (the conditional is then inestimable).
    pub fn p_human_fails_given_machine_succeeds(&self) -> Result<BinomialEstimate, ProbError> {
        BinomialEstimate::new(self.ms_hf, self.ms_hs + self.ms_hf)
    }

    /// The estimate of `P(Hf | Mf)`: human failures among machine failures.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidCounts`] if the machine never failed in
    /// this stratum.
    pub fn p_human_fails_given_machine_fails(&self) -> Result<BinomialEstimate, ProbError> {
        BinomialEstimate::new(self.mf_hf, self.mf_hs + self.mf_hf)
    }

    /// The empirical coherence index `t̂ = P̂(Hf|Mf) − P̂(Hf|Ms)`
    /// (the paper's eq. 9 slope), or `None` if either conditional is
    /// inestimable.
    #[must_use]
    pub fn coherence_index(&self) -> Option<f64> {
        let given_mf = self.p_human_fails_given_machine_fails().ok()?;
        let given_ms = self.p_human_fails_given_machine_succeeds().ok()?;
        Some(given_mf.point().value() - given_ms.point().value())
    }

    /// The phi coefficient (Pearson correlation of the two binary outcomes),
    /// or `None` if any margin is zero.
    #[must_use]
    pub fn phi_coefficient(&self) -> Option<f64> {
        let a = self.mf_hf as f64;
        let b = self.mf_hs as f64;
        let c = self.ms_hf as f64;
        let d = self.ms_hs as f64;
        let denom = ((a + b) * (c + d) * (a + c) * (b + d)).sqrt();
        if denom == 0.0 {
            return None;
        }
        Some((a * d - b * c) / denom)
    }

    /// Merges another table into this one.
    pub fn merge(&mut self, other: &JointCounts) {
        self.ms_hs += other.ms_hs;
        self.ms_hf += other.ms_hf;
        self.mf_hs += other.mf_hs;
        self.mf_hf += other.mf_hf;
    }
}

impl fmt::Display for JointCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[Ms∧Hs={}, Ms∧Hf={}, Mf∧Hs={}, Mf∧Hf={}]",
            self.ms_hs, self.ms_hf, self.mf_hs, self.mf_hf
        )
    }
}

/// Per-class 2×2 tables, keyed by a class label.
///
/// # Example
///
/// ```
/// use hmdiv_prob::counts::StratifiedCounts;
///
/// let mut counts = StratifiedCounts::new();
/// counts.record("easy", false, false);
/// counts.record("easy", true, true);
/// counts.record("difficult", true, true);
/// assert_eq!(counts.stratum(&"easy").unwrap().total(), 2);
/// assert_eq!(counts.pooled().total(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StratifiedCounts<K: Ord> {
    strata: BTreeMap<K, JointCounts>,
}

impl<K: Ord> StratifiedCounts<K> {
    /// An empty set of strata.
    #[must_use]
    pub fn new() -> Self {
        StratifiedCounts {
            strata: BTreeMap::new(),
        }
    }

    /// Records one case in the given stratum.
    pub fn record(&mut self, class: K, machine_failed: bool, human_failed: bool) {
        self.strata
            .entry(class)
            .or_default()
            .record(machine_failed, human_failed);
    }

    /// The table for a stratum, if any case has been recorded there.
    #[must_use]
    pub fn stratum(&self, class: &K) -> Option<&JointCounts> {
        self.strata.get(class)
    }

    /// Iterates over `(class, table)` pairs in class order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &JointCounts)> {
        self.strata.iter()
    }

    /// Number of non-empty strata.
    #[must_use]
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Whether no case has been recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// All cases pooled into a single table (discarding stratification).
    #[must_use]
    pub fn pooled(&self) -> JointCounts {
        let mut out = JointCounts::new();
        for t in self.strata.values() {
            out.merge(t);
        }
        out
    }

    /// The empirical demand profile: each stratum's share of total cases.
    ///
    /// Returns `(class, share)` pairs in class order; empty if no cases.
    #[must_use]
    pub fn empirical_profile(&self) -> Vec<(&K, Probability)> {
        let total = self.pooled().total();
        if total == 0 {
            return Vec::new();
        }
        self.strata
            .iter()
            .map(|(k, t)| (k, Probability::clamped(t.total() as f64 / total as f64)))
            .collect()
    }

    /// Merges a whole pre-accumulated table into a stratum. Used by dense
    /// accumulators (indexed by an interned class universe) to materialise a
    /// keyed view at the end of a run.
    pub fn add_table(&mut self, class: K, table: JointCounts) {
        self.strata.entry(class).or_default().merge(&table);
    }

    /// Merges another stratified tally into this one.
    pub fn merge(&mut self, other: StratifiedCounts<K>) {
        for (k, t) in other.strata {
            self.strata.entry(k).or_default().merge(&t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(ms_hs: u64, ms_hf: u64, mf_hs: u64, mf_hf: u64) -> JointCounts {
        JointCounts {
            ms_hs,
            ms_hf,
            mf_hs,
            mf_hf,
        }
    }

    #[test]
    fn record_fills_correct_cells() {
        let mut t = JointCounts::new();
        t.record(false, false);
        t.record(false, true);
        t.record(true, false);
        t.record(true, true);
        t.record(true, true);
        assert_eq!(t, table(1, 1, 1, 2));
        assert_eq!(t.total(), 5);
        assert_eq!(t.machine_failures(), 3);
        assert_eq!(t.human_failures(), 3);
    }

    #[test]
    fn conditional_estimates() {
        // 93 Ms (of which 13 Hf), 7 Mf (of which 2 Hf).
        let t = table(80, 13, 5, 2);
        let p_mf = t.p_machine_fails().unwrap().point().value();
        assert!((p_mf - 0.07).abs() < 1e-12);
        let hf_ms = t
            .p_human_fails_given_machine_succeeds()
            .unwrap()
            .point()
            .value();
        assert!((hf_ms - 13.0 / 93.0).abs() < 1e-12);
        let hf_mf = t
            .p_human_fails_given_machine_fails()
            .unwrap()
            .point()
            .value();
        assert!((hf_mf - 2.0 / 7.0).abs() < 1e-12);
        let t_hat = t.coherence_index().unwrap();
        assert!((t_hat - (2.0 / 7.0 - 13.0 / 93.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_margins_are_errors_not_panics() {
        let no_mf = table(10, 2, 0, 0);
        assert!(no_mf.p_human_fails_given_machine_fails().is_err());
        assert!(no_mf.coherence_index().is_none());
        let no_ms = table(0, 0, 10, 2);
        assert!(no_ms.p_human_fails_given_machine_succeeds().is_err());
        let empty = JointCounts::new();
        assert!(empty.p_machine_fails().is_err());
    }

    #[test]
    fn phi_coefficient_signs() {
        // Perfect positive association.
        assert!((table(50, 0, 0, 50).phi_coefficient().unwrap() - 1.0).abs() < 1e-12);
        // Perfect negative association.
        assert!((table(0, 50, 50, 0).phi_coefficient().unwrap() + 1.0).abs() < 1e-12);
        // Independence-ish.
        let phi = table(45, 5, 45, 5).phi_coefficient().unwrap();
        assert!(phi.abs() < 1e-12);
        // Zero margin → undefined.
        assert!(table(10, 0, 10, 0).phi_coefficient().is_none());
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = table(1, 2, 3, 4);
        a.merge(&table(10, 20, 30, 40));
        assert_eq!(a, table(11, 22, 33, 44));
    }

    #[test]
    fn stratified_basic_flow() {
        let mut s = StratifiedCounts::new();
        assert!(s.is_empty());
        for _ in 0..8 {
            s.record("easy", false, false);
        }
        s.record("easy", true, true);
        s.record("difficult", true, true);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stratum(&"easy").unwrap().total(), 9);
        assert!(s.stratum(&"missing").is_none());
        let profile = s.empirical_profile();
        assert_eq!(profile.len(), 2);
        // BTreeMap order: "difficult" < "easy".
        assert_eq!(*profile[0].0, "difficult");
        assert!((profile[1].1.value() - 0.9).abs() < 1e-12);
        assert_eq!(s.pooled().total(), 10);
    }

    #[test]
    fn add_table_merges_into_stratum() {
        let mut s = StratifiedCounts::new();
        s.record("a", true, true);
        s.add_table("a", table(1, 2, 3, 4));
        s.add_table("b", table(5, 0, 0, 0));
        assert_eq!(*s.stratum(&"a").unwrap(), table(1, 2, 3, 5));
        assert_eq!(*s.stratum(&"b").unwrap(), table(5, 0, 0, 0));
        // Empty tables still create the stratum only via add_table's entry;
        // callers filter zero-total tables if they want sparse output.
        s.add_table("c", JointCounts::new());
        assert_eq!(s.stratum(&"c").unwrap().total(), 0);
    }

    #[test]
    fn stratified_merge() {
        let mut a = StratifiedCounts::new();
        a.record(1u8, true, false);
        let mut b = StratifiedCounts::new();
        b.record(1u8, true, false);
        b.record(2u8, false, true);
        a.merge(b);
        assert_eq!(a.stratum(&1).unwrap().mf_hs, 2);
        assert_eq!(a.stratum(&2).unwrap().ms_hf, 1);
    }

    #[test]
    fn empirical_profile_empty() {
        let s: StratifiedCounts<u8> = StratifiedCounts::new();
        assert!(s.empirical_profile().is_empty());
    }
}
