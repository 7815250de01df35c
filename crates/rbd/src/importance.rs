//! Component importance measures.
//!
//! Birnbaum \[1\] defined the importance of a component as the probability
//! that it is *critical*: `I_B(i) = R(system | i works) − R(system | i
//! fails)`. The paper's coherence index `t(x) = P(Hf|Mf) − P(Hf|Ms)` is
//! exactly this quantity for the CADT within the human–machine system, which
//! is why §6.1 calls it "an importance index (of the CADT for the whole
//! system)". This module provides Birnbaum importance and the standard
//! derived measures for arbitrary diagrams, so the paper's special case can
//! be checked against the general theory.

use hmdiv_prob::Probability;

use crate::compiled::CompiledBlock;
use crate::{Block, RbdError};

/// The suite of importance measures for one component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImportanceMeasures {
    /// Birnbaum importance `R(i works) − R(i fails)` ∈ `[0, 1]` for coherent
    /// systems.
    pub birnbaum: f64,
    /// Improvement potential `R(i perfect) − R(current)`: the reliability
    /// gain from making the component perfect.
    pub improvement_potential: f64,
    /// Criticality importance: Birnbaum weighted by the component's own
    /// unreliability relative to the system's, `I_B·q_i / F_sys`.
    /// `None` when the system failure probability is zero.
    pub criticality: Option<f64>,
    /// Risk achievement worth `F(i failed) / F(current)`: how much worse the
    /// system gets if the component is lost. `None` when `F(current)` is 0.
    pub risk_achievement_worth: Option<f64>,
    /// Risk reduction worth `F(current) / F(i perfect)`: how much better the
    /// system gets if the component is perfected. `None` (interpreted as
    /// unbounded) when `F(i perfect)` is 0.
    pub risk_reduction_worth: Option<f64>,
}

/// Computes [`ImportanceMeasures`] for `component` in `block`.
///
/// `failure_of` supplies the per-component failure probabilities (for one
/// class of demands, per the paper's methodology).
///
/// # Errors
///
/// As [`system_failure`](crate::reliability::system_failure); additionally [`RbdError::UnknownComponent`] if
/// `component` does not occur in the diagram.
///
/// # Example
///
/// The detection stage of the paper's Fig. 2: with the human missing 20% of
/// features, the machine's Birnbaum importance in the 1-of-2 detection stage
/// equals the probability the human misses (the machine matters exactly when
/// the human fails).
///
/// ```
/// use hmdiv_rbd::{Block, importance::importance};
/// use hmdiv_prob::Probability;
///
/// # fn main() -> Result<(), hmdiv_rbd::RbdError> {
/// let detect = Block::parallel(vec![Block::component("H"), Block::component("M")]);
/// let measures = importance(&detect, "M", |n| {
///     Ok(Probability::new(if n == "H" { 0.2 } else { 0.07 })
///         .expect("valid probability"))
/// })?;
/// assert!((measures.birnbaum - 0.2).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn importance<F>(
    block: &Block,
    component: &str,
    failure_of: F,
) -> Result<ImportanceMeasures, RbdError>
where
    F: FnMut(&str) -> Result<Probability, RbdError>,
{
    let compiled = CompiledBlock::compile(block)?;
    let Some(idx) = compiled.index_of(component) else {
        return Err(RbdError::UnknownComponent {
            name: component.to_owned(),
        });
    };
    let q = compiled.failure_probabilities(failure_of)?;
    measures_for(&compiled, &q, idx)
}

/// Computes the importance suite for one interned component from a compiled
/// diagram and a hoisted probability vector (three exact evaluations with
/// the component's failure probability as given, forced to 0, forced to 1).
fn measures_for(
    compiled: &CompiledBlock,
    q: &[Probability],
    idx: u32,
) -> Result<ImportanceMeasures, RbdError> {
    let q_i = q[idx as usize];
    let f_current = compiled.failure(q)?.value();
    let mut forced = q.to_vec();
    forced[idx as usize] = Probability::ZERO;
    let f_when_works = compiled.failure(&forced)?.value();
    forced[idx as usize] = Probability::ONE;
    let f_when_fails = compiled.failure(&forced)?.value();
    let birnbaum = f_when_fails - f_when_works; // = R(works) − R(fails)
    let improvement_potential = f_current - f_when_works;
    let criticality =
        (f_current > 0.0).then(|| (birnbaum * q_i.value() / f_current).clamp(0.0, 1.0));
    let risk_achievement_worth = (f_current > 0.0).then(|| f_when_fails / f_current);
    let risk_reduction_worth = (f_when_works > 0.0).then(|| f_current / f_when_works);
    Ok(ImportanceMeasures {
        birnbaum,
        improvement_potential,
        criticality,
        risk_achievement_worth,
        risk_reduction_worth,
    })
}

/// Ranks all components of the diagram by Birnbaum importance, descending.
///
/// Returns `(name, measures)` pairs. Ties keep lexicographic name order.
///
/// # Errors
///
/// As [`importance`].
pub fn rank_by_birnbaum<F>(
    block: &Block,
    failure_of: F,
) -> Result<Vec<(String, ImportanceMeasures)>, RbdError>
where
    F: FnMut(&str) -> Result<Probability, RbdError>,
{
    // One compilation and one probability hoist serve every component.
    let compiled = CompiledBlock::compile(block)?;
    let q = compiled.failure_probabilities(failure_of)?;
    let mut out = Vec::with_capacity(compiled.component_count());
    for (idx, name) in compiled.component_names().iter().enumerate() {
        let m = measures_for(&compiled, &q, idx as u32)?;
        out.push((name.clone(), m));
    }
    out.sort_by(|(na, a), (nb, b)| b.birnbaum.total_cmp(&a.birnbaum).then_with(|| na.cmp(nb)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn table<'a>(
        pairs: &'a [(&'a str, f64)],
    ) -> impl FnMut(&str) -> Result<Probability, RbdError> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| p(*v))
                .ok_or_else(|| RbdError::UnknownComponent { name: name.into() })
        }
    }

    #[test]
    fn series_birnbaum_is_product_of_other_reliabilities() {
        // For a series system, I_B(i) = Π_{j≠i} r_j.
        let sys = Block::series(vec![Block::component("a"), Block::component("b")]);
        let m = importance(&sys, "a", table(&[("a", 0.1), ("b", 0.2)])).unwrap();
        assert!((m.birnbaum - 0.8).abs() < 1e-12);
    }

    #[test]
    fn parallel_birnbaum_is_product_of_other_unreliabilities() {
        // For a parallel system, I_B(i) = Π_{j≠i} q_j.
        let sys = Block::parallel(vec![Block::component("a"), Block::component("b")]);
        let m = importance(&sys, "a", table(&[("a", 0.1), ("b", 0.2)])).unwrap();
        assert!((m.birnbaum - 0.2).abs() < 1e-12);
    }

    #[test]
    fn improvement_potential_equals_birnbaum_times_q() {
        // IP(i) = I_B(i)·q_i for coherent systems with independent comps.
        let sys = Block::series(vec![
            Block::parallel(vec![Block::component("Hd"), Block::component("Md")]),
            Block::component("Hc"),
        ]);
        let probs = [("Hd", 0.2), ("Md", 0.07), ("Hc", 0.1)];
        for name in ["Hd", "Md", "Hc"] {
            let m = importance(&sys, name, table(&probs)).unwrap();
            let q = probs.iter().find(|(n, _)| *n == name).unwrap().1;
            assert!(
                (m.improvement_potential - m.birnbaum * q).abs() < 1e-12,
                "{name}: {m:?}"
            );
        }
    }

    #[test]
    fn classification_dominates_fig2() {
        // In Fig. 2, Hclassify is a series single point of failure; its
        // Birnbaum importance must exceed either detection component's.
        let sys = Block::series(vec![
            Block::parallel(vec![Block::component("Hd"), Block::component("Md")]),
            Block::component("Hc"),
        ]);
        let probs = [("Hd", 0.2), ("Md", 0.07), ("Hc", 0.1)];
        let ranked = rank_by_birnbaum(&sys, table(&probs)).unwrap();
        assert_eq!(ranked[0].0, "Hc", "{ranked:?}");
    }

    #[test]
    fn raw_and_rrw_sane() {
        let sys = Block::parallel(vec![Block::component("a"), Block::component("b")]);
        let m = importance(&sys, "a", table(&[("a", 0.1), ("b", 0.2)])).unwrap();
        // F = 0.02; F(a failed) = 0.2 → RAW = 10; F(a perfect) = 0 → RRW unbounded.
        assert!((m.risk_achievement_worth.unwrap() - 10.0).abs() < 1e-9);
        assert!(m.risk_reduction_worth.is_none());
        assert!((m.criticality.unwrap() - 0.2 * 0.1 / 0.02).abs() < 1e-9);
    }

    #[test]
    fn perfect_system_has_none_ratios() {
        let sys = Block::component("a");
        let m = importance(&sys, "a", table(&[("a", 0.0)])).unwrap();
        assert!(m.criticality.is_none());
        assert!(m.risk_achievement_worth.is_none());
        assert!((m.birnbaum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_component_rejected() {
        let sys = Block::component("a");
        assert!(matches!(
            importance(&sys, "zz", table(&[("a", 0.5)])),
            Err(RbdError::UnknownComponent { .. })
        ));
    }

    #[test]
    fn irrelevant_component_has_zero_birnbaum() {
        // ((a | b) -> a): b is irrelevant (see structure tests).
        let sys = Block::series(vec![
            Block::parallel(vec![Block::component("a"), Block::component("b")]),
            Block::component("a"),
        ]);
        let m = importance(&sys, "b", table(&[("a", 0.3), ("b", 0.4)])).unwrap();
        assert!(m.birnbaum.abs() < 1e-12);
        assert!(m.improvement_potential.abs() < 1e-12);
    }

    #[test]
    fn ranking_is_descending() {
        let sys = Block::series(vec![
            Block::component("x"),
            Block::parallel(vec![Block::component("y"), Block::component("z")]),
        ]);
        let ranked = rank_by_birnbaum(&sys, table(&[("x", 0.01), ("y", 0.5), ("z", 0.5)])).unwrap();
        for w in ranked.windows(2) {
            assert!(w[0].1.birnbaum >= w[1].1.birnbaum);
        }
    }
}
