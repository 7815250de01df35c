//! Differential comparison: certified dominance verdicts between two
//! compiled sequential models.
//!
//! The single-artifact passes bound one model in isolation; this pass is
//! *relational*. [`compare`] interprets the **difference program** of two
//! models over a shared class universe — per-class gaps
//! `Δ(x) = PHf_cand(x) − PHf_base(x)` paired slot by slot — and lifts
//! them to a verdict:
//!
//! * every class gap ≤ 0 with at least one < 0 → the candidate
//!   **dominates**: eq. (8) is a nonnegative-weighted sum of per-class
//!   failures, and round-to-nearest addition and multiplication are
//!   monotone, so `PHf_cand ≤ PHf_base` under *every* demand profile —
//!   in float arithmetic, not just in the reals;
//! * every class gap ≥ 0 with at least one > 0 → the candidate is
//!   **dominated**, symmetrically;
//! * gaps of both signs → no uniform certificate. If demand profiles are
//!   supplied, the pass still certifies the profile-wise verdict from
//!   paired evaluations of the supplied profiles only.
//!
//! Per-class gaps are *exact*: both class-failure slots are the stored
//! semantics of their models, so their difference is a point interval,
//! not an enclosure. Verdicts therefore need no tolerance knob.
//!
//! Comparing models over different interned universes is refused with
//! [`codes::COMPARE_UNIVERSE_MISMATCH`]: with no slot pairing there is
//! no difference program to interpret.

use hmdiv_core::{CompiledModel, CompiledProfile};

use crate::diag::{codes, Report};
use crate::interp::Interval;
use crate::params;

/// The pass name used in diagnostics from this module.
const PASS: &str = "diff";

/// A certified relation between a candidate and a baseline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// The candidate's system failure is provably ≤ the baseline's on
    /// every criterion checked, strictly on at least one.
    Dominates,
    /// The baseline provably beats the candidate, symmetrically.
    Dominated,
    /// Neither direction is certified.
    Incomparable,
}

impl Dominance {
    /// The lowercase label used in messages and wire renders.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Dominance::Dominates => "dominates",
            Dominance::Dominated => "dominated",
            Dominance::Incomparable => "incomparable",
        }
    }
}

/// The paired per-class failure gap for one interned class slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassGap {
    /// The class name.
    pub class: String,
    /// Whether the two models carry bit-identical parameters for this
    /// slot (the gap is then exactly zero by construction).
    pub shared: bool,
    /// `PHf_cand(x) − PHf_base(x)`, exact (a point interval).
    pub gap: Interval,
}

/// The outcome of differentially comparing two compiled models.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The overall certified verdict for the candidate vs the baseline.
    pub verdict: Dominance,
    /// The profile-independent certificate, when one exists: a verdict
    /// here holds under **every** demand profile over the shared
    /// universe, not just the supplied ones.
    pub uniform: Option<Dominance>,
    /// Per-class paired gaps in interned order; empty if the comparison
    /// was refused.
    pub class_gaps: Vec<ClassGap>,
    /// Exact system-failure gap per supplied profile, in input order;
    /// empty if the comparison was refused.
    pub profile_gaps: Vec<Interval>,
    /// Everything the parameter passes and the comparator found.
    pub report: Report,
}

/// Differentially compares `candidate` against `baseline`, optionally
/// under specific demand `profiles`, and returns a certified verdict
/// with sound gap bounds.
///
/// Both models must intern the **same** class universe (content-hash
/// equal); otherwise the comparison is refused with
/// [`codes::COMPARE_UNIVERSE_MISMATCH`]. Each supplied profile must bind
/// the shared universe. Any error-severity finding on either model or
/// any profile refuses the comparison (verdict
/// [`Dominance::Incomparable`], no gaps).
#[must_use]
pub fn compare(
    baseline: &CompiledModel,
    candidate: &CompiledModel,
    profiles: &[CompiledProfile],
) -> Comparison {
    let _span = hmdiv_obs::span("analyze.diff");
    let mut report = Report::new();
    report.merge_prefixed(params::check_model(baseline), "baseline: ");
    report.merge_prefixed(params::check_model(candidate), "candidate: ");
    if baseline.universe().content_hash() != candidate.universe().content_hash() {
        report.emit(
            &codes::COMPARE_UNIVERSE_MISMATCH,
            PASS,
            format!(
                "baseline interns {} classes (hash {:016x}), candidate {} (hash {:016x}); no slot pairing exists",
                baseline.universe().len(),
                baseline.universe().content_hash(),
                candidate.universe().len(),
                candidate.universe().content_hash()
            ),
        );
    }
    if !report.has_errors() {
        for (k, profile) in profiles.iter().enumerate() {
            report.merge_prefixed(
                params::check_profile(baseline.universe(), profile),
                &format!("profile {k}: "),
            );
        }
    }
    if report.has_errors() {
        return Comparison {
            verdict: Dominance::Incomparable,
            uniform: None,
            class_gaps: Vec::new(),
            profile_gaps: Vec::new(),
            report,
        };
    }

    let n = baseline.len();
    let cf_base = baseline.class_failure_slice();
    let cf_cand = candidate.class_failure_slice();
    let mut class_gaps = Vec::with_capacity(n);
    let (mut any_better, mut any_worse) = (false, false);
    for i in 0..n {
        let shared = slot_is_shared(baseline, candidate, i);
        let gap = if shared {
            Interval::point(0.0)
        } else {
            Interval::point(cf_cand[i] - cf_base[i])
        };
        any_better |= gap.hi < 0.0;
        any_worse |= gap.lo > 0.0;
        class_gaps.push(ClassGap {
            class: baseline.universe().class(i as u32).name().to_owned(),
            shared,
            gap,
        });
    }
    // A one-sided gap vector certifies the verdict for every profile:
    // eq. (8) is a nonnegative-weighted sum evaluated with monotone
    // round-to-nearest adds and multiplies.
    let uniform = match (any_better, any_worse) {
        (true, false) => Some(Dominance::Dominates),
        (false, true) => Some(Dominance::Dominated),
        _ => None,
    };

    let profile_gaps: Vec<Interval> = profiles
        .iter()
        .map(|p| {
            Interval::point(
                candidate.system_failure(p).value() - baseline.system_failure(p).value(),
            )
        })
        .collect();

    let verdict = uniform.unwrap_or_else(|| {
        let (mut le, mut lt, mut ge, mut gt) = (true, false, true, false);
        for g in &profile_gaps {
            le &= g.hi <= 0.0;
            lt |= g.hi < 0.0;
            ge &= g.lo >= 0.0;
            gt |= g.lo > 0.0;
        }
        if le && lt {
            Dominance::Dominates
        } else if ge && gt {
            Dominance::Dominated
        } else {
            Dominance::Incomparable
        }
    });

    let shared_count = class_gaps.iter().filter(|g| g.shared).count();
    match verdict {
        Dominance::Incomparable => {
            let worst = class_gaps
                .iter()
                .map(|g| g.gap.hi)
                .fold(f64::NEG_INFINITY, f64::max);
            let best = class_gaps
                .iter()
                .map(|g| g.gap.lo)
                .fold(f64::INFINITY, f64::min);
            report.emit(
                &codes::GAP_INDETERMINATE,
                PASS,
                format!(
                    "class gaps span [{best:.9}, {worst:.9}] across {n} classes ({shared_count} shared); neither design dominates"
                ),
            );
        }
        _ => {
            let scope = if uniform.is_some() {
                "every demand profile over the shared universe".to_owned()
            } else {
                format!("all {} supplied demand profiles", profiles.len())
            };
            report.emit(
                &codes::DOMINANCE_VERDICT,
                PASS,
                format!(
                    "candidate {} baseline for {scope} ({n} classes, {shared_count} shared)",
                    verdict.label()
                ),
            );
        }
    }

    Comparison {
        verdict,
        uniform,
        class_gaps,
        profile_gaps,
        report,
    }
}

/// Whether slot `i` carries bit-identical parameters in both models.
/// Bit comparison (not float equality) is deliberate: shared means *the
/// same slot*, and distinguishes e.g. `0.0` from `-0.0`.
fn slot_is_shared(a: &CompiledModel, b: &CompiledModel, i: usize) -> bool {
    a.p_mf_slice()[i].to_bits() == b.p_mf_slice()[i].to_bits()
        && a.p_hf_given_ms_slice()[i].to_bits() == b.p_hf_given_ms_slice()[i].to_bits()
        && a.p_hf_given_mf_slice()[i].to_bits() == b.p_hf_given_mf_slice()[i].to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_core::paper;

    #[test]
    fn improved_model_dominates_the_baseline_uniformly() {
        let base = paper::example_model().unwrap();
        let better = paper::model_improved_on_difficult().unwrap();
        let cmp = compare(base.compiled(), better.compiled(), &[]);
        assert_eq!(cmp.verdict, Dominance::Dominates);
        assert_eq!(cmp.uniform, Some(Dominance::Dominates));
        assert!(!cmp.report.has_errors());
        // The easy slot is untouched (shared), the difficult slot improves.
        let easy = cmp.class_gaps.iter().find(|g| g.class == "easy").unwrap();
        let difficult = cmp
            .class_gaps
            .iter()
            .find(|g| g.class == "difficult")
            .unwrap();
        assert!(easy.shared && easy.gap == Interval::point(0.0));
        assert!(!difficult.shared && difficult.gap.hi < 0.0);
        let codes: Vec<&str> = cmp.report.diagnostics().iter().map(|d| d.code).collect();
        assert!(codes.contains(&"HM038"), "{codes:?}");
    }

    #[test]
    fn swapping_sides_flips_the_verdict() {
        let base = paper::example_model().unwrap();
        let better = paper::model_improved_on_difficult().unwrap();
        let cmp = compare(better.compiled(), base.compiled(), &[]);
        assert_eq!(cmp.verdict, Dominance::Dominated);
        assert_eq!(cmp.uniform, Some(Dominance::Dominated));
    }

    #[test]
    fn identical_models_are_incomparable_with_zero_gaps() {
        let base = paper::example_model().unwrap();
        let cmp = compare(base.compiled(), base.compiled(), &[]);
        assert_eq!(cmp.verdict, Dominance::Incomparable);
        assert_eq!(cmp.uniform, None);
        assert!(cmp.class_gaps.iter().all(|g| g.shared));
        let codes: Vec<&str> = cmp.report.diagnostics().iter().map(|d| d.code).collect();
        assert!(codes.contains(&"HM039"), "{codes:?}");
    }

    #[test]
    fn mixed_gaps_fall_back_to_supplied_profiles() {
        use hmdiv_core::{ClassParams, ModelParams, SequentialModel};
        use hmdiv_prob::Probability;
        let p = |v: f64| Probability::new(v).unwrap();
        // Candidate better on easy, worse on difficult: no uniform
        // certificate, but under an easy-heavy profile it wins.
        let base = paper::example_model().unwrap();
        let cand = SequentialModel::new(
            ModelParams::builder()
                .class("easy", ClassParams::new(p(0.007), p(0.14), p(0.18)))
                .class("difficult", ClassParams::new(p(0.8), p(0.40), p(0.90)))
                .build()
                .unwrap(),
        );
        let no_profiles = compare(base.compiled(), cand.compiled(), &[]);
        assert_eq!(no_profiles.verdict, Dominance::Incomparable);
        assert_eq!(no_profiles.uniform, None);

        let easy_heavy = hmdiv_core::DemandProfile::builder()
            .class("easy", 0.99)
            .class("difficult", 0.01)
            .build()
            .unwrap();
        let bound = base.compiled().bind_profile(&easy_heavy).unwrap();
        let cmp = compare(
            base.compiled(),
            cand.compiled(),
            std::slice::from_ref(&bound),
        );
        assert_eq!(cmp.verdict, Dominance::Dominates);
        assert_eq!(cmp.uniform, None, "certificate must stay profile-scoped");
        assert_eq!(cmp.profile_gaps.len(), 1);
        assert!(cmp.profile_gaps[0].hi < 0.0);
        // The gap is the exact paired difference.
        let want = cand.compiled().system_failure(&bound).value()
            - base.compiled().system_failure(&bound).value();
        assert_eq!(cmp.profile_gaps[0], Interval::point(want));
    }

    #[test]
    fn universe_mismatch_is_refused_with_hm037() {
        use hmdiv_core::{ClassParams, ModelParams, SequentialModel};
        use hmdiv_prob::Probability;
        let p = |v: f64| Probability::new(v).unwrap();
        let base = paper::example_model().unwrap();
        let alien = SequentialModel::new(
            ModelParams::builder()
                .class("weird", ClassParams::new(p(0.1), p(0.2), p(0.3)))
                .build()
                .unwrap(),
        );
        let cmp = compare(base.compiled(), alien.compiled(), &[]);
        assert_eq!(cmp.verdict, Dominance::Incomparable);
        assert!(cmp.class_gaps.is_empty() && cmp.profile_gaps.is_empty());
        assert_eq!(cmp.report.first_error().unwrap().code, "HM037");
    }

    #[test]
    fn profile_over_wrong_universe_is_refused() {
        use hmdiv_core::{ClassParams, ModelParams, SequentialModel};
        use hmdiv_prob::Probability;
        let p = |v: f64| Probability::new(v).unwrap();
        let base = paper::example_model().unwrap();
        let alien = SequentialModel::new(
            ModelParams::builder()
                .class("weird", ClassParams::new(p(0.1), p(0.2), p(0.3)))
                .build()
                .unwrap(),
        );
        let alien_profile = hmdiv_core::DemandProfile::builder()
            .class("weird", 1.0)
            .build()
            .unwrap();
        let bound = alien.compiled().bind_profile(&alien_profile).unwrap();
        let cmp = compare(
            base.compiled(),
            paper::model_improved_on_easy().unwrap().compiled(),
            &[bound],
        );
        assert_eq!(cmp.verdict, Dominance::Incomparable);
        assert!(cmp.report.has_errors());
    }
}
