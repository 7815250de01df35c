//! Class aggregation and the §6.2 heterogeneity caveat.
//!
//! The paper warns that a high coherence index `t(x)` for a class may be an
//! artefact of *heterogeneity*: if the class secretly mixes "easier" cases
//! (where both machine and reader succeed) with "more difficult" ones (where
//! both fail), the merged conditionals make the reader *look* coupled to the
//! machine even if, within each subclass, the reader is completely
//! indifferent to the machine's output. "It would be better then to regard
//! t(x) as just a 'coherence index'."
//!
//! [`merge_classes`] computes the exact parameters of the merged class (the
//! ones a trial that cannot distinguish the subclasses would estimate), so
//! the artefact can be quantified: compare the merged `t` against the
//! within-subclass `t`s.

use hmdiv_prob::Probability;

use crate::{ClassId, ClassParams, DemandProfile, ModelError, ModelParams, SequentialModel};

/// The result of merging a set of classes into one.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedClass {
    /// The classes that were merged, in profile order.
    pub members: Vec<ClassId>,
    /// Total profile weight of the merged class.
    pub weight: Probability,
    /// The effective parameters a class-blind observer would measure.
    pub params: ClassParams,
}

impl MergedClass {
    /// The merged coherence index `t` — potentially inflated relative to
    /// the members' own indices (the §6.2 artefact).
    #[must_use]
    pub fn coherence_index(&self) -> f64 {
        self.params.coherence_index()
    }
}

/// Merges the named classes of a model under a profile into one effective
/// class, using exact probability calculus:
///
/// * `PMf(merged)` is the weight-average of the members' `PMf(x)`;
/// * `PHf|Ms(merged)` conditions on `Ms`, so members are re-weighted by
///   `p(x)·PMs(x)` (Bayes);
/// * `PHf|Mf(merged)` likewise with `p(x)·PMf(x)`.
///
/// # Errors
///
/// * [`ModelError::Empty`] if `members` is empty.
/// * [`ModelError::UnknownClass`] if a member is absent from the profile.
/// * [`ModelError::MissingClass`] if a member is absent from the model.
/// * [`ModelError::InvalidFactor`] if a conditional is undefined because
///   the machine never succeeds (or never fails) across the merged class.
pub fn merge_classes(
    model: &SequentialModel,
    profile: &DemandProfile,
    members: &[ClassId],
) -> Result<MergedClass, ModelError> {
    if members.is_empty() {
        return Err(ModelError::Empty {
            context: "merge member list",
        });
    }
    let mut total_w = 0.0;
    let mut mean_mf = 0.0;
    let mut joint_hf_ms = 0.0; // Σ p(x)·PMs(x)·PHf|Ms(x)
    let mut mass_ms = 0.0; // Σ p(x)·PMs(x)
    let mut joint_hf_mf = 0.0;
    let mut mass_mf = 0.0;
    for class in members {
        let w = profile.weight(class.name())?.value();
        let cp = model.params().class(class)?;
        total_w += w;
        mean_mf += w * cp.p_mf().value();
        joint_hf_ms += w * cp.p_ms().value() * cp.p_hf_given_ms().value();
        mass_ms += w * cp.p_ms().value();
        joint_hf_mf += w * cp.p_mf().value() * cp.p_hf_given_mf().value();
        mass_mf += w * cp.p_mf().value();
    }
    if total_w <= 0.0 {
        return Err(ModelError::InvalidFactor {
            value: total_w,
            context: "total weight of merged classes",
        });
    }
    if mass_ms <= 0.0 {
        return Err(ModelError::InvalidFactor {
            value: mass_ms,
            context: "P(Ms) within merged class (machine never succeeds)",
        });
    }
    if mass_mf <= 0.0 {
        return Err(ModelError::InvalidFactor {
            value: mass_mf,
            context: "P(Mf) within merged class (machine never fails)",
        });
    }
    let params = ClassParams::new(
        Probability::clamped(mean_mf / total_w),
        Probability::clamped(joint_hf_ms / mass_ms),
        Probability::clamped(joint_hf_mf / mass_mf),
    );
    Ok(MergedClass {
        members: members.to_vec(),
        weight: Probability::clamped(total_w),
        params,
    })
}

/// Replaces the named classes of a model/profile pair by their merge,
/// returning the coarser `(model, profile)` a class-blind experimenter
/// would work with.
///
/// The merged class is named by joining the member names with `+`.
///
/// # Errors
///
/// As [`merge_classes`], plus builder errors for degenerate results.
pub fn coarsen(
    model: &SequentialModel,
    profile: &DemandProfile,
    members: &[ClassId],
) -> Result<(SequentialModel, DemandProfile), ModelError> {
    let merged = merge_classes(model, profile, members)?;
    let merged_name: String = members
        .iter()
        .map(ClassId::name)
        .collect::<Vec<_>>()
        .join("+");
    let mut params = ModelParams::builder().class(merged_name.as_str(), merged.params);
    let mut prof = DemandProfile::builder().class(merged_name.as_str(), merged.weight.value());
    for (class, weight) in profile.iter() {
        if members.contains(class) {
            continue;
        }
        params = params.class(class.clone(), *model.params().class(class)?);
        prof = prof.class(class.clone(), weight.value());
    }
    Ok((SequentialModel::new(params.build()?), prof.build()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    /// Two subclasses where the reader is COMPLETELY indifferent to the
    /// machine (t = 0 in each), but difficulty is shared: in the hard
    /// subclass both fail a lot, in the easy one both rarely.
    fn indifferent_but_heterogeneous() -> (SequentialModel, DemandProfile) {
        let model = SequentialModel::new(
            ModelParams::builder()
                .class("sub-easy", ClassParams::new(p(0.05), p(0.1), p(0.1)))
                .class("sub-hard", ClassParams::new(p(0.6), p(0.8), p(0.8)))
                .build()
                .unwrap(),
        );
        let profile = DemandProfile::builder()
            .class("sub-easy", 0.7)
            .class("sub-hard", 0.3)
            .build()
            .unwrap();
        (model, profile)
    }

    #[test]
    fn heterogeneity_inflates_t() {
        // The paper's §6.2 caveat, exactly: within each subclass t = 0, yet
        // the merged class shows t > 0 purely because machine failures are
        // concentrated in the subclass where the reader also fails.
        let (model, profile) = indifferent_but_heterogeneous();
        let merged = merge_classes(
            &model,
            &profile,
            &[ClassId::new("sub-easy"), ClassId::new("sub-hard")],
        )
        .unwrap();
        assert!(
            merged.coherence_index() > 0.3,
            "{}",
            merged.coherence_index()
        );
        // PMf(merged) is the plain weighted mean.
        assert!((merged.params.p_mf().value() - (0.7 * 0.05 + 0.3 * 0.6)).abs() < 1e-12);
    }

    #[test]
    fn merging_preserves_system_failure() {
        // Coarsening must not change the overall failure probability — the
        // merged parameters are exactly what makes eq. (8) invariant.
        let (model, profile) = indifferent_but_heterogeneous();
        let before = model.system_failure(&profile).unwrap();
        let (coarse_model, coarse_profile) = coarsen(
            &model,
            &profile,
            &[ClassId::new("sub-easy"), ClassId::new("sub-hard")],
        )
        .unwrap();
        let after = coarse_model.system_failure(&coarse_profile).unwrap();
        assert!((before.value() - after.value()).abs() < 1e-12);
        assert_eq!(coarse_profile.len(), 1);
    }

    #[test]
    fn merging_homogeneous_classes_is_lossless() {
        // Two classes with identical parameters merge to those parameters.
        let cp = ClassParams::new(p(0.2), p(0.3), p(0.7));
        let model = SequentialModel::new(
            ModelParams::builder()
                .class("a", cp)
                .class("b", cp)
                .build()
                .unwrap(),
        );
        let profile = DemandProfile::builder()
            .class("a", 0.4)
            .class("b", 0.6)
            .build()
            .unwrap();
        let merged =
            merge_classes(&model, &profile, &[ClassId::new("a"), ClassId::new("b")]).unwrap();
        assert!((merged.params.p_mf().value() - cp.p_mf().value()).abs() < 1e-12);
        assert!((merged.params.p_hf_given_ms().value() - cp.p_hf_given_ms().value()).abs() < 1e-12);
        assert!((merged.params.p_hf_given_mf().value() - cp.p_hf_given_mf().value()).abs() < 1e-12);
        assert!((merged.weight.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_extrapolation_is_biased_under_profile_change() {
        // The punchline: the coarse model reproduces the *measured* profile
        // but extrapolates WRONGLY to a new profile, because the merged
        // parameters silently encode the old subclass mix. The fine model
        // extrapolates correctly.
        let (model, profile) = indifferent_but_heterogeneous();
        let members = [ClassId::new("sub-easy"), ClassId::new("sub-hard")];
        let (coarse_model, _) = coarsen(&model, &profile, &members).unwrap();
        // New environment: hard subclass doubles in frequency.
        let new_profile = DemandProfile::builder()
            .class("sub-easy", 0.4)
            .class("sub-hard", 0.6)
            .build()
            .unwrap();
        let truth = model.system_failure(&new_profile).unwrap().value();
        // The coarse observer cannot see the mix change; their class keeps
        // its old parameters and weight 1.
        let coarse_profile_new = DemandProfile::builder()
            .class("sub-easy+sub-hard", 1.0)
            .build()
            .unwrap();
        let coarse_prediction = coarse_model
            .system_failure(&coarse_profile_new)
            .unwrap()
            .value();
        assert!(
            (coarse_prediction - truth).abs() > 0.05,
            "coarse {coarse_prediction} vs truth {truth} should diverge"
        );
    }

    #[test]
    fn partial_merge_keeps_other_classes() {
        let model = SequentialModel::new(
            ModelParams::builder()
                .class("a", ClassParams::new(p(0.1), p(0.2), p(0.3)))
                .class("b", ClassParams::new(p(0.2), p(0.3), p(0.4)))
                .class("c", ClassParams::new(p(0.3), p(0.4), p(0.5)))
                .build()
                .unwrap(),
        );
        let profile = DemandProfile::builder()
            .class("a", 0.5)
            .class("b", 0.3)
            .class("c", 0.2)
            .build()
            .unwrap();
        let (coarse_model, coarse_profile) =
            coarsen(&model, &profile, &[ClassId::new("a"), ClassId::new("b")]).unwrap();
        assert_eq!(coarse_profile.len(), 2);
        assert!(coarse_profile.weight("a+b").is_ok());
        assert!(coarse_profile.weight("c").is_ok());
        let before = model.system_failure(&profile).unwrap();
        let after = coarse_model.system_failure(&coarse_profile).unwrap();
        assert!((before.value() - after.value()).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        let (model, profile) = indifferent_but_heterogeneous();
        assert!(matches!(
            merge_classes(&model, &profile, &[]),
            Err(ModelError::Empty { .. })
        ));
        assert!(matches!(
            merge_classes(&model, &profile, &[ClassId::new("ghost")]),
            Err(ModelError::UnknownClass { .. })
        ));
        // Machine never fails in the merged class → PHf|Mf undefined.
        let degenerate = SequentialModel::new(
            ModelParams::builder()
                .class("z", ClassParams::new(Probability::ZERO, p(0.3), p(0.9)))
                .build()
                .unwrap(),
        );
        let prof = DemandProfile::builder().class("z", 1.0).build().unwrap();
        assert!(matches!(
            merge_classes(&degenerate, &prof, &[ClassId::new("z")]),
            Err(ModelError::InvalidFactor { .. })
        ));
    }
}
