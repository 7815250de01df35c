//! Multi-reader configurations (§7): double reading, two readers + CADT,
//! arbitration, and lower-qualified readers assisted by a CADT.
//!
//! UK screening practice uses a second reader; the paper's conclusions name
//! "two readers assisted by a CADT, or less qualified readers assisted by
//! CADTs" as the configurations to model next. Here readers fail
//! *conditionally independently given the class and the machine outcome* —
//! the same conditioning discipline as the single-reader sequential model,
//! so shared case difficulty still correlates their failures at the
//! aggregate level.
//!
//! Failure semantics are false negatives: a reader "fails" when they decide
//! not to recall a cancer case.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use hmdiv_prob::Probability;

use crate::compiled::CompiledProfile;
use crate::{ClassId, ClassUniverse, DemandProfile, ModelError};

/// A reader's skill: per class, the failure probabilities conditional on
/// machine success and failure.
///
/// For *unaided* configurations, conditionals are irrelevant and equal: use
/// [`ReaderSkill::unaided_from`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReaderSkill {
    table: BTreeMap<ClassId, (Probability, Probability)>,
}

impl ReaderSkill {
    /// Starts building a reader skill table.
    #[must_use]
    pub fn builder() -> ReaderSkillBuilder {
        ReaderSkillBuilder::default()
    }

    /// A reader unaffected by the machine: both conditionals equal the given
    /// per-class unaided failure probability.
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] if no classes are given.
    pub fn unaided_from(
        classes: impl IntoIterator<Item = (ClassId, Probability)>,
    ) -> Result<Self, ModelError> {
        let table: BTreeMap<ClassId, (Probability, Probability)> =
            classes.into_iter().map(|(c, p)| (c, (p, p))).collect();
        if table.is_empty() {
            return Err(ModelError::Empty {
                context: "reader skill table",
            });
        }
        Ok(ReaderSkill { table })
    }

    /// `(PHf|Ms, PHf|Mf)` for a class.
    ///
    /// # Errors
    ///
    /// [`ModelError::MissingClass`] if the class is absent.
    pub fn conditionals(&self, class: &ClassId) -> Result<(Probability, Probability), ModelError> {
        self.table
            .get(class)
            .copied()
            .ok_or_else(|| ModelError::MissingClass {
                class: class.clone(),
            })
    }
}

/// Builder for [`ReaderSkill`].
#[derive(Debug, Clone, Default)]
pub struct ReaderSkillBuilder {
    table: BTreeMap<ClassId, (Probability, Probability)>,
}

impl ReaderSkillBuilder {
    /// Adds a class with `(PHf|Ms, PHf|Mf)`.
    #[must_use]
    pub fn class(
        mut self,
        class: impl Into<ClassId>,
        p_hf_given_ms: Probability,
        p_hf_given_mf: Probability,
    ) -> Self {
        self.table
            .insert(class.into(), (p_hf_given_ms, p_hf_given_mf));
        self
    }

    /// Builds the skill table.
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] if no classes were added.
    pub fn build(self) -> Result<ReaderSkill, ModelError> {
        if self.table.is_empty() {
            return Err(ModelError::Empty {
                context: "reader skill table",
            });
        }
        Ok(ReaderSkill { table: self.table })
    }
}

/// How multiple readers' decisions combine into the system decision.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CombinationRule {
    /// Only the first reader decides.
    Single,
    /// Recall if *any* reader recalls (UK double-reading "unilateral
    /// recall"): the system misses a cancer only if every reader misses it.
    EitherRecalls,
    /// Recall only if *all* readers recall (consensus): any single miss
    /// loses the cancer. Lowers false positives at the cost of false
    /// negatives.
    Consensus,
    /// Two readers; on disagreement a third arbiter decides. Standard UK
    /// practice variant ("arbitration"/"consensus review").
    Arbitrated {
        /// The arbiter's skill.
        arbiter: ReaderSkill,
    },
}

impl fmt::Display for CombinationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombinationRule::Single => write!(f, "single"),
            CombinationRule::EitherRecalls => write!(f, "either-recalls"),
            CombinationRule::Consensus => write!(f, "consensus"),
            CombinationRule::Arbitrated { .. } => write!(f, "arbitrated"),
        }
    }
}

/// A reading team: machine + one or more readers + a combination rule.
///
/// To model an *unaided* team, set every class's machine failure to
/// [`Probability::ONE`] and give readers equal conditionals (the "machine
/// failed" branch is then the readers' unaided behaviour).
///
/// # Example
///
/// ```
/// use hmdiv_core::multi_reader::{ReaderSkill, CombinationRule, TeamModel};
/// use hmdiv_core::{ClassId, DemandProfile};
/// use hmdiv_prob::Probability;
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let p = |v| Probability::new(v).unwrap();
/// let reader = ReaderSkill::builder()
///     .class("easy", p(0.14), p(0.18))
///     .class("difficult", p(0.4), p(0.9))
///     .build()?;
/// let team = TeamModel::builder()
///     .machine("easy", p(0.07))
///     .machine("difficult", p(0.41))
///     .reader(reader.clone())
///     .reader(reader)
///     .rule(CombinationRule::EitherRecalls)
///     .build()?;
/// let profile = DemandProfile::builder()
///     .class("easy", 0.9).class("difficult", 0.1).build()?;
/// // Two CADT-assisted readers beat one (0.189) by a wide margin.
/// assert!(team.system_failure(&profile)?.value() < 0.189);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TeamModel {
    machine: BTreeMap<ClassId, Probability>,
    readers: Vec<ReaderSkill>,
    rule: CombinationRule,
    /// Lazily interned machine-class universe; derived state, excluded from
    /// equality.
    universe: OnceLock<Arc<ClassUniverse>>,
}

impl PartialEq for TeamModel {
    fn eq(&self, other: &Self) -> bool {
        self.machine == other.machine && self.readers == other.readers && self.rule == other.rule
    }
}

impl TeamModel {
    /// Starts building a team.
    #[must_use]
    pub fn builder() -> TeamModelBuilder {
        TeamModelBuilder::default()
    }

    /// The interned universe of the machine table's classes. Built on first
    /// use and cached; cheap to call afterwards.
    pub fn universe(&self) -> &Arc<ClassUniverse> {
        self.universe
            .get_or_init(|| Arc::new(ClassUniverse::from_names(self.machine.keys().cloned())))
    }

    /// The class-conditional false-negative probability of the team.
    ///
    /// # Errors
    ///
    /// [`ModelError::MissingClass`] if the class is absent from the machine
    /// table or any reader's table.
    pub fn class_failure(&self, class: &ClassId) -> Result<Probability, ModelError> {
        let p_mf = self
            .machine
            .get(class)
            .copied()
            .ok_or_else(|| ModelError::MissingClass {
                class: class.clone(),
            })?;
        // Condition on the machine outcome; readers are independent given it.
        let given_mf = self.team_failure_given(class, true)?;
        let given_ms = self.team_failure_given(class, false)?;
        Ok(given_mf.mix(given_ms, p_mf))
    }

    fn team_failure_given(
        &self,
        class: &ClassId,
        machine_failed: bool,
    ) -> Result<Probability, ModelError> {
        let pick = |skill: &ReaderSkill| -> Result<f64, ModelError> {
            let (ms, mf) = skill.conditionals(class)?;
            Ok(if machine_failed {
                mf.value()
            } else {
                ms.value()
            })
        };
        let p = match &self.rule {
            CombinationRule::Single => pick(&self.readers[0])?,
            CombinationRule::EitherRecalls => {
                // FN iff all readers fail.
                self.readers.iter().map(&pick).product::<Result<f64, _>>()?
            }
            CombinationRule::Consensus => {
                // FN iff at least one reader fails.
                1.0 - self
                    .readers
                    .iter()
                    .map(|r| pick(r).map(|p| 1.0 - p))
                    .product::<Result<f64, _>>()?
            }
            CombinationRule::Arbitrated { arbiter } => {
                let p1 = pick(&self.readers[0])?;
                let p2 = pick(&self.readers[1])?;
                let pa = pick(arbiter)?;
                // FN = both miss, or they disagree and the arbiter misses.
                p1 * p2 + (p1 * (1.0 - p2) + (1.0 - p1) * p2) * pa
            }
        };
        Ok(Probability::clamped(p))
    }

    /// The team's false-negative probability over a demand profile.
    ///
    /// The profile is resolved against the machine table's interned
    /// [`ClassUniverse`] up front, so a profile/table mismatch surfaces as a
    /// typed error before any per-class arithmetic runs.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownClass`] if the profile mentions a class absent
    ///   from the machine table.
    /// * [`ModelError::MissingClass`] if a reader's table misses a class
    ///   (see [`TeamModel::class_failure`]).
    pub fn system_failure(&self, profile: &DemandProfile) -> Result<Probability, ModelError> {
        let universe = Arc::clone(self.universe());
        let bound = CompiledProfile::bind(&universe, profile)?;
        let mut total = 0.0;
        for (idx, weight) in bound.iter() {
            total += weight * self.class_failure(universe.class(idx))?.value();
        }
        Ok(Probability::clamped(total))
    }

    /// The combination rule.
    #[must_use]
    pub fn rule(&self) -> &CombinationRule {
        &self.rule
    }

    /// Number of readers.
    #[must_use]
    pub fn reader_count(&self) -> usize {
        self.readers.len()
    }
}

/// The probability that *both* of two readers fail, when their failures
/// have Pearson correlation `rho` at failure probabilities `p1`, `p2`:
///
/// ```text
/// P(both) = p1·p2 + rho·√(p1(1−p1)·p2(1−p2))
/// ```
///
/// The result is clamped into the Fréchet bounds
/// `[max(0, p1+p2−1), min(p1, p2)]`, so any `rho ∈ [−1, 1]` yields a valid
/// joint probability.
///
/// This models *residual* dependence within a class — the paper's framework
/// assumes classes are refined until conditionally independent, but real
/// classifications stop early, leaving shared case difficulty that
/// correlates two readers' failures on the same film.
#[must_use]
pub fn pair_failure_with_correlation(p1: Probability, p2: Probability, rho: f64) -> Probability {
    let (p1, p2) = (p1.value(), p2.value());
    let joint = p1 * p2 + rho * (p1 * (1.0 - p1) * p2 * (1.0 - p2)).sqrt();
    let lower = (p1 + p2 - 1.0).max(0.0);
    let upper = p1.min(p2);
    Probability::clamped(joint.clamp(lower, upper))
}

impl TeamModel {
    /// The team's false-negative probability over a profile when the two
    /// readers' failures are correlated with coefficient `rho` *within each
    /// (class, machine-outcome) stratum*.
    ///
    /// Supported for exactly two readers under
    /// [`CombinationRule::EitherRecalls`] or [`CombinationRule::Consensus`]
    /// (arbitration needs the full joint distribution, not just the pair
    /// probability). `rho = 0` reproduces [`TeamModel::system_failure`].
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidFactor`] if `rho` is outside `[-1, 1]`, the
    ///   team does not have exactly two readers, or the rule is
    ///   unsupported.
    /// * [`ModelError::UnknownClass`] if the profile mentions a class absent
    ///   from the machine table; [`ModelError::MissingClass`] if a reader's
    ///   table misses a class.
    pub fn system_failure_correlated(
        &self,
        profile: &DemandProfile,
        rho: f64,
    ) -> Result<Probability, ModelError> {
        if rho.is_nan() || !(-1.0..=1.0).contains(&rho) {
            return Err(ModelError::InvalidFactor {
                value: rho,
                context: "reader correlation",
            });
        }
        if self.readers.len() != 2 {
            return Err(ModelError::InvalidFactor {
                value: self.readers.len() as f64,
                context: "reader count for correlated evaluation (needs exactly 2)",
            });
        }
        let either = match self.rule {
            CombinationRule::EitherRecalls => true,
            CombinationRule::Consensus => false,
            _ => {
                return Err(ModelError::InvalidFactor {
                    value: f64::NAN,
                    context: "combination rule for correlated evaluation",
                })
            }
        };
        let universe = Arc::clone(self.universe());
        let bound = CompiledProfile::bind(&universe, profile)?;
        let mut total = 0.0;
        for (idx, weight) in bound.iter() {
            let class = universe.class(idx);
            let p_mf =
                self.machine
                    .get(class)
                    .copied()
                    .ok_or_else(|| ModelError::MissingClass {
                        class: class.clone(),
                    })?;
            let mut class_failure = 0.0;
            for (machine_failed, p_branch) in
                [(true, p_mf.value()), (false, p_mf.complement().value())]
            {
                let (ms1, mf1) = self.readers[0].conditionals(class)?;
                let (ms2, mf2) = self.readers[1].conditionals(class)?;
                let p1 = if machine_failed { mf1 } else { ms1 };
                let p2 = if machine_failed { mf2 } else { ms2 };
                let both = pair_failure_with_correlation(p1, p2, rho).value();
                let fail = if either {
                    both // FN iff both miss
                } else {
                    // FN iff at least one misses.
                    p1.value() + p2.value() - both
                };
                class_failure += p_branch * fail;
            }
            total += weight * class_failure;
        }
        Ok(Probability::clamped(total))
    }
}

/// Builder for [`TeamModel`].
#[derive(Debug, Clone, Default)]
pub struct TeamModelBuilder {
    machine: BTreeMap<ClassId, Probability>,
    readers: Vec<ReaderSkill>,
    rule: Option<CombinationRule>,
}

impl TeamModelBuilder {
    /// Sets the machine's failure probability for a class.
    #[must_use]
    pub fn machine(mut self, class: impl Into<ClassId>, p_mf: Probability) -> Self {
        self.machine.insert(class.into(), p_mf);
        self
    }

    /// Adds a reader.
    #[must_use]
    pub fn reader(mut self, skill: ReaderSkill) -> Self {
        self.readers.push(skill);
        self
    }

    /// Sets the combination rule (default [`CombinationRule::Single`]).
    #[must_use]
    pub fn rule(mut self, rule: CombinationRule) -> Self {
        self.rule = Some(rule);
        self
    }

    /// Builds the team.
    ///
    /// # Errors
    ///
    /// * [`ModelError::Empty`] if there is no machine table or no reader.
    /// * [`ModelError::InvalidFactor`] if the rule's reader-count
    ///   requirement is violated (`Arbitrated` needs exactly 2 readers,
    ///   `Single` at least 1, the others at least 2).
    pub fn build(self) -> Result<TeamModel, ModelError> {
        if self.machine.is_empty() {
            return Err(ModelError::Empty {
                context: "team machine table",
            });
        }
        if self.readers.is_empty() {
            return Err(ModelError::Empty {
                context: "team reader list",
            });
        }
        let rule = self.rule.unwrap_or(CombinationRule::Single);
        let n = self.readers.len();
        let ok = match &rule {
            CombinationRule::Single => n >= 1,
            CombinationRule::EitherRecalls | CombinationRule::Consensus => n >= 2,
            CombinationRule::Arbitrated { .. } => n == 2,
        };
        if !ok {
            return Err(ModelError::InvalidFactor {
                value: n as f64,
                context: "reader count for the chosen combination rule",
            });
        }
        Ok(TeamModel {
            machine: self.machine,
            readers: self.readers,
            rule,
            universe: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn paper_reader() -> ReaderSkill {
        ReaderSkill::builder()
            .class("easy", p(0.14), p(0.18))
            .class("difficult", p(0.4), p(0.9))
            .build()
            .unwrap()
    }

    fn machine_table(b: TeamModelBuilder) -> TeamModelBuilder {
        b.machine("easy", p(0.07)).machine("difficult", p(0.41))
    }

    fn profile() -> DemandProfile {
        DemandProfile::builder()
            .class("easy", 0.9)
            .class("difficult", 0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn single_reader_reproduces_sequential_model() {
        let team = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .rule(CombinationRule::Single)
            .build()
            .unwrap();
        // Must equal the paper's field value 0.18902.
        assert!((team.system_failure(&profile()).unwrap().value() - 0.18902).abs() < 1e-12);
    }

    #[test]
    fn double_reading_beats_single() {
        let single = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .build()
            .unwrap();
        let double = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::EitherRecalls)
            .build()
            .unwrap();
        let s = single.system_failure(&profile()).unwrap();
        let d = double.system_failure(&profile()).unwrap();
        assert!(d < s, "{} vs {}", d.value(), s.value());
    }

    #[test]
    fn consensus_is_worse_than_single_for_fn() {
        // Consensus reduces FPs but *raises* FNs: any miss loses the case.
        let single = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .build()
            .unwrap();
        let consensus = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::Consensus)
            .build()
            .unwrap();
        assert!(
            consensus.system_failure(&profile()).unwrap()
                > single.system_failure(&profile()).unwrap()
        );
    }

    #[test]
    fn arbitration_between_either_and_consensus() {
        let either = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::EitherRecalls)
            .build()
            .unwrap();
        let consensus = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::Consensus)
            .build()
            .unwrap();
        let arbitrated = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::Arbitrated {
                arbiter: paper_reader(),
            })
            .build()
            .unwrap();
        let e = either.system_failure(&profile()).unwrap();
        let c = consensus.system_failure(&profile()).unwrap();
        let a = arbitrated.system_failure(&profile()).unwrap();
        assert!(
            e <= a && a <= c,
            "{} <= {} <= {}",
            e.value(),
            a.value(),
            c.value()
        );
    }

    #[test]
    fn lower_qualified_pair_can_beat_one_expert() {
        // §7: "less qualified readers assisted by CADTs". Two weaker readers
        // with unilateral recall can beat one expert.
        let expert = paper_reader();
        let weaker = ReaderSkill::builder()
            .class("easy", p(0.25), p(0.32))
            .class("difficult", p(0.55), p(0.95))
            .build()
            .unwrap();
        let one_expert = machine_table(TeamModel::builder())
            .reader(expert)
            .build()
            .unwrap();
        let two_weaker = machine_table(TeamModel::builder())
            .reader(weaker.clone())
            .reader(weaker)
            .rule(CombinationRule::EitherRecalls)
            .build()
            .unwrap();
        assert!(
            two_weaker.system_failure(&profile()).unwrap()
                < one_expert.system_failure(&profile()).unwrap()
        );
    }

    #[test]
    fn unaided_team_via_machine_always_fails() {
        // Model an unaided reader: PMf = 1 everywhere, so only the |Mf
        // branch matters; set it to the unaided failure probability.
        let unaided = ReaderSkill::unaided_from([
            (ClassId::new("easy"), p(0.2)),
            (ClassId::new("difficult"), p(0.6)),
        ])
        .unwrap();
        let team = TeamModel::builder()
            .machine("easy", Probability::ONE)
            .machine("difficult", Probability::ONE)
            .reader(unaided)
            .build()
            .unwrap();
        let expected = 0.9 * 0.2 + 0.1 * 0.6;
        assert!((team.system_failure(&profile()).unwrap().value() - expected).abs() < 1e-12);
    }

    #[test]
    fn builder_validation() {
        assert!(TeamModel::builder().build().is_err());
        assert!(machine_table(TeamModel::builder()).build().is_err()); // no reader
                                                                       // Arbitrated needs exactly two readers.
        assert!(machine_table(TeamModel::builder())
            .reader(paper_reader())
            .rule(CombinationRule::Arbitrated {
                arbiter: paper_reader()
            })
            .build()
            .is_err());
        assert!(machine_table(TeamModel::builder())
            .reader(paper_reader())
            .rule(CombinationRule::EitherRecalls)
            .build()
            .is_err());
        assert!(ReaderSkill::builder().build().is_err());
        assert!(ReaderSkill::unaided_from([]).is_err());
    }

    #[test]
    fn missing_class_surfaces() {
        let team = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .build()
            .unwrap();
        let bad = DemandProfile::builder()
            .class("ghost", 1.0)
            .build()
            .unwrap();
        // A profile class outside the machine table's universe is an
        // UnknownClass (the compiled-layer resolution error).
        assert!(matches!(
            team.system_failure(&bad),
            Err(ModelError::UnknownClass { .. })
        ));
        assert!(team.universe().contains("easy"));
        assert!(!team.universe().contains("ghost"));
    }

    #[test]
    fn pair_correlation_brackets_and_reduces() {
        let p1 = p(0.3);
        let p2 = p(0.5);
        // rho = 0 is independence.
        assert!((pair_failure_with_correlation(p1, p2, 0.0).value() - 0.15).abs() < 1e-12);
        // rho = 1 is the Fréchet upper bound min(p1, p2) when feasible.
        assert!((pair_failure_with_correlation(p1, p1, 1.0).value() - 0.3).abs() < 1e-12);
        // rho = −1 at complementary marginals reaches the lower bound.
        assert_eq!(
            pair_failure_with_correlation(p(0.5), p(0.5), -1.0),
            Probability::ZERO
        );
        // Monotone in rho.
        let lo = pair_failure_with_correlation(p1, p2, -0.5);
        let hi = pair_failure_with_correlation(p1, p2, 0.5);
        assert!(lo < hi);
    }

    #[test]
    fn correlated_zero_matches_independent_evaluation() {
        let team = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::EitherRecalls)
            .build()
            .unwrap();
        let a = team.system_failure(&profile()).unwrap();
        let b = team.system_failure_correlated(&profile(), 0.0).unwrap();
        assert!((a.value() - b.value()).abs() < 1e-12);
    }

    #[test]
    fn positive_correlation_erodes_double_reading() {
        // Correlated misses are the enemy of 1-of-2 redundancy: the benefit
        // of the second reader shrinks as rho grows.
        let team = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::EitherRecalls)
            .build()
            .unwrap();
        let mut last = 0.0;
        for rho in [0.0, 0.2, 0.5, 0.9] {
            let v = team
                .system_failure_correlated(&profile(), rho)
                .unwrap()
                .value();
            assert!(v >= last - 1e-12, "rho={rho}");
            last = v;
        }
        // At rho = 1 with identical readers, the pair degenerates to one
        // reader: the redundancy is worthless.
        let single = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .build()
            .unwrap();
        let degenerate = team.system_failure_correlated(&profile(), 1.0).unwrap();
        assert!(
            (degenerate.value() - single.system_failure(&profile()).unwrap().value()).abs() < 1e-12
        );
    }

    #[test]
    fn correlation_helps_consensus() {
        // For consensus (all must recall), correlated failures REDUCE the FN
        // rate: P(at least one fails) shrinks as failures co-occur.
        let team = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::Consensus)
            .build()
            .unwrap();
        let indep = team.system_failure_correlated(&profile(), 0.0).unwrap();
        let corr = team.system_failure_correlated(&profile(), 0.7).unwrap();
        assert!(corr < indep);
    }

    #[test]
    fn correlated_evaluation_validation() {
        let pair = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::EitherRecalls)
            .build()
            .unwrap();
        assert!(pair.system_failure_correlated(&profile(), 1.5).is_err());
        assert!(pair
            .system_failure_correlated(&profile(), f64::NAN)
            .is_err());
        let single = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .build()
            .unwrap();
        assert!(single.system_failure_correlated(&profile(), 0.2).is_err());
        let arbitrated = machine_table(TeamModel::builder())
            .reader(paper_reader())
            .reader(paper_reader())
            .rule(CombinationRule::Arbitrated {
                arbiter: paper_reader(),
            })
            .build()
            .unwrap();
        assert!(arbitrated
            .system_failure_correlated(&profile(), 0.2)
            .is_err());
    }

    #[test]
    fn rule_display() {
        assert_eq!(CombinationRule::Single.to_string(), "single");
        assert_eq!(CombinationRule::EitherRecalls.to_string(), "either-recalls");
    }
}
