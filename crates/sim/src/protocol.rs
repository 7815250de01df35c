//! Reading protocols: how CADT and readers are combined on one case.
//!
//! The paper's §3 lists two co-ordination procedures (reader-first review
//! and concurrent reading); in both, what reaches the model is the pair of
//! events (machine failed?, reader failed?). The simulator realises the
//! *concurrent* ("sequential operation", Fig. 3) procedure — the reader sees
//! the films together with the prompts — which is the regime the paper's §4
//! model describes. Double reading and arbitration (§7) are also provided.

use rand::Rng;

use hmdiv_core::ClassId;

use crate::cadt::{Cadt, CadtOutput};
use crate::case::{Case, CaseKind};
use crate::reader::Reader;
use crate::SimError;

/// How multiple readers' decisions combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecisionRule {
    /// The single (first) reader decides.
    Single,
    /// Recall if any reader recalls.
    EitherRecalls,
    /// Recall only if all readers recall.
    Consensus,
}

/// The co-ordination procedure between each reader and the CADT (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Procedure {
    /// Procedure 2 of §3 / Fig. 3: the reader processes the films together
    /// with the CADT's annotations. Faster, but the prompts can bias the
    /// whole reading (automation bias applies).
    Concurrent,
    /// Procedure 1 of §3: the reader first examines the films *alone*, then
    /// reviews the CADT's prompts and may upgrade a no-recall decision.
    /// This is the procedure the CADT's design rationale assumes — the
    /// unaided pass is unaffected by the machine, so the "parallel
    /// detection" model's assumptions hold by construction.
    ReaderFirstReview,
}

/// A reading team: optional CADT, one or more readers, a decision rule,
/// and a co-ordination procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadingTeam {
    /// The CADT, if the protocol is computer-assisted.
    pub cadt: Option<Cadt>,
    /// The readers, in reading order.
    pub readers: Vec<Reader>,
    /// The combination rule.
    pub rule: DecisionRule,
    /// How each reader co-ordinates with the CADT (ignored when unaided).
    pub procedure: Procedure,
}

impl ReadingTeam {
    /// Validates team composition.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyRun`] with context "reader list" if there are no
    /// readers; [`SimError::InvalidConfig`] if a multi-reader rule has one
    /// reader, or any reader fails validation.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.readers.is_empty() {
            return Err(SimError::EmptyRun {
                context: "reader list",
            });
        }
        if self.rule != DecisionRule::Single && self.readers.len() < 2 {
            return Err(SimError::InvalidConfig {
                value: self.readers.len() as f64,
                context: "reader count for a multi-reader rule",
            });
        }
        self.readers.iter().try_for_each(Reader::validate)
    }

    /// Screens one case, producing the observable record.
    pub fn screen<R: Rng + ?Sized>(&self, case: &Case, rng: &mut R) -> CaseRecord {
        let cadt_output: Option<CadtOutput> = self.cadt.map(|c| c.process(case, rng));
        let machine_failed = cadt_output.as_ref().map(|out| match case.kind {
            CaseKind::Cancer => !out.detected_cancer(),
            CaseKind::Normal => out.spurious_prompts > 0,
        });
        let reader_recalls: Vec<bool> = self
            .readers
            .iter()
            .map(|r| match (self.procedure, cadt_output.as_ref()) {
                (_, None) => r.read(case, None, rng).recall,
                (Procedure::Concurrent, Some(out)) => r.read(case, Some(out), rng).recall,
                (Procedure::ReaderFirstReview, Some(out)) => {
                    // Unaided pass first: the machine cannot bias it.
                    let own = r.read(case, None, rng);
                    own.recall || r.review_prompts(case, out, rng)
                }
            })
            .collect();
        let decision = match self.rule {
            DecisionRule::Single => reader_recalls[0],
            DecisionRule::EitherRecalls => reader_recalls.iter().any(|&r| r),
            DecisionRule::Consensus => reader_recalls.iter().all(|&r| r),
        };
        let system_failed = decision != case.kind.should_recall();
        CaseRecord {
            class: case.class.clone(),
            kind: case.kind,
            machine_failed,
            reader_recalls,
            decision,
            system_failed,
        }
    }
}

/// The observable outcome of screening one case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseRecord {
    /// The case's demand class.
    pub class: ClassId,
    /// Ground truth.
    pub kind: CaseKind,
    /// Whether the machine failed on this case (`None` for unaided
    /// protocols). On cancer cases this is `Mf`; on normal cases it means
    /// spurious prompts were emitted.
    pub machine_failed: Option<bool>,
    /// Each reader's recall decision.
    pub reader_recalls: Vec<bool>,
    /// The team's final decision (recall?).
    pub decision: bool,
    /// Whether the decision was wrong for the ground truth.
    pub system_failed: bool,
}

impl CaseRecord {
    /// Whether this record is a false negative (cancer not recalled).
    #[must_use]
    pub fn is_false_negative(&self) -> bool {
        self.kind == CaseKind::Cancer && !self.decision
    }

    /// Whether this record is a false positive (healthy patient recalled).
    #[must_use]
    pub fn is_false_positive(&self) -> bool {
        self.kind == CaseKind::Normal && self.decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Lesion;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cancer_case(subtlety: f64, difficulty: f64) -> Case {
        Case {
            id: 0,
            kind: CaseKind::Cancer,
            class: ClassId::new("t"),
            difficulty,
            lesions: vec![Lesion { subtlety }],
        }
    }

    fn assisted_single() -> ReadingTeam {
        ReadingTeam {
            cadt: Some(Cadt::default_detector().unwrap()),
            readers: vec![Reader::expert()],
            rule: DecisionRule::Single,
            procedure: Procedure::Concurrent,
        }
    }

    fn fn_rate(team: &ReadingTeam, case: &Case, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 20_000;
        (0..n)
            .filter(|_| team.screen(case, &mut rng).is_false_negative())
            .count() as f64
            / n as f64
    }

    #[test]
    fn validation() {
        assisted_single().validate().unwrap();
        let empty = ReadingTeam {
            cadt: None,
            readers: vec![],
            rule: DecisionRule::Single,
            procedure: Procedure::Concurrent,
        };
        assert!(empty.validate().is_err());
        let lonely_double = ReadingTeam {
            cadt: None,
            readers: vec![Reader::expert()],
            rule: DecisionRule::EitherRecalls,
            procedure: Procedure::Concurrent,
        };
        assert!(lonely_double.validate().is_err());
        let mut bad_reader = Reader::expert();
        bad_reader.lapse_rate = 2.0;
        let team = ReadingTeam {
            cadt: None,
            readers: vec![bad_reader],
            rule: DecisionRule::Single,
            procedure: Procedure::Concurrent,
        };
        assert!(team.validate().is_err());
    }

    #[test]
    fn unaided_has_no_machine_event() {
        let team = ReadingTeam {
            cadt: None,
            readers: vec![Reader::expert()],
            rule: DecisionRule::Single,
            procedure: Procedure::Concurrent,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let rec = team.screen(&cancer_case(0.5, 0.4), &mut rng);
        assert!(rec.machine_failed.is_none());
        assert_eq!(rec.reader_recalls.len(), 1);
    }

    #[test]
    fn assistance_reduces_false_negatives_on_subtle_cases() {
        let unaided = ReadingTeam {
            cadt: None,
            readers: vec![Reader::expert()],
            rule: DecisionRule::Single,
            procedure: Procedure::Concurrent,
        };
        let aided = assisted_single();
        let case = cancer_case(0.8, 0.3);
        let fn_unaided = fn_rate(&unaided, &case, 2);
        let fn_aided = fn_rate(&aided, &case, 2);
        assert!(fn_aided < fn_unaided, "{fn_aided} vs {fn_unaided}");
    }

    #[test]
    fn double_reading_beats_single() {
        let single = assisted_single();
        let double = ReadingTeam {
            cadt: Some(Cadt::default_detector().unwrap()),
            readers: vec![Reader::expert(), Reader::expert()],
            rule: DecisionRule::EitherRecalls,
            procedure: Procedure::Concurrent,
        };
        let case = cancer_case(0.75, 0.5);
        assert!(fn_rate(&double, &case, 3) < fn_rate(&single, &case, 3));
    }

    #[test]
    fn consensus_raises_false_negatives() {
        let either = ReadingTeam {
            cadt: None,
            readers: vec![Reader::expert(), Reader::expert()],
            rule: DecisionRule::EitherRecalls,
            procedure: Procedure::Concurrent,
        };
        let consensus = ReadingTeam {
            rule: DecisionRule::Consensus,
            ..either.clone()
        };
        let case = cancer_case(0.7, 0.5);
        assert!(fn_rate(&consensus, &case, 4) > fn_rate(&either, &case, 4));
    }

    #[test]
    fn record_classification_helpers() {
        let rec = CaseRecord {
            class: ClassId::new("x"),
            kind: CaseKind::Cancer,
            machine_failed: Some(true),
            reader_recalls: vec![false],
            decision: false,
            system_failed: true,
        };
        assert!(rec.is_false_negative());
        assert!(!rec.is_false_positive());
        let fp = CaseRecord {
            kind: CaseKind::Normal,
            decision: true,
            ..rec
        };
        assert!(fp.is_false_positive());
        assert!(!fp.is_false_negative());
    }

    #[test]
    fn machine_failure_semantics_per_kind() {
        let team = assisted_single();
        let mut rng = StdRng::seed_from_u64(5);
        // A maximally obvious cancer: machine essentially always detects.
        let obvious = cancer_case(0.0, 0.0);
        let mut machine_fails = 0;
        for _ in 0..2000 {
            if team.screen(&obvious, &mut rng).machine_failed.unwrap() {
                machine_fails += 1;
            }
        }
        assert!(machine_fails < 200, "{machine_fails}");
    }
}
