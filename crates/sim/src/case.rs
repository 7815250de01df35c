//! Synthetic screening cases.
//!
//! A case is the set of films about one patient (the paper's "demand"). The
//! simulator gives each case a latent **difficulty** in `[0, 1]` and, for
//! cancer cases, one or more **lesions** with a subtlety score derived from
//! that difficulty. Both the CADT and the reader see the same films —
//! success probabilities for both degrade with the same latent variables —
//! so their failures are correlated *through the case*, exactly the
//! structure the paper's conditional-on-demand modelling captures.

use hmdiv_core::ClassId;

/// Ground truth of a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// The patient has cancer: the correct decision is *recall*.
    Cancer,
    /// The patient is healthy: the correct decision is *no recall*.
    Normal,
}

impl CaseKind {
    /// Whether the correct decision is to recall the patient.
    #[must_use]
    pub fn should_recall(self) -> bool {
        matches!(self, CaseKind::Cancer)
    }
}

/// A suspicious feature on the films of a cancer case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lesion {
    /// How hard the lesion is to see, in `[0, 1]`; 0 = obvious, 1 = nearly
    /// invisible.
    pub subtlety: f64,
}

/// One screening case.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Sequence number within its generating run.
    pub id: u64,
    /// Ground truth.
    pub kind: CaseKind,
    /// The demand class the case belongs to (known to the experimenter, not
    /// to the reader).
    pub class: ClassId,
    /// Latent overall difficulty in `[0, 1]` (film quality, breast density,
    /// confusing normal structures).
    pub difficulty: f64,
    /// Lesions present (empty for normal cases).
    pub lesions: Vec<Lesion>,
}

impl Case {
    /// The subtlety of the most visible lesion — detection of the case
    /// requires finding at least one lesion, so the easiest one governs.
    ///
    /// Returns `None` for normal cases.
    #[must_use]
    pub fn easiest_lesion(&self) -> Option<f64> {
        self.lesions
            .iter()
            .map(|l| l.subtlety)
            .min_by(f64::total_cmp)
    }

    /// Whether this is a cancer case.
    #[must_use]
    pub fn is_cancer(&self) -> bool {
        self.kind == CaseKind::Cancer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cancer_case(subtleties: &[f64]) -> Case {
        Case {
            id: 0,
            kind: CaseKind::Cancer,
            class: ClassId::new("easy"),
            difficulty: 0.3,
            lesions: subtleties.iter().map(|&s| Lesion { subtlety: s }).collect(),
        }
    }

    #[test]
    fn kind_decides_recall() {
        assert!(CaseKind::Cancer.should_recall());
        assert!(!CaseKind::Normal.should_recall());
    }

    #[test]
    fn easiest_lesion_is_minimum_subtlety() {
        let c = cancer_case(&[0.8, 0.2, 0.5]);
        assert_eq!(c.easiest_lesion(), Some(0.2));
        assert!(c.is_cancer());
    }

    #[test]
    fn normal_case_has_no_lesions() {
        let c = Case {
            id: 1,
            kind: CaseKind::Normal,
            class: ClassId::new("clear"),
            difficulty: 0.1,
            lesions: vec![],
        };
        assert_eq!(c.easiest_lesion(), None);
        assert!(!c.is_cancer());
    }
}
