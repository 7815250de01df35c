use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use hmdiv_prob::moments::weighted_covariance;
use hmdiv_prob::Probability;
use hmdiv_rbd::difficulty::littlewood_miller;
use hmdiv_rbd::Block;

use crate::compiled::CompiledDetectionModel;
use crate::{ClassId, DemandProfile, ModelError};

/// The paper's §3 "parallel detection" parameters for one class of demands:
///
/// * `p_mf` — machine misses all relevant features, `P(Mf)(x)`;
/// * `p_h_miss` — reader misses the relevant features in the detection
///   subtask, `P(Hmiss)(x)`;
/// * `p_h_misclass` — reader misclassifies although the relevant features
///   were identified, `P(Hmisclass)(x)`.
///
/// Within a class, machine and reader detection failures are assumed
/// *conditionally independent* (they examine the films separately), which is
/// exactly the assumption whose across-class aggregate produces the
/// covariance term of eq. (3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionParams {
    /// `P(Mf)(x)`: machine detection failure probability.
    pub p_mf: Probability,
    /// `P(Hmiss)(x)`: human detection failure probability.
    pub p_h_miss: Probability,
    /// `P(Hmisclass)(x)`: human classification failure probability.
    pub p_h_misclass: Probability,
}

impl DetectionParams {
    /// Creates the parameter triple.
    #[must_use]
    pub fn new(p_mf: Probability, p_h_miss: Probability, p_h_misclass: Probability) -> Self {
        DetectionParams {
            p_mf,
            p_h_miss,
            p_h_misclass,
        }
    }

    /// The class-conditional system failure probability, the paper's eq. (1)
    /// under within-class conditional independence:
    ///
    /// ```text
    /// P(fail)(x) = PMf(x)·PHmiss(x)
    ///            + (1 − PMf(x)·PHmiss(x))·PHmisclass(x)
    /// ```
    #[must_use]
    pub fn class_failure(&self) -> Probability {
        let p_detect_fail = self.p_mf * self.p_h_miss;
        p_detect_fail.or_independent(self.p_h_misclass)
    }

    /// The class-conditional probability that *detection* fails (both miss).
    #[must_use]
    pub fn detection_failure(&self) -> Probability {
        self.p_mf * self.p_h_miss
    }
}

impl fmt::Display for DetectionParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PMf={:.4}, PHmiss={:.4}, PHmisclass={:.4}",
            self.p_mf.value(),
            self.p_h_miss.value(),
            self.p_h_misclass.value()
        )
    }
}

/// Decomposition of the detection-failure probability into the independent
/// product and the difficulty covariance — the paper's eq. (3):
///
/// ```text
/// P(detection failure) = PMf·PHmiss + cov(pMf(x), pHmiss(x))
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionCovariance {
    /// Marginal machine failure `PMf = E[pMf(x)]`.
    pub p_mf: Probability,
    /// Marginal human miss `PHmiss = E[pHmiss(x)]`.
    pub p_h_miss: Probability,
    /// The product `PMf·PHmiss` (what independence would predict).
    pub independent_product: f64,
    /// The covariance `cov(pMf(x), pHmiss(x))` over the profile.
    pub covariance: f64,
    /// The actual detection failure probability
    /// `E[pMf(x)·pHmiss(x)] = product + covariance`.
    pub detection_failure: Probability,
}

/// The paper's §3 "parallel detection" model (Fig. 2) over classes of
/// demands.
///
/// # Example
///
/// ```
/// use hmdiv_core::{ParallelDetectionModel, DetectionParams, DemandProfile};
/// use hmdiv_prob::Probability;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = |v| Probability::new(v).unwrap();
/// let model = ParallelDetectionModel::builder()
///     .class("easy", DetectionParams::new(p(0.07), p(0.10), p(0.05)))
///     .class("difficult", DetectionParams::new(p(0.41), p(0.60), p(0.30)))
///     .build()?;
/// let profile = DemandProfile::builder()
///     .class("easy", 0.8)
///     .class("difficult", 0.2)
///     .build()?;
/// let cov = model.detection_covariance(&profile)?;
/// // Shared difficulty: the covariance term is positive, so detection
/// // fails together more often than the marginals suggest.
/// assert!(cov.covariance > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParallelDetectionModel {
    table: BTreeMap<ClassId, DetectionParams>,
    /// Lazily-compiled dense evaluation form (derived state; see
    /// [`crate::compiled`]).
    compiled: OnceLock<Arc<CompiledDetectionModel>>,
}

impl PartialEq for ParallelDetectionModel {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table
    }
}

impl ParallelDetectionModel {
    /// Starts building the model.
    #[must_use]
    pub fn builder() -> ParallelDetectionModelBuilder {
        ParallelDetectionModelBuilder {
            table: BTreeMap::new(),
            duplicate: None,
        }
    }

    /// The parameters for a class.
    ///
    /// # Errors
    ///
    /// [`ModelError::MissingClass`] if the class is absent.
    pub fn class(&self, class: &ClassId) -> Result<&DetectionParams, ModelError> {
        self.table
            .get(class)
            .ok_or_else(|| ModelError::MissingClass {
                class: class.clone(),
            })
    }

    /// Number of classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true for a built model).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Iterates `(class, params)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&ClassId, &DetectionParams)> {
        self.table.iter()
    }

    /// The class-conditional system failure probability (eq. 1).
    ///
    /// # Errors
    ///
    /// [`ModelError::MissingClass`] if the class is absent.
    pub fn class_failure(&self, class: &ClassId) -> Result<Probability, ModelError> {
        Ok(self.class(class)?.class_failure())
    }

    /// The dense compiled form of this model, compiled on first use and
    /// cached.
    #[must_use]
    pub fn compiled(&self) -> &Arc<CompiledDetectionModel> {
        self.compiled
            .get_or_init(|| Arc::new(CompiledDetectionModel::compile(self)))
    }

    /// The system failure probability over a demand profile, evaluated
    /// through the compiled form.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] if the profile mentions an absent class.
    pub fn system_failure(&self, profile: &DemandProfile) -> Result<Probability, ModelError> {
        let compiled = self.compiled();
        Ok(compiled.system_failure(&compiled.bind_profile(profile)?))
    }

    /// Decomposes the detection-failure probability into independent product
    /// plus covariance (eq. 3), using the Littlewood–Miller machinery.
    ///
    /// # Errors
    ///
    /// [`ModelError::MissingClass`] if the profile mentions an absent class.
    pub fn detection_covariance(
        &self,
        profile: &DemandProfile,
    ) -> Result<DetectionCovariance, ModelError> {
        // Check coverage first so the closure below cannot miss.
        for (class, _) in profile.iter() {
            self.class(class)?;
        }
        let report = littlewood_miller(
            profile.as_categorical(),
            |c| self.table[c].p_mf,
            |c| self.table[c].p_h_miss,
        );
        // Cross-check the covariance with the direct weighted computation.
        let weights: Vec<f64> = profile.iter().map(|(_, w)| w.value()).collect();
        let a: Vec<f64> = profile
            .iter()
            .map(|(c, _)| self.table[c].p_mf.value())
            .collect();
        let b: Vec<f64> = profile
            .iter()
            .map(|(c, _)| self.table[c].p_h_miss.value())
            .collect();
        let cov = weighted_covariance(&weights, &a, &b).map_err(ModelError::from)?;
        debug_assert!((cov - report.covariance).abs() < 1e-12);
        Ok(DetectionCovariance {
            p_mf: report.p_a,
            p_h_miss: report.p_b,
            independent_product: report.independent_product,
            covariance: cov,
            detection_failure: report.p_both,
        })
    }

    /// The Fig. 2 reliability block diagram for this model, with the
    /// conventional component names `Hdetect`, `Mdetect`, `Hclassify`.
    ///
    /// Evaluating this diagram with a class's parameters reproduces
    /// [`DetectionParams::class_failure`]; exposed so the structural view
    /// (path sets, importance measures) is available.
    #[must_use]
    pub fn fig2_diagram() -> Block {
        Block::series(vec![
            Block::parallel(vec![
                Block::component("Hdetect"),
                Block::component("Mdetect"),
            ]),
            Block::component("Hclassify"),
        ])
    }
}

impl fmt::Display for ParallelDetectionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "parallel-detection model over {} classes:",
            self.table.len()
        )?;
        for (class, params) in &self.table {
            writeln!(
                f,
                "  {class}: {params} -> P(fail)(x)={:.4}",
                params.class_failure().value()
            )?;
        }
        Ok(())
    }
}

/// Builder for [`ParallelDetectionModel`].
#[derive(Debug, Clone, Default)]
pub struct ParallelDetectionModelBuilder {
    table: BTreeMap<ClassId, DetectionParams>,
    duplicate: Option<ClassId>,
}

impl ParallelDetectionModelBuilder {
    /// Adds parameters for a class.
    #[must_use]
    pub fn class(mut self, class: impl Into<ClassId>, params: DetectionParams) -> Self {
        let class = class.into();
        if self.table.insert(class.clone(), params).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(class);
        }
        self
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// * [`ModelError::Empty`] if no classes were added.
    /// * [`ModelError::DuplicateClass`] if a class was added twice.
    pub fn build(self) -> Result<ParallelDetectionModel, ModelError> {
        if let Some(class) = self.duplicate {
            return Err(ModelError::DuplicateClass { class });
        }
        if self.table.is_empty() {
            return Err(ModelError::Empty {
                context: "parallel-detection parameter table",
            });
        }
        Ok(ParallelDetectionModel {
            table: self.table,
            compiled: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_rbd::reliability::system_failure;
    use hmdiv_rbd::RbdError;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn model() -> ParallelDetectionModel {
        ParallelDetectionModel::builder()
            .class("easy", DetectionParams::new(p(0.07), p(0.10), p(0.05)))
            .class("difficult", DetectionParams::new(p(0.41), p(0.60), p(0.30)))
            .build()
            .unwrap()
    }

    fn trial() -> DemandProfile {
        DemandProfile::builder()
            .class("easy", 0.8)
            .class("difficult", 0.2)
            .build()
            .unwrap()
    }

    #[test]
    fn class_failure_matches_equation1() {
        let cp = DetectionParams::new(p(0.41), p(0.6), p(0.3));
        let detect_fail = 0.41 * 0.6;
        let expected = detect_fail + (1.0 - detect_fail) * 0.3;
        assert!((cp.class_failure().value() - expected).abs() < 1e-12);
        assert!((cp.detection_failure().value() - detect_fail).abs() < 1e-12);
    }

    #[test]
    fn class_failure_agrees_with_rbd_evaluation() {
        // The closed form must equal the Fig. 2 diagram evaluated with the
        // same probabilities — the model *is* that RBD.
        let cp = DetectionParams::new(p(0.41), p(0.6), p(0.3));
        let diagram = ParallelDetectionModel::fig2_diagram();
        let via_rbd = system_failure(&diagram, |name| -> Result<Probability, RbdError> {
            Ok(match name {
                "Mdetect" => cp.p_mf,
                "Hdetect" => cp.p_h_miss,
                "Hclassify" => cp.p_h_misclass,
                other => return Err(RbdError::UnknownComponent { name: other.into() }),
            })
        })
        .unwrap();
        assert!((via_rbd.value() - cp.class_failure().value()).abs() < 1e-12);
    }

    #[test]
    fn equation3_decomposition_reconciles() {
        let m = model();
        let cov = m.detection_covariance(&trial()).unwrap();
        assert!(
            (cov.detection_failure.value() - (cov.independent_product + cov.covariance)).abs()
                < 1e-12
        );
        // Shared difficulty → positive covariance → redundancy worth less.
        assert!(cov.covariance > 0.0);
        assert!(cov.detection_failure.value() > cov.independent_product);
    }

    #[test]
    fn diverse_machine_gives_negative_covariance() {
        // A machine tuned to be good exactly on the humanly-difficult cases.
        let m = ParallelDetectionModel::builder()
            .class("easy", DetectionParams::new(p(0.41), p(0.10), p(0.05)))
            .class("difficult", DetectionParams::new(p(0.07), p(0.60), p(0.30)))
            .build()
            .unwrap();
        let cov = m.detection_covariance(&trial()).unwrap();
        assert!(cov.covariance < 0.0);
        assert!(cov.detection_failure.value() < cov.independent_product);
    }

    #[test]
    fn system_failure_aggregates_classes() {
        let m = model();
        let expected = 0.8 * m.class_failure(&ClassId::new("easy")).unwrap().value()
            + 0.2 * m.class_failure(&ClassId::new("difficult")).unwrap().value();
        assert!((m.system_failure(&trial()).unwrap().value() - expected).abs() < 1e-12);
    }

    #[test]
    fn missing_class_errors() {
        let m = model();
        let profile = DemandProfile::builder().class("odd", 1.0).build().unwrap();
        // Compiled-layer resolution reports the unified UnknownClass…
        assert!(matches!(
            m.system_failure(&profile),
            Err(ModelError::UnknownClass { .. })
        ));
        // …while direct table lookups keep MissingClass.
        assert!(matches!(
            m.detection_covariance(&profile),
            Err(ModelError::MissingClass { .. })
        ));
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            ParallelDetectionModel::builder().build(),
            Err(ModelError::Empty { .. })
        ));
        let dp = DetectionParams::new(p(0.1), p(0.1), p(0.1));
        assert!(matches!(
            ParallelDetectionModel::builder()
                .class("a", dp)
                .class("a", dp)
                .build(),
            Err(ModelError::DuplicateClass { .. })
        ));
    }

    #[test]
    fn zero_misclassification_reduces_to_pure_detection() {
        let cp = DetectionParams::new(p(0.2), p(0.5), Probability::ZERO);
        assert!((cp.class_failure().value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn display_lists_classes() {
        assert!(model().to_string().contains("difficult"));
    }
}
