//! Interval propagation: worst/best-case system predictions from parameter
//! intervals.
//!
//! The trial harness produces a confidence interval for every per-class
//! parameter. Eq. (8) is monotone in each parameter separately —
//! *increasing* in `PHf|Ms(x)` and `PHf|Mf(x)`, and increasing in `PMf(x)`
//! exactly when `t(x) ≥ 0` — so the extreme system failure probabilities
//! over the parameter box are attained at corner points that can be chosen
//! per class in closed form. This gives guaranteed (conservative) bounds
//! without Monte-Carlo, the deterministic counterpart of
//! [`crate::uncertainty::propagate`].

use hmdiv_prob::Probability;

use crate::{ClassId, ClassParams, DemandProfile, ModelError, ModelParams, SequentialModel};

/// An interval `[lo, hi]` for each parameter of one class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassParamBox {
    /// Bounds on `PMf(x)`.
    pub p_mf: (Probability, Probability),
    /// Bounds on `PHf|Ms(x)`.
    pub p_hf_given_ms: (Probability, Probability),
    /// Bounds on `PHf|Mf(x)`.
    pub p_hf_given_mf: (Probability, Probability),
}

impl ClassParamBox {
    /// A degenerate box containing exactly one parameter triple.
    #[must_use]
    pub fn point(params: &ClassParams) -> Self {
        ClassParamBox {
            p_mf: (params.p_mf(), params.p_mf()),
            p_hf_given_ms: (params.p_hf_given_ms(), params.p_hf_given_ms()),
            p_hf_given_mf: (params.p_hf_given_mf(), params.p_hf_given_mf()),
        }
    }

    /// Validates that every interval is ordered.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFactor`] if any `lo > hi`.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (lo, hi, name) in [
            (self.p_mf.0, self.p_mf.1, "PMf interval"),
            (
                self.p_hf_given_ms.0,
                self.p_hf_given_ms.1,
                "PHf|Ms interval",
            ),
            (
                self.p_hf_given_mf.0,
                self.p_hf_given_mf.1,
                "PHf|Mf interval",
            ),
        ] {
            if lo > hi {
                return Err(ModelError::InvalidFactor {
                    value: lo.value(),
                    context: name,
                });
            }
        }
        Ok(())
    }

    /// The class failure probability maximised over the box.
    ///
    /// The conditionals take their upper bounds. For `PMf`, both of its
    /// endpoints are tried (the sign of `t` at the chosen conditionals
    /// decides which is worse, and trying both is exact either way).
    #[must_use]
    pub fn worst_class_failure(&self) -> Probability {
        let candidates = [
            ClassParams::new(self.p_mf.0, self.p_hf_given_ms.1, self.p_hf_given_mf.1),
            ClassParams::new(self.p_mf.1, self.p_hf_given_ms.1, self.p_hf_given_mf.1),
        ];
        candidates
            .iter()
            .map(ClassParams::class_failure)
            .max_by(|a, b| a.value().total_cmp(&b.value()))
            .expect("non-empty")
    }

    /// The class failure probability minimised over the box.
    #[must_use]
    pub fn best_class_failure(&self) -> Probability {
        let candidates = [
            ClassParams::new(self.p_mf.0, self.p_hf_given_ms.0, self.p_hf_given_mf.0),
            ClassParams::new(self.p_mf.1, self.p_hf_given_ms.0, self.p_hf_given_mf.0),
        ];
        candidates
            .iter()
            .map(ClassParams::class_failure)
            .min_by(|a, b| a.value().total_cmp(&b.value()))
            .expect("non-empty")
    }
}

/// A model with interval-valued parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalModel {
    boxes: std::collections::BTreeMap<ClassId, ClassParamBox>,
}

impl IntervalModel {
    /// An empty interval model; add classes with
    /// [`IntervalModel::with_class`].
    #[must_use]
    pub fn new() -> Self {
        IntervalModel::default()
    }

    /// Adds (or replaces) a class's parameter box.
    ///
    /// # Errors
    ///
    /// Box validation errors.
    pub fn with_class(
        mut self,
        class: impl Into<ClassId>,
        param_box: ClassParamBox,
    ) -> Result<Self, ModelError> {
        param_box.validate()?;
        self.boxes.insert(class.into(), param_box);
        Ok(self)
    }

    /// Builds the degenerate interval model around a point model.
    #[must_use]
    pub fn from_point(model: &SequentialModel) -> Self {
        let boxes = model
            .params()
            .iter()
            .map(|(c, p)| (c.clone(), ClassParamBox::point(p)))
            .collect();
        IntervalModel { boxes }
    }

    /// Number of classes with boxes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether no class has a box.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Guaranteed bounds `[best, worst]` on the system failure probability
    /// over a profile: each class contributes its own extreme (the
    /// profile-weighted sum separates over classes, so per-class extremes
    /// are globally extreme).
    ///
    /// # Errors
    ///
    /// [`ModelError::MissingClass`] if the profile mentions a class without
    /// a box.
    ///
    /// # Example
    ///
    /// ```
    /// use hmdiv_core::interval::IntervalModel;
    /// use hmdiv_core::paper;
    ///
    /// # fn main() -> Result<(), hmdiv_core::ModelError> {
    /// // A degenerate box around the paper's model gives a zero-width bound.
    /// let im = IntervalModel::from_point(&paper::example_model()?);
    /// let field = paper::field_profile()?;
    /// let (lo, hi) = im.system_failure_bounds(&field)?;
    /// assert!((lo.value() - 0.18902).abs() < 1e-9);
    /// assert_eq!(lo, hi);
    /// # Ok(())
    /// # }
    /// ```
    pub fn system_failure_bounds(
        &self,
        profile: &DemandProfile,
    ) -> Result<(Probability, Probability), ModelError> {
        let mut best = 0.0;
        let mut worst = 0.0;
        for (class, weight) in profile.iter() {
            let pbox = self
                .boxes
                .get(class)
                .ok_or_else(|| ModelError::MissingClass {
                    class: class.clone(),
                })?;
            best += weight.value() * pbox.best_class_failure().value();
            worst += weight.value() * pbox.worst_class_failure().value();
        }
        Ok((Probability::clamped(best), Probability::clamped(worst)))
    }

    /// The midpoint model (each parameter at its interval midpoint).
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] if the interval model has no classes.
    pub fn midpoint_model(&self) -> Result<SequentialModel, ModelError> {
        if self.boxes.is_empty() {
            return Err(ModelError::Empty {
                context: "interval model",
            });
        }
        let mid = |(lo, hi): (Probability, Probability)| {
            Probability::clamped((lo.value() + hi.value()) / 2.0)
        };
        let mut builder = ModelParams::builder();
        for (class, b) in &self.boxes {
            builder = builder.class(
                class.clone(),
                ClassParams::new(mid(b.p_mf), mid(b.p_hf_given_ms), mid(b.p_hf_given_mf)),
            );
        }
        Ok(SequentialModel::new(builder.build()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn widen(params: &ClassParams, delta: f64) -> ClassParamBox {
        let w = |x: Probability| {
            (
                Probability::clamped(x.value() - delta),
                Probability::clamped(x.value() + delta),
            )
        };
        ClassParamBox {
            p_mf: w(params.p_mf()),
            p_hf_given_ms: w(params.p_hf_given_ms()),
            p_hf_given_mf: w(params.p_hf_given_mf()),
        }
    }

    fn paper_interval(delta: f64) -> IntervalModel {
        let model = paper::example_model().unwrap();
        let mut im = IntervalModel::new();
        for (class, cp) in model.params().iter() {
            im = im.with_class(class.clone(), widen(cp, delta)).unwrap();
        }
        im
    }

    #[test]
    fn degenerate_box_reproduces_point_value() {
        let model = paper::example_model().unwrap();
        let im = IntervalModel::from_point(&model);
        let field = paper::field_profile().unwrap();
        let (lo, hi) = im.system_failure_bounds(&field).unwrap();
        let point = model.system_failure(&field).unwrap();
        assert!((lo.value() - point.value()).abs() < 1e-12);
        assert!((hi.value() - point.value()).abs() < 1e-12);
    }

    #[test]
    fn bounds_bracket_point_and_widen_with_delta() {
        let field = paper::field_profile().unwrap();
        let point = paper::example_model()
            .unwrap()
            .system_failure(&field)
            .unwrap()
            .value();
        let narrow = paper_interval(0.01).system_failure_bounds(&field).unwrap();
        let wide = paper_interval(0.05).system_failure_bounds(&field).unwrap();
        assert!(narrow.0.value() <= point && point <= narrow.1.value());
        assert!(wide.0 <= narrow.0 && narrow.1 <= wide.1);
    }

    #[test]
    fn bounds_cover_every_corner_model() {
        // Enumerate all 2^6 corner models of a widened box and check each
        // lies within the computed bounds.
        let delta = 0.03;
        let base = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let im = paper_interval(delta);
        let (lo, hi) = im.system_failure_bounds(&field).unwrap();
        let classes: Vec<_> = base.params().iter().map(|(c, p)| (c.clone(), *p)).collect();
        for corner in 0u32..(1 << (classes.len() * 3)) {
            let mut builder = ModelParams::builder();
            for (ci, (class, cp)) in classes.iter().enumerate() {
                let bit = |k: usize| corner & (1 << (ci * 3 + k)) != 0;
                let adj = |x: Probability, up: bool| {
                    Probability::clamped(x.value() + if up { delta } else { -delta })
                };
                builder = builder.class(
                    class.clone(),
                    ClassParams::new(
                        adj(cp.p_mf(), bit(0)),
                        adj(cp.p_hf_given_ms(), bit(1)),
                        adj(cp.p_hf_given_mf(), bit(2)),
                    ),
                );
            }
            let corner_model = SequentialModel::new(builder.build().unwrap());
            let v = corner_model.system_failure(&field).unwrap();
            assert!(
                lo <= v && v <= hi,
                "corner {corner}: {} not in [{}, {}]",
                v.value(),
                lo.value(),
                hi.value()
            );
        }
    }

    #[test]
    fn negative_t_box_still_bounded_correctly() {
        // A class whose t can be negative inside the box: both PMf endpoints
        // must be tried, and the test checks a negative-slope corner is
        // covered.
        let b = ClassParamBox {
            p_mf: (p(0.1), p(0.9)),
            p_hf_given_ms: (p(0.5), p(0.6)),
            p_hf_given_mf: (p(0.2), p(0.3)),
        };
        // Worst conditional corner: hf_ms=0.6, hf_mf=0.3 → t = −0.3, so the
        // worst PMf is its LOWER bound.
        let worst = b.worst_class_failure().value();
        let manual = ClassParams::new(p(0.1), p(0.6), p(0.3))
            .class_failure()
            .value();
        assert!((worst - manual).abs() < 1e-12, "{worst} vs {manual}");
        let best = b.best_class_failure().value();
        let manual_best = ClassParams::new(p(0.9), p(0.5), p(0.2))
            .class_failure()
            .value();
        assert!((best - manual_best).abs() < 1e-12);
        assert!(best < worst);
    }

    #[test]
    fn midpoint_model_and_validation() {
        let im = paper_interval(0.02);
        let mid = im.midpoint_model().unwrap();
        // Midpoint of a symmetric box is the original model.
        let field = paper::field_profile().unwrap();
        assert!((mid.system_failure(&field).unwrap().value() - 0.18902).abs() < 1e-9);
        assert!(IntervalModel::new().midpoint_model().is_err());
        let bad = ClassParamBox {
            p_mf: (p(0.5), p(0.4)),
            p_hf_given_ms: (p(0.1), p(0.2)),
            p_hf_given_mf: (p(0.1), p(0.2)),
        };
        assert!(IntervalModel::new().with_class("x", bad).is_err());
        let missing = DemandProfile::builder()
            .class("ghost", 1.0)
            .build()
            .unwrap();
        assert!(im.system_failure_bounds(&missing).is_err());
    }
}
