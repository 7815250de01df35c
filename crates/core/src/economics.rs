//! Screening-programme economics (§7: configurations considered "to improve
//! the cost-effectiveness of screening programmes").
//!
//! Dependability numbers only become decisions when costs attach to them.
//! This module prices a screening configuration per case screened:
//! reading labour (per reader, plus arbitration when used), recall workup
//! for every recalled patient, and the (dominant) cost of a missed cancer.
//! Combined with the FN/FP rates from the analytic team models or the
//! simulator, it ranks configurations the way a programme board would.

use hmdiv_prob::Probability;

use crate::ModelError;

/// Unit costs of a screening programme, in arbitrary consistent units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one reader reading one case.
    pub reading_cost: f64,
    /// Cost of an arbitration review (only on disagreements).
    pub arbitration_cost: f64,
    /// Cost of recalling one patient for workup (imaging, biopsy, anxiety).
    pub recall_cost: f64,
    /// Cost of missing one cancer (delayed treatment, litigation, lives).
    pub missed_cancer_cost: f64,
    /// Per-case cost of running the CADT (licence, compute, digitisation).
    pub cadt_cost: f64,
}

impl CostModel {
    /// Validates that all costs are finite and non-negative.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFactor`] naming the offending cost.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (value, name) in [
            (self.reading_cost, "reading cost"),
            (self.arbitration_cost, "arbitration cost"),
            (self.recall_cost, "recall cost"),
            (self.missed_cancer_cost, "missed-cancer cost"),
            (self.cadt_cost, "CADT cost"),
        ] {
            if value.is_nan() || value < 0.0 || value.is_infinite() {
                return Err(ModelError::InvalidFactor {
                    value,
                    context: name,
                });
            }
        }
        Ok(())
    }
}

/// The operational profile of one configuration, as rates per case screened.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigurationProfile {
    /// Configuration label.
    pub name: String,
    /// Number of readers reading every case.
    pub readers: usize,
    /// Whether a CADT processes every case.
    pub uses_cadt: bool,
    /// Expected fraction of cases needing arbitration (0 without it).
    pub arbitration_rate: f64,
    /// System false-negative probability on cancer cases.
    pub fn_rate: Probability,
    /// System false-positive probability on normal cases.
    pub fp_rate: Probability,
}

/// The priced outcome of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedConfiguration {
    /// Configuration label.
    pub name: String,
    /// Expected cost per case screened.
    pub cost_per_case: f64,
    /// Expected missed cancers per 100,000 cases screened.
    pub missed_per_100k: f64,
    /// Expected recalls per 100,000 cases screened.
    pub recalls_per_100k: f64,
}

/// Prices each configuration under the cost model and cancer prevalence,
/// returning them ranked by expected cost per case (cheapest first; ties by
/// name).
///
/// # Errors
///
/// * Cost-model validation errors.
/// * [`ModelError::InvalidFactor`] for prevalence or arbitration rates
///   outside `[0, 1]`.
/// * [`ModelError::Empty`] if no configurations are given.
///
/// # Example
///
/// ```
/// use hmdiv_core::economics::{price_configurations, ConfigurationProfile, CostModel};
/// use hmdiv_prob::Probability;
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let p = |v| Probability::new(v).unwrap();
/// let costs = CostModel {
///     reading_cost: 10.0,
///     arbitration_cost: 15.0,
///     recall_cost: 200.0,
///     missed_cancer_cost: 100_000.0,
///     cadt_cost: 2.0,
/// };
/// let configs = vec![ConfigurationProfile {
///     name: "single + CADT".into(),
///     readers: 1,
///     uses_cadt: true,
///     arbitration_rate: 0.0,
///     fn_rate: p(0.19),
///     fp_rate: p(0.06),
/// }];
/// let priced = price_configurations(&costs, p(0.008), &configs)?;
/// assert!(priced[0].cost_per_case > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn price_configurations(
    costs: &CostModel,
    prevalence: Probability,
    configurations: &[ConfigurationProfile],
) -> Result<Vec<PricedConfiguration>, ModelError> {
    costs.validate()?;
    if configurations.is_empty() {
        return Err(ModelError::Empty {
            context: "configuration list",
        });
    }
    let prev = prevalence.value();
    let mut out = Vec::with_capacity(configurations.len());
    for config in configurations {
        if config.arbitration_rate.is_nan() || !(0.0..=1.0).contains(&config.arbitration_rate) {
            return Err(ModelError::InvalidFactor {
                value: config.arbitration_rate,
                context: "arbitration rate",
            });
        }
        let p_recall =
            prev * (1.0 - config.fn_rate.value()) + (1.0 - prev) * config.fp_rate.value();
        let p_miss = prev * config.fn_rate.value();
        let cost_per_case = config.readers as f64 * costs.reading_cost
            + f64::from(u8::from(config.uses_cadt)) * costs.cadt_cost
            + config.arbitration_rate * costs.arbitration_cost
            + p_recall * costs.recall_cost
            + p_miss * costs.missed_cancer_cost;
        out.push(PricedConfiguration {
            name: config.name.clone(),
            cost_per_case,
            missed_per_100k: p_miss * 100_000.0,
            recalls_per_100k: p_recall * 100_000.0,
        });
    }
    out.sort_by(|a, b| {
        a.cost_per_case
            .total_cmp(&b.cost_per_case)
            .then_with(|| a.name.cmp(&b.name))
    });
    Ok(out)
}

/// The incremental cost-effectiveness ratio between two priced
/// configurations: extra cost per case divided by missed cancers avoided
/// per case. `None` when they avoid the same number of misses (the ratio
/// is undefined; the cheaper one simply dominates).
#[must_use]
pub fn icer(cheaper: &PricedConfiguration, better: &PricedConfiguration) -> Option<f64> {
    let miss_reduction = (cheaper.missed_per_100k - better.missed_per_100k) / 100_000.0;
    if miss_reduction.abs() < f64::EPSILON {
        return None;
    }
    Some((better.cost_per_case - cheaper.cost_per_case) / miss_reduction)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn costs() -> CostModel {
        CostModel {
            reading_cost: 10.0,
            arbitration_cost: 15.0,
            recall_cost: 200.0,
            missed_cancer_cost: 100_000.0,
            cadt_cost: 2.0,
        }
    }

    fn configs() -> Vec<ConfigurationProfile> {
        vec![
            ConfigurationProfile {
                name: "single unaided".into(),
                readers: 1,
                uses_cadt: false,
                arbitration_rate: 0.0,
                fn_rate: p(0.25),
                fp_rate: p(0.04),
            },
            ConfigurationProfile {
                name: "single + CADT".into(),
                readers: 1,
                uses_cadt: true,
                arbitration_rate: 0.0,
                fn_rate: p(0.19),
                fp_rate: p(0.06),
            },
            ConfigurationProfile {
                name: "double + CADT".into(),
                readers: 2,
                uses_cadt: true,
                arbitration_rate: 0.0,
                fn_rate: p(0.06),
                fp_rate: p(0.10),
            },
            ConfigurationProfile {
                name: "double + CADT, arbitrated".into(),
                readers: 2,
                uses_cadt: true,
                arbitration_rate: 0.08,
                fn_rate: p(0.11),
                fp_rate: p(0.05),
            },
        ]
    }

    #[test]
    fn pricing_accounts_for_all_terms() {
        let priced = price_configurations(&costs(), p(0.008), &configs()).unwrap();
        assert_eq!(priced.len(), 4);
        // Hand-price the unaided configuration.
        let unaided = priced.iter().find(|c| c.name == "single unaided").unwrap();
        let p_recall = 0.008 * 0.75 + 0.992 * 0.04;
        let p_miss = 0.008 * 0.25;
        let expected = 10.0 + p_recall * 200.0 + p_miss * 100_000.0;
        assert!((unaided.cost_per_case - expected).abs() < 1e-9);
        assert!((unaided.missed_per_100k - 200.0).abs() < 1e-9);
    }

    #[test]
    fn ranking_is_by_cost() {
        let priced = price_configurations(&costs(), p(0.008), &configs()).unwrap();
        for w in priced.windows(2) {
            assert!(w[0].cost_per_case <= w[1].cost_per_case);
        }
        // With misses this expensive, the high-sensitivity double reading
        // wins despite double labour.
        assert_eq!(priced[0].name, "double + CADT");
    }

    #[test]
    fn cheap_misses_flip_the_ranking() {
        let mut cheap_miss = costs();
        cheap_miss.missed_cancer_cost = 100.0;
        let priced = price_configurations(&cheap_miss, p(0.008), &configs()).unwrap();
        // Now labour and recalls dominate: single reading wins.
        assert!(priced[0].name.starts_with("single"), "{:?}", priced[0].name);
    }

    #[test]
    fn icer_between_configurations() {
        let priced = price_configurations(&costs(), p(0.008), &configs()).unwrap();
        let single = priced.iter().find(|c| c.name == "single + CADT").unwrap();
        let double = priced.iter().find(|c| c.name == "double + CADT").unwrap();
        // double catches more cancers; the ICER is cost per extra catch.
        let ratio = icer(single, double).unwrap();
        assert!(ratio.is_finite());
        // Against itself the ratio is undefined.
        assert!(icer(single, single).is_none());
    }

    #[test]
    fn validation_errors() {
        assert!(price_configurations(&costs(), p(0.008), &[]).is_err());
        let mut bad = costs();
        bad.recall_cost = -1.0;
        assert!(bad.validate().is_err());
        assert!(price_configurations(&bad, p(0.008), &configs()).is_err());
        let mut bad_config = configs();
        bad_config[0].arbitration_rate = 1.5;
        assert!(price_configurations(&costs(), p(0.008), &bad_config).is_err());
    }
}
