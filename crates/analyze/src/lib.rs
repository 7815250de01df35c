//! Static analysis for `hmdiv` compiled models.
//!
//! The workspace evaluates everything through compiled IRs: `hmdiv-rbd`'s
//! postfix structure-function programs and `hmdiv-core`'s dense
//! [`CompiledModel`] parameter slots. This crate
//! verifies those artifacts *before* they are evaluated — catch faults
//! before operation, not during it:
//!
//! * [`verifier`] — a bytecode-style verifier for postfix programs:
//!   stack-depth/arity well-formedness, k-of-n threshold bounds, component
//!   index range checks.
//! * [`interp`] — an interval abstract interpreter that soundly bounds
//!   system reliability from per-component probability intervals, proves
//!   coherence, and flags dead (irrelevant) components via a
//!   Birnbaum-relevance check.
//! * [`params`] — a parameter-domain pass over compiled models, bound
//!   profiles, detection tables and reader cohorts: slots in `[0,1]`, no
//!   NaN/inf, profile normalisation, unreachable class slots, and the sign
//!   of the paper's coherence index `t(x)` per class.
//! * [`sens`] — forward-mode interval algorithmic differentiation:
//!   certified per-slot Birnbaum-derivative bounds and monotonicity
//!   (direction) certificates, for structure functions and for eq. (8)
//!   of the paper.
//! * [`diff`] — differential comparison: [`compare`] pairs two compiled
//!   models slot by slot and returns a certified
//!   dominates/dominated/incomparable verdict with exact gap bounds.
//! * [`diag`] — the shared diagnostics framework: stable `HM0xx` codes,
//!   `error`/`warn`/`info` severities, and human-text + JSON renderers.
//!
//! Analysis is **pure**: no clock, no RNG, no host state. The same
//! artifact always produces the same report, byte for byte — a
//! prerequisite for using verdicts as admission decisions in
//! `hmdiv-serve`'s content-addressed registry.
//!
//! # Example
//!
//! ```
//! use hmdiv_analyze::{analyze_block, Interval};
//! use hmdiv_rbd::{compiled::CompiledBlock, Block};
//!
//! # fn main() -> Result<(), hmdiv_rbd::RbdError> {
//! // Fig. 2 of the paper: (Hd ∥ Md) → Hc.
//! let system = Block::series(vec![
//!     Block::parallel(vec![Block::component("Hd"), Block::component("Md")]),
//!     Block::component("Hc"),
//! ]);
//! let compiled = CompiledBlock::compile(&system)?;
//! // Failure-probability intervals in interned order (Hc, Hd, Md).
//! let analysis = analyze_block(
//!     &compiled,
//!     &[
//!         Interval::new(0.04, 0.06),
//!         Interval::new(0.15, 0.25),
//!         Interval::new(0.05, 0.10),
//!     ],
//! );
//! let bounds = analysis.bounds.expect("program verifies");
//! assert!(bounds.lo <= bounds.hi);
//! assert!(analysis.dead.is_empty());
//! assert!(!analysis.report.has_errors());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
// House rule: interval endpoints and gap bounds are compared with
// explicit tolerances, `total_cmp`, or `to_bits` — never `==`/`!=`.
#![deny(clippy::float_cmp)]

pub mod diag;
pub mod diff;
pub mod interp;
pub mod params;
pub mod sens;
pub mod verifier;

pub use diag::{codes, CodeSpec, Diagnostic, Report, Severity};
pub use diff::{compare, ClassGap, Comparison, Dominance};
pub use interp::{analyze_block, Interval, StructureAnalysis};
pub use sens::{
    model_sensitivity, structure_sensitivity, ClassSensitivity, Direction, ModelSensitivity,
    SensitivityAnalysis, SlotSensitivity,
};
pub use verifier::{verify, PostfixOp, PostfixProgram};

use hmdiv_core::cohort::ReaderCohort;
use hmdiv_core::{CompiledDetectionModel, CompiledModel, CompiledProfile, SequentialModel};

/// Analyzes a compiled sequential model, optionally together with a bound
/// profile. This is the check the `hmdiv-serve` registry runs at `load`.
#[must_use]
pub fn analyze_model(model: &CompiledModel, profile: Option<&CompiledProfile>) -> Report {
    let mut report = params::check_model(model);
    if let Some(profile) = profile {
        report.merge(params::check_profile(model.universe(), profile));
    }
    report
}

/// Analyzes a sequential model through its lazily-compiled dense form.
#[must_use]
pub fn analyze_sequential(model: &SequentialModel) -> Report {
    analyze_model(model.compiled(), None)
}

/// Analyzes a compiled parallel-detection model.
#[must_use]
pub fn analyze_detection(model: &CompiledDetectionModel) -> Report {
    params::check_detection(model)
}

/// Analyzes a reader cohort: member weights, cross-member universe
/// agreement, and each member's parameter slots.
#[must_use]
pub fn analyze_cohort(cohort: &ReaderCohort) -> Report {
    params::check_cohort(cohort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_core::paper;

    #[test]
    fn paper_artifacts_analyze_clean_of_errors() {
        let model = paper::example_model().unwrap();
        assert!(!analyze_sequential(&model).has_errors());
        let profile = paper::field_profile().unwrap();
        let bound = model.compiled().bind_profile(&profile).unwrap();
        let report = analyze_model(model.compiled(), Some(&bound));
        assert!(!report.has_errors(), "{}", report.render_text());
    }
}
