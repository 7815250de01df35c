//! # hmdiv — human–machine diversity in computerised advisory systems
//!
//! A Rust reproduction of *Strigini, Povyakalo & Alberdi, "Human-machine
//! diversity in the use of computerised advisory systems: a case study"*
//! (DSN 2003): clear-box reliability modelling of a human expert assisted by
//! a computer-aided detection tool (CADT), treated as a fault-tolerant,
//! diverse-redundant system.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`prob`] — probability & statistics substrate.
//! * [`rbd`] — reliability block diagrams, importance measures,
//!   difficulty-function diversity models.
//! * [`core`] — the paper's models: sequential and parallel-detection,
//!   coherence index `t(x)`, covariance decomposition, trial→field
//!   extrapolation, design exploration, FN/FP trade-offs, multi-reader
//!   configurations.
//! * [`sim`] — a stochastic screening simulator (cases, CADT, behavioural
//!   reader, protocols, Monte-Carlo engine).
//! * [`trial`] — trial designs, stratified estimation, extrapolation
//!   validation.
//! * [`obs`] — zero-dependency metrics and span tracing (off by default;
//!   enable with `HMDIV_OBS=1` or [`obs::set_enabled`]).
//! * [`serve`] — a zero-dependency evaluation server: JSON-lines over
//!   TCP, a content-hash-addressed model registry, and readiness pollers
//!   that answer each request to completion with bit-identical results.
//! * [`fleet`] — a replicated sharded serving tier over `serve`:
//!   content-id registry sync between replicas, a consistent-hash front
//!   router, and health-checked failover with sync-gated re-admission.
//! * [`analyze`] — static analysis of compiled artifacts: a postfix
//!   bytecode verifier, an interval abstract interpreter bounding system
//!   reliability, and parameter-domain diagnostics with stable `HM0xx`
//!   codes; the admission gate behind `serve`'s registry and `repro check`.
//!
//! ## Quickstart
//!
//! Reproduce the paper's §5 headline numbers:
//!
//! ```
//! use hmdiv::core::{
//!     paper, DemandProfile, SequentialModel,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model: SequentialModel = paper::example_model()?;
//! let trial: DemandProfile = paper::trial_profile()?;
//! let field: DemandProfile = paper::field_profile()?;
//! // Table 2: P(system failure) = 0.235 in the trial, 0.189 in the field.
//! assert!((model.system_failure(&trial)?.value() - 0.23524).abs() < 1e-9);
//! assert!((model.system_failure(&field)?.value() - 0.18902).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub use hmdiv_analyze as analyze;
pub use hmdiv_core as core;
pub use hmdiv_fleet as fleet;
pub use hmdiv_obs as obs;
pub use hmdiv_prob as prob;
pub use hmdiv_rbd as rbd;
pub use hmdiv_serve as serve;
pub use hmdiv_sim as sim;
pub use hmdiv_trial as trial;
