//! `hmdiv-serve`: a zero-dependency evaluation server for the hmdiv
//! model stack.
//!
//! The paper's models are cheap to evaluate one at a time but are used in
//! bulk — design sweeps, cohort studies, what-if grids. This crate turns
//! the workspace into a long-running service without adding a single
//! external dependency: an event-driven TCP server over [`std::net`]
//! speaking a JSON-lines protocol — a small fixed pool of readiness
//! pollers multiplexing [`conn::LineConn`]s, nonblocking line sockets,
//! as per-connection state machines — and a content-hash-addressed
//! [`Registry`] of loaded
//! models with pre-warmed compiled forms and disk snapshots
//! (`save`/`restore` verbs; restarted servers warm-start under identical
//! content ids). Each poller answers the requests it frames on its own
//! thread, in order, running each evaluation to completion on the
//! compiled kernel; a large sweep fans out on the deterministic parallel
//! executor. Admission is bounded by evaluation *cost* rather than
//! request count.
//!
//! Results are **bit-identical** to direct in-process evaluation: the
//! order-preserving [`json`] object model keeps profile binding order,
//! `f64` values render in shortest round-trip form, and the parallel
//! entry points are thread-count-invariant.
//!
//! Robustness is first-class: per-request deadlines, a bound on the cost
//! of evaluations in progress with an explicit `overloaded` rejection
//! beyond it, typed wire errors for every model-layer failure, and
//! graceful shutdown that answers every request already read.
//!
//! Observability is too: with [`ServerConfig::trace_capacity`] set, every
//! request is traced through the read → parse → queue → batch → eval →
//! serialize → write pipeline into a `hmdiv_obs` flight-recorder ring,
//! drained by the `trace` verb and dumped automatically on shed events.
//! Clients may supply a `trace_id` wire field (echoed on every response;
//! see [`TracedResponse`]) to correlate their calls with
//! server-side records. Tracing is a pure observer — replies stay
//! bit-identical with it on or off.
//!
//! # Quick start
//!
//! ```
//! use hmdiv_serve::{Client, Json, Server, ServerConfig};
//!
//! # fn main() -> Result<(), hmdiv_serve::ServeError> {
//! let server = Server::start(ServerConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//!
//! let loaded = client.request(
//!     "load",
//!     vec![(
//!         "classes".into(),
//!         hmdiv_serve::json::parse(
//!             r#"{"easy":      {"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
//!                 "difficult": {"p_mf":0.41,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}"#,
//!         )
//!         .expect("static JSON"),
//!     )],
//! )?;
//! let model_id = loaded.get("model_id").and_then(Json::as_str).unwrap().to_owned();
//!
//! let result = client.request(
//!     "evaluate",
//!     vec![
//!         ("model".into(), Json::str(model_id)),
//!         (
//!             "profile".into(),
//!             hmdiv_serve::json::parse(r#"{"easy":0.9,"difficult":0.1}"#).expect("static JSON"),
//!         ),
//!     ],
//! )?;
//! let failure = result.get("failure").and_then(Json::as_f64).unwrap();
//! assert!((failure - 0.18902).abs() < 1e-9); // the paper's field estimate
//!
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod admission;
pub mod client;
pub mod conn;
pub mod error;
pub mod json;
pub mod loadgen;
mod poller;
pub mod protocol;
// The workspace denies `unsafe_code`; this module's one `poll(2)` call is
// the single exception.
#[allow(unsafe_code)]
pub mod readiness;
pub mod registry;
pub mod server;
pub mod shutdown;

pub use client::{Client, RetryPolicy};
pub use error::ServeError;
pub use json::Json;
pub use loadgen::{LoadgenConfig, LoadgenReport, TargetSplit};
pub use protocol::TracedResponse;
pub use registry::{Artifact, ArtifactRow, LoadReceipt, Registry};
pub use server::{Server, ServerConfig};
pub use shutdown::ShutdownSignal;
