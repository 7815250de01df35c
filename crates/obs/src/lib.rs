//! Zero-dependency observability for the `hmdiv` workspace.
//!
//! The dependability literature this workspace reproduces is explicit that
//! claims need *measured*, per-class evidence; this crate makes the runtime
//! practice what the models preach. It provides, using only `std`:
//!
//! * [`registry`] — a thread-safe registry of named metrics: monotonic
//!   counters, last-value gauges, and fixed-bucket duration histograms, all
//!   backed by atomics so recording never blocks recording.
//! * [`mod@span`] — RAII timers over the monotonic clock
//!   ([`std::time::Instant`]); dropping a [`Span`] records its elapsed time
//!   into a duration histogram.
//! * [`sink`] — [`MetricSink`], a plain-data per-worker accumulator designed
//!   to ride the deterministic parallel fold of `hmdiv_prob::par`
//!   (`hmdiv-prob` implements its `Merge` trait for [`MetricSink`], since
//!   this crate sits *below* `hmdiv-prob` in the dependency graph). Workers
//!   tally into private sinks; the in-order merge concatenates per-worker
//!   stats and sums counters, so instrumentation adds no shared mutable
//!   state and cannot perturb `(seed, task-id)` RNG streams.
//! * [`export`] — Prometheus text exposition and a JSON snapshot, both
//!   rendered from an immutable [`Snapshot`] with deterministic key order,
//!   including p50/p95/p99 summaries estimated from the fixed buckets.
//! * [`trace`] — request-lifecycle tracing: [`TraceId`]s minted per
//!   request, per-stage span stamps with parent links ([`StageSet`]), and
//!   the [`FlightRecorder`] ring buffer of completed-request records that
//!   the serving layer drains for postmortems.
//!
//! # Enabling
//!
//! Metrics are **off by default**: every recording entry point first checks
//! a single relaxed atomic ([`enabled`]), so the disabled path costs one
//! load and a branch *per batch operation* (never per sample). Enable with:
//!
//! * the `HMDIV_OBS` environment variable — `1`/`on`/`true`/`all` enables
//!   everything, a comma-separated list (`HMDIV_OBS=sim,rbd.mc`) enables
//!   only metrics whose dotted name starts with one of the prefixes, and
//!   `0`/`off`/`false` (or unset) disables; or
//! * programmatically via [`set_enabled`] (used by `repro --metrics`).
//!
//! # Example
//!
//! ```
//! hmdiv_obs::set_enabled(true);
//! hmdiv_obs::counter_add("demo.cases", 120);
//! hmdiv_obs::gauge_set("demo.cases_per_sec", 4.0e6);
//! {
//!     let _span = hmdiv_obs::span("demo.phase");
//!     // ... timed work ...
//! }
//! let snap = hmdiv_obs::snapshot();
//! assert_eq!(snap.counters["demo.cases"], 120);
//! assert_eq!(snap.histograms["demo.phase"].count, 1);
//! println!("{}", hmdiv_obs::export::to_json(&snap));
//! ```

pub mod export;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

pub use registry::{HistogramSnapshot, HistogramUnit, Registry, Snapshot};
pub use sink::{MetricSink, WorkerStat};
pub use span::{span, Span};
pub use trace::{FlightRecorder, RequestRecord, Stage, StageSet, TraceId, TraceOutcome};

/// Tri-state enable flag: 0 = uninitialised (consult `HMDIV_OBS` on first
/// use), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Prefix filter parsed from `HMDIV_OBS` (empty = no filtering).
static FILTER: OnceLock<Vec<String>> = OnceLock::new();

/// The process-wide default registry.
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide default [`Registry`] that the convenience functions and
/// the instrumented library paths record into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Parses an `HMDIV_OBS` value into (enabled, prefix filter).
fn parse_env(value: Option<&str>) -> (bool, Vec<String>) {
    match value.map(str::trim) {
        None | Some("") | Some("0") | Some("off") | Some("false") => (false, Vec::new()),
        Some("1") | Some("on") | Some("true") | Some("all") => (true, Vec::new()),
        Some(list) => (
            true,
            list.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(str::to_owned)
                .collect(),
        ),
    }
}

fn init_from_env() -> bool {
    let env = std::env::var("HMDIV_OBS").ok();
    let (on, filter) = parse_env(env.as_deref());
    let _ = FILTER.set(filter);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Whether observability is globally enabled. The first call consults the
/// `HMDIV_OBS` environment variable; later calls are a single relaxed load.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => false,
        _ => true,
    }
}

/// Enables or disables observability programmatically, overriding the
/// environment default. Any `HMDIV_OBS` prefix filter stays in force.
pub fn set_enabled(on: bool) {
    if ENABLED.load(Ordering::Relaxed) == 0 {
        // Latch the env filter first so a later `enabled()` cannot clobber
        // this explicit choice.
        init_from_env();
    }
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether a metric with this dotted `name` should be recorded: requires
/// [`enabled`] and, when `HMDIV_OBS` named prefixes, a matching prefix.
pub fn enabled_for(name: &str) -> bool {
    if !enabled() {
        return false;
    }
    let filter = FILTER.get_or_init(Vec::new);
    filter.is_empty() || filter.iter().any(|p| name.starts_with(p.as_str()))
}

/// Adds `by` to the global counter `name` (no-op while disabled).
pub fn counter_add(name: &str, by: u64) {
    if enabled_for(name) {
        global().counter_add(name, by);
    }
}

/// Sets the global gauge `name` (no-op while disabled).
pub fn gauge_set(name: &str, value: f64) {
    if enabled_for(name) {
        global().gauge_set(name, value);
    }
}

/// Records a duration observation into the global histogram `name` (no-op
/// while disabled).
pub fn observe_ns(name: &str, nanos: u64) {
    if enabled_for(name) {
        global().observe_ns(name, nanos);
    }
}

/// Records a count observation (batch size, queue depth) into the global
/// histogram `name` on the power-of-two ladder (no-op while disabled).
pub fn observe_count(name: &str, value: u64) {
    if enabled_for(name) {
        global().observe_count(name, value);
    }
}

/// Records the elapsed time since `start` into the duration histogram
/// `name` (no-op while disabled). Complements [`span()`] when a timed region
/// begins and ends in different scopes — e.g. a request admitted in one
/// function and completed in another — where an RAII guard has no single
/// owning scope.
pub fn observe_since(name: &str, start: std::time::Instant) {
    if enabled_for(name) {
        global().observe_ns(
            name,
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
}

/// Snapshots the global registry.
#[must_use]
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears every metric in the global registry (counters back to zero,
/// gauges and histograms removed). `repro --metrics` resets between
/// process-level concerns; tests use it for isolation.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_env_recognises_switch_values() {
        for off in [None, Some(""), Some("0"), Some("off"), Some("false")] {
            let (on, filter) = parse_env(off);
            assert!(!on, "{off:?}");
            assert!(filter.is_empty());
        }
        for all in ["1", "on", "true", "all"] {
            let (on, filter) = parse_env(Some(all));
            assert!(on, "{all}");
            assert!(filter.is_empty());
        }
    }

    #[test]
    fn parse_env_builds_prefix_filters() {
        let (on, filter) = parse_env(Some("sim, rbd.mc ,,par"));
        assert!(on);
        assert_eq!(filter, ["sim", "rbd.mc", "par"]);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        set_enabled(false);
        counter_add("test.lib.off", 5);
        assert!(!snapshot().counters.contains_key("test.lib.off"));
        set_enabled(true);
        counter_add("test.lib.on", 5);
        assert_eq!(snapshot().counters["test.lib.on"], 5);
        set_enabled(false);
    }
}
