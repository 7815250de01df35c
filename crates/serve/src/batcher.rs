//! The micro-batching executor: coalesces concurrent evaluation requests
//! into dense batch calls.
//!
//! Connection threads [`submit`](Batcher::submit) work into a **bounded**
//! queue and block on a [`Ticket`]; a single worker thread drains the
//! whole queue each wakeup and groups what it found:
//!
//! * profile evaluations against the same compiled model become one
//!   [`CompiledModel::evaluate_profiles_par`] call;
//! * scenario batches against the same model *and* profile become one
//!   [`CompiledModel::evaluate_bound_scenarios`] call over their bound
//!   sweeps, concatenated as flat arrays;
//! * everything else ([`Work::Direct`]) runs inline.
//!
//! Under light load a request flows through alone (batch of one); under
//! concurrent load batches form naturally from whatever queued while the
//! previous flush ran — no timers, no added latency floor.
//!
//! **Bit-identity:** each profile/scenario is evaluated independently and
//! the `_par` entry points are thread-count-invariant, so a batched result
//! is bit-for-bit the result a direct in-process call would produce. A
//! grouped scenario call that fails is re-run per job sequentially so each
//! ticket gets *its own* typed error, not its neighbour's.
//!
//! **Backpressure:** admission is **cost-based** — each job declares how
//! many scalar evaluations it expands to (one per profile, one per
//! scenario, cohort-member count for cohort work), and
//! [`submit`](Batcher::submit) fails fast with [`ServeError::Overloaded`]
//! once the queued cost would exceed capacity. One bulk request can no
//! longer monopolize a flush window while counting as a single queue slot;
//! memory stays flat under overload and the client learns to back off.
//!
//! **Wakeable tickets:** a [`Ticket`] can be waited on (blocking, for the
//! client library and tests) or polled with [`try_take`](Ticket::try_take)
//! by the event-driven connection poller; an optional [`Waker`] supplied
//! at submit time fires when the reply lands, so a poller thread sleeps
//! instead of spinning.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hmdiv_core::{CompiledModel, CompiledProfile, CompiledScenarios};
use hmdiv_obs::{Stage, StageSet};
use hmdiv_prob::Probability;

use crate::error::ServeError;
use crate::json::Json;

/// A unit of work submitted to the executor.
pub enum Work {
    /// Evaluate eq. (8) for one bound profile — batchable per model.
    Profile {
        /// The compiled model (grouped by `Arc` identity).
        model: Arc<CompiledModel>,
        /// The bound profile to evaluate.
        profile: CompiledProfile,
    },
    /// Evaluate a batch of what-if scenarios — batchable per
    /// (model, profile) pair.
    Scenarios {
        /// The compiled model (grouped by `Arc` identity).
        model: Arc<CompiledModel>,
        /// The bound profile the scenarios are judged against.
        profile: CompiledProfile,
        /// The scenarios to evaluate, in order, bound to `model`.
        scenarios: CompiledScenarios,
    },
    /// Arbitrary work that runs inline on the executor thread (importance
    /// rankings, cohort evaluations, detection-model evaluations).
    Direct(Box<dyn FnOnce() -> Result<Outcome, ServeError> + Send>),
}

impl std::fmt::Debug for Work {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Work::Profile { .. } => f.write_str("Work::Profile"),
            Work::Scenarios { scenarios, .. } => {
                write!(f, "Work::Scenarios({})", scenarios.len())
            }
            Work::Direct(_) => f.write_str("Work::Direct"),
        }
    }
}

/// What a completed unit of work yields.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A single failure probability.
    One(Probability),
    /// One failure probability per scenario, in submission order.
    Many(Vec<Probability>),
    /// A pre-rendered JSON result (from [`Work::Direct`]).
    Value(Json),
}

type Reply = Result<Outcome, ServeError>;

/// A callback fired when a reply lands in its slot — the event-driven
/// poller registers one so a sleeping readiness thread learns that a
/// connection it owns has work to write, without polling every ticket.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// The write-once reply cell a [`Ticket`] and its [`ReplyHandle`] share.
struct ReplySlot {
    state: Mutex<SlotState>,
    bell: Condvar,
}

struct SlotState {
    reply: Option<Reply>,
    /// Set the first time the slot is filled and never cleared — a waiter
    /// taking the reply must not reopen the slot for a late
    /// `ShuttingDown` overwrite from the handle's drop.
    filled: bool,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            state: Mutex::new(SlotState {
                reply: None,
                filled: false,
            }),
            bell: Condvar::new(),
        })
    }

    /// First fill wins; returns whether this call was it.
    fn fill(&self, result: Reply) -> bool {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.filled {
            return false;
        }
        st.filled = true;
        st.reply = Some(result);
        drop(st);
        self.bell.notify_all();
        true
    }
}

/// A claim on a submitted unit of work.
pub struct Ticket {
    slot: Arc<ReplySlot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the executor replies.
    ///
    /// # Errors
    ///
    /// Whatever the work produced; [`ServeError::ShuttingDown`] if the
    /// executor stopped before replying.
    pub fn wait(self) -> Reply {
        let mut st = self
            .slot
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(reply) = st.reply.take() {
                return reply;
            }
            st = self
                .slot
                .bell
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Takes the reply if it has landed, without blocking — the poller's
    /// entry point. Returns `None` while the work is still in flight.
    pub fn try_take(&self) -> Option<Reply> {
        self.slot
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .reply
            .take()
    }
}

/// The reply half of a queued job, plus the request's stage stamps when
/// the connection admitted it with tracing on. Dropping an unfilled
/// handle (worker panic, drain race) delivers `ShuttingDown` so no ticket
/// waits forever.
struct ReplyHandle {
    enqueued: Instant,
    trace: Option<Arc<StageSet>>,
    slot: Arc<ReplySlot>,
    waker: Option<Waker>,
}

impl ReplyHandle {
    /// Fills the slot (first fill wins) and fires the waker.
    fn complete(&self, result: Reply) {
        if self.slot.fill(result) {
            if let Some(wake) = &self.waker {
                wake();
            }
        }
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        self.complete(Err(ServeError::ShuttingDown));
    }
}

/// One queued job.
struct Pending {
    work: Work,
    deadline: Option<Instant>,
    handle: ReplyHandle,
}

struct State {
    queue: VecDeque<Pending>,
    /// Total admission cost of everything queued (scalar evaluations, not
    /// request count) — the quantity the capacity bound is enforced on.
    queued_cost: usize,
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    bell: Condvar,
    capacity: usize,
    threads: usize,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The micro-batching executor.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("capacity", &self.shared.capacity)
            .field("threads", &self.shared.threads)
            .finish_non_exhaustive()
    }
}

impl Batcher {
    /// Starts the executor with a bounded queue of `capacity` jobs,
    /// evaluating dense batches on `threads` shards.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the worker thread cannot be spawned.
    pub fn start(capacity: usize, threads: usize) -> Result<Batcher, ServeError> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                queued_cost: 0,
                draining: false,
            }),
            bell: Condvar::new(),
            capacity,
            threads: threads.max(1),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("hmdiv-serve-batcher".into())
            .spawn(move || run_worker(&worker_shared))?;
        Ok(Batcher {
            shared,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Submits work with its admission `cost` — the number of scalar
    /// evaluations the job expands to (clamped to at least 1). A `trace`
    /// stage set, when supplied, learns the queue depth observed at
    /// admission and is stamped with queue/batch/eval stages as the job
    /// moves through the executor. A `waker`, when supplied, fires the
    /// moment the reply lands so an event-driven caller can sleep on its
    /// poller instead of blocking on the ticket.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Overloaded`] when admitting `cost` would push the
    ///   queued cost past capacity. A single job whose cost exceeds the
    ///   whole capacity is always shed — the bound is the contract.
    /// * [`ServeError::ShuttingDown`] when the executor is draining.
    pub fn submit(
        &self,
        work: Work,
        cost: usize,
        deadline: Option<Instant>,
        trace: Option<Arc<StageSet>>,
        waker: Option<Waker>,
    ) -> Result<Ticket, ServeError> {
        let cost = cost.max(1);
        let slot = ReplySlot::new();
        {
            let mut st = self.shared.lock();
            if st.draining {
                return Err(ServeError::ShuttingDown);
            }
            if st.queued_cost + cost > self.shared.capacity {
                hmdiv_obs::counter_add("serve.overloaded", 1);
                if let Some(t) = &trace {
                    t.set_queue_depth(st.queue.len() as u64);
                }
                return Err(ServeError::Overloaded {
                    capacity: self.shared.capacity,
                });
            }
            if let Some(t) = &trace {
                t.set_queue_depth(st.queue.len() as u64);
            }
            st.queued_cost += cost;
            st.queue.push_back(Pending {
                work,
                deadline,
                handle: ReplyHandle {
                    enqueued: Instant::now(),
                    trace,
                    slot: Arc::clone(&slot),
                    waker,
                },
            });
        }
        self.shared.bell.notify_one();
        Ok(Ticket { slot })
    }

    /// Jobs currently queued (for tests and the `metrics` verb; the bound
    /// is enforced by [`submit`](Batcher::submit) on cost, not count).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Total admission cost currently queued — the quantity bounded by
    /// capacity (for tests and the `metrics` verb).
    #[must_use]
    pub fn queue_cost(&self) -> usize {
        self.shared.lock().queued_cost
    }

    /// Stops accepting work, flushes everything already queued, and joins
    /// the worker. Idempotent.
    pub fn drain(&self) {
        {
            let mut st = self.shared.lock();
            st.draining = true;
        }
        self.shared.bell.notify_all();
        let handle = self
            .worker
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(worker) = handle {
            // A panicked worker already replied `ShuttingDown` to waiters
            // via dropped channels; nothing more to salvage here.
            drop(worker.join());
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.drain();
    }
}

fn run_worker(shared: &Shared) {
    loop {
        let batch: Vec<Pending> = {
            let mut st = shared.lock();
            while st.queue.is_empty() && !st.draining {
                st = shared
                    .bell
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            if st.queue.is_empty() {
                return; // draining and nothing left
            }
            // The whole queue drains at once, so the queued cost resets
            // with it — capacity frees as a unit per flush.
            st.queued_cost = 0;
            st.queue.drain(..).collect()
        };
        flush(batch, shared.threads);
    }
}

/// Replies to one job, recording its queue-to-reply latency.
fn reply(h: ReplyHandle, result: Reply) {
    hmdiv_obs::observe_since("serve.request", h.enqueued);
    h.complete(result);
}

/// Dense-batch size below which a group is evaluated on the worker
/// thread itself: spawning shard threads costs tens of microseconds,
/// while small groups evaluate in far less than that. The `_par` entry
/// points are thread-count-invariant, so this is purely a latency
/// policy — results are bit-identical either way. The `metrics` verb
/// reports it.
pub(crate) const PAR_THRESHOLD: usize = 1024;

/// Shard count for one dense group: serial under the threshold.
fn group_threads(len: usize, threads: usize) -> usize {
    if len < PAR_THRESHOLD {
        1
    } else {
        threads
    }
}

/// Stamps the batch-formation and evaluation stages for one dense group,
/// and tells each traced request how large its batch turned out to be.
fn stamp_group(
    traces: &[Option<Arc<StageSet>>],
    formed: Instant,
    eval_start: Instant,
    eval_end: Instant,
    batch_size: u64,
) {
    for t in traces.iter().flatten() {
        t.stamp(Stage::Batch, formed, eval_start);
        t.stamp(Stage::Eval, eval_start, eval_end);
        t.set_batch_size(batch_size);
    }
}

fn flush(batch: Vec<Pending>, threads: usize) {
    hmdiv_obs::counter_add("serve.batch.flushes", 1);
    hmdiv_obs::counter_add("serve.batch.jobs", batch.len() as u64);
    #[allow(clippy::cast_precision_loss)]
    hmdiv_obs::gauge_set("serve.batch.last_size", batch.len() as f64);
    // Satellite metrics sampled once per flush: how deep the queue was
    // when the worker woke (everything drained is everything that was
    // waiting) and the resulting batch size on the power-of-two ladder.
    #[allow(clippy::cast_precision_loss)]
    hmdiv_obs::gauge_set("serve.queue_depth", batch.len() as f64);
    hmdiv_obs::observe_count("serve.batch_size", batch.len() as u64);

    /// Profile jobs grouped by compiled-model identity.
    type ProfileGroup = (Arc<CompiledModel>, Vec<(CompiledProfile, ReplyHandle)>);
    /// Scenario jobs grouped by (compiled model, bound profile).
    type ScenarioGroup = (
        Arc<CompiledModel>,
        CompiledProfile,
        Vec<(CompiledScenarios, ReplyHandle)>,
    );
    let now = Instant::now();
    let mut profile_groups: Vec<ProfileGroup> = Vec::new();
    let mut scenario_groups: Vec<ScenarioGroup> = Vec::new();

    for p in batch {
        // Everything drained spent `enqueued → now` waiting in the queue.
        if let Some(t) = &p.handle.trace {
            t.stamp(Stage::Queue, p.handle.enqueued, now);
        }
        if p.deadline.is_some_and(|d| now >= d) {
            hmdiv_obs::counter_add("serve.deadline_exceeded", 1);
            reply(p.handle, Err(ServeError::DeadlineExceeded));
            continue;
        }
        match p.work {
            Work::Profile { model, profile } => {
                match profile_groups
                    .iter_mut()
                    .find(|(m, _)| Arc::ptr_eq(m, &model))
                {
                    Some((_, jobs)) => jobs.push((profile, p.handle)),
                    None => profile_groups.push((model, vec![(profile, p.handle)])),
                }
            }
            Work::Scenarios {
                model,
                profile,
                scenarios,
            } => {
                match scenario_groups
                    .iter_mut()
                    .find(|(m, pr, _)| Arc::ptr_eq(m, &model) && *pr == profile)
                {
                    Some((_, _, jobs)) => jobs.push((scenarios, p.handle)),
                    None => scenario_groups.push((model, profile, vec![(scenarios, p.handle)])),
                }
            }
            Work::Direct(f) => {
                let eval_start = Instant::now();
                let result = f();
                if let Some(t) = &p.handle.trace {
                    t.stamp(Stage::Batch, now, eval_start);
                    t.stamp_since(Stage::Eval, eval_start);
                    t.set_batch_size(1);
                }
                reply(p.handle, result);
            }
        }
    }

    for (model, jobs) in profile_groups {
        let profiles: Vec<CompiledProfile> = jobs.iter().map(|(pr, _)| pr.clone()).collect();
        let traces: Vec<Option<Arc<StageSet>>> =
            jobs.iter().map(|(_, h)| h.trace.clone()).collect();
        let eval_start = Instant::now();
        let failures =
            model.evaluate_profiles_par(&profiles, group_threads(profiles.len(), threads));
        stamp_group(
            &traces,
            now,
            eval_start,
            Instant::now(),
            profiles.len() as u64,
        );
        for ((_, h), failure) in jobs.into_iter().zip(failures) {
            reply(h, Ok(Outcome::One(failure)));
        }
    }

    for (model, profile, mut jobs) in scenario_groups {
        if jobs.len() == 1 {
            // A group of one evaluates its own sweep: no concatenated copy,
            // and its error is its own (the lowest-indexed one at any
            // thread count), so there is nothing to re-run.
            let (scenarios, h) = jobs.remove(0);
            let eval_start = Instant::now();
            let result = model.evaluate_bound_scenarios(
                &scenarios,
                &profile,
                group_threads(scenarios.len(), threads),
            );
            stamp_group(
                std::slice::from_ref(&h.trace),
                now,
                eval_start,
                Instant::now(),
                scenarios.len() as u64,
            );
            reply(h, result.map(Outcome::Many).map_err(ServeError::Model));
            continue;
        }
        let mut ranges = Vec::with_capacity(jobs.len());
        let mut start = 0;
        for (scenarios, _) in &jobs {
            ranges.push(start..start + scenarios.len());
            start += scenarios.len();
        }
        let parts: Vec<&CompiledScenarios> = jobs.iter().map(|(s, _)| s).collect();
        let Some(all) = CompiledScenarios::concat(&parts) else {
            continue;
        };
        let traces: Vec<Option<Arc<StageSet>>> =
            jobs.iter().map(|(_, h)| h.trace.clone()).collect();
        let eval_start = Instant::now();
        match model.evaluate_bound_scenarios(&all, &profile, group_threads(all.len(), threads)) {
            Ok(failures) => {
                stamp_group(&traces, now, eval_start, Instant::now(), all.len() as u64);
                for ((_, h), range) in jobs.into_iter().zip(ranges) {
                    reply(h, Ok(Outcome::Many(failures[range].to_vec())));
                }
            }
            Err(_) => {
                // At least one job in the group is bad; re-run each alone
                // (sequentially — correctness over speed on the error path)
                // so every ticket gets its own typed error.
                stamp_group(&traces, now, eval_start, Instant::now(), all.len() as u64);
                for (scenarios, h) in jobs {
                    let result = model
                        .evaluate_bound_scenarios(&scenarios, &profile, 1)
                        .map(Outcome::Many)
                        .map_err(ServeError::Model);
                    reply(h, result);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_core::extrapolate::Scenario;
    use hmdiv_core::paper;
    use hmdiv_core::ClassId;
    use std::sync::mpsc;
    use std::time::Duration;

    fn model_and_profile() -> (Arc<CompiledModel>, CompiledProfile) {
        let model = paper::example_model().unwrap();
        let compiled = Arc::clone(model.compiled());
        let profile = compiled
            .bind_profile(&paper::field_profile().unwrap())
            .unwrap();
        (compiled, profile)
    }

    // ReplySlot is the one lock-free-adjacent cell every reply crosses;
    // these focused tests are the CI Miri targets for it.

    #[test]
    fn reply_slot_first_fill_wins_and_never_reopens() {
        let slot = ReplySlot::new();
        assert!(slot.fill(Ok(Outcome::One(Probability::HALF))));
        // A late ShuttingDown overwrite (handle drop) must lose the race.
        assert!(!slot.fill(Err(ServeError::ShuttingDown)));
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        match ticket.try_take() {
            Some(Ok(Outcome::One(p))) => assert_eq!(p.value().to_bits(), 0.5_f64.to_bits()),
            other => panic!("expected the first fill, got {other:?}"),
        }
        // Taking the reply empties the cell but keeps it closed.
        assert!(!slot.fill(Ok(Outcome::One(Probability::ZERO))));
        let ticket = Ticket { slot };
        assert!(ticket.try_take().is_none());
    }

    #[test]
    fn reply_slot_concurrent_fillers_have_exactly_one_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for _ in 0..16 {
            let slot = ReplySlot::new();
            let wins = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let slot = Arc::clone(&slot);
                    let wins = &wins;
                    s.spawn(move || {
                        if slot.fill(Ok(Outcome::One(Probability::HALF))) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 1);
            let ticket = Ticket { slot };
            assert!(ticket.wait().is_ok());
        }
    }

    #[test]
    fn reply_slot_wait_observes_a_racing_fill() {
        let slot = ReplySlot::new();
        let filler = Arc::clone(&slot);
        let handle = std::thread::spawn(move || {
            filler.fill(Ok(Outcome::One(Probability::ONE)));
        });
        let ticket = Ticket { slot };
        // wait() must block (not spin-fail) until the fill lands, however
        // the threads interleave.
        assert!(ticket.wait().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn single_profile_round_trips_bit_identically() {
        let (model, profile) = model_and_profile();
        let direct = model.system_failure(&profile);
        let batcher = Batcher::start(8, 2).unwrap();
        let ticket = batcher
            .submit(
                Work::Profile {
                    model: Arc::clone(&model),
                    profile,
                },
                1,
                None,
                None,
                None,
            )
            .unwrap();
        match ticket.wait().unwrap() {
            Outcome::One(p) => {
                assert_eq!(p.value().to_bits(), direct.value().to_bits());
            }
            other => panic!("expected One, got {other:?}"),
        }
    }

    #[test]
    fn grouped_scenarios_match_direct_evaluation() {
        let (model, profile) = model_and_profile();
        let scenarios: Vec<Scenario> = (1..=6)
            .map(|i| Scenario::new().improve_machine(ClassId::new("difficult"), f64::from(i) * 2.0))
            .collect();
        let direct = model.evaluate_scenarios(&scenarios, &profile).unwrap();
        let batcher = Batcher::start(16, 3).unwrap();
        // Submit in two chunks against the same model+profile so the worker
        // can coalesce them into one dense call.
        let t1 = batcher
            .submit(
                Work::Scenarios {
                    model: Arc::clone(&model),
                    profile: profile.clone(),
                    scenarios: model.bind_scenarios(&scenarios[..3]),
                },
                3,
                None,
                None,
                None,
            )
            .unwrap();
        let t2 = batcher
            .submit(
                Work::Scenarios {
                    model: Arc::clone(&model),
                    profile: profile.clone(),
                    scenarios: model.bind_scenarios(&scenarios[3..]),
                },
                3,
                None,
                None,
                None,
            )
            .unwrap();
        let (r1, r2) = (t1.wait().unwrap(), t2.wait().unwrap());
        let got: Vec<Probability> = match (r1, r2) {
            (Outcome::Many(a), Outcome::Many(b)) => a.into_iter().chain(b).collect(),
            other => panic!("expected Many+Many, got {other:?}"),
        };
        assert_eq!(got.len(), direct.len());
        for (g, d) in got.iter().zip(&direct) {
            assert_eq!(g.value().to_bits(), d.value().to_bits());
        }
    }

    #[test]
    fn scenario_errors_attribute_to_the_right_ticket() {
        let (model, profile) = model_and_profile();
        let good = vec![Scenario::new().improve_machine_everywhere(2.0)];
        let bad = vec![Scenario::new().improve_machine(ClassId::new("ghost"), 2.0)];
        let batcher = Batcher::start(16, 2).unwrap();
        let t_good = batcher
            .submit(
                Work::Scenarios {
                    model: Arc::clone(&model),
                    profile: profile.clone(),
                    scenarios: model.bind_scenarios(&good),
                },
                1,
                None,
                None,
                None,
            )
            .unwrap();
        let t_bad = batcher
            .submit(
                Work::Scenarios {
                    model: Arc::clone(&model),
                    profile,
                    scenarios: model.bind_scenarios(&bad),
                },
                1,
                None,
                None,
                None,
            )
            .unwrap();
        assert!(t_good.wait().is_ok(), "good job must not inherit the error");
        assert!(matches!(
            t_bad.wait(),
            Err(ServeError::Model(
                hmdiv_core::ModelError::UnknownClass { ref class }
            )) if class.name() == "ghost"
        ));
    }

    #[test]
    fn expired_deadlines_are_rejected_without_evaluation() {
        let (model, profile) = model_and_profile();
        let batcher = Batcher::start(8, 1).unwrap();
        // A deadline of "now" is already unmeetable by the time the worker
        // wakes: deterministic expiry, no sleeps.
        let ticket = batcher
            .submit(
                Work::Profile { model, profile },
                1,
                Some(Instant::now()),
                None,
                None,
            )
            .unwrap();
        assert!(matches!(ticket.wait(), Err(ServeError::DeadlineExceeded)));
    }

    #[test]
    fn full_queue_rejects_with_overloaded_and_stays_bounded() {
        let batcher = Batcher::start(2, 1).unwrap();
        // Rendezvous: a Direct job signals it started, then blocks until
        // released — the worker is busy and the queue is empty.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let blocker = batcher
            .submit(
                Work::Direct(Box::new(move || {
                    started_tx.send(()).ok();
                    release_rx.recv().ok();
                    Ok(Outcome::Value(Json::Null))
                })),
                1,
                None,
                None,
                None,
            )
            .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker never started the blocker");
        // Fill the queue to capacity while the worker is held.
        let queued: Vec<Ticket> = (0..2)
            .map(|_| {
                batcher
                    .submit(
                        Work::Direct(Box::new(|| Ok(Outcome::Value(Json::Null)))),
                        1,
                        None,
                        None,
                        None,
                    )
                    .unwrap()
            })
            .collect();
        assert!(batcher.queue_len() <= 2, "queue must stay within capacity");
        // The next submit is shed, not buffered.
        let rejected = batcher.submit(
            Work::Direct(Box::new(|| Ok(Outcome::Value(Json::Null)))),
            1,
            None,
            None,
            None,
        );
        assert!(matches!(
            rejected,
            Err(ServeError::Overloaded { capacity: 2 })
        ));
        // Release the worker: everything accepted completes.
        release_tx.send(()).unwrap();
        assert!(blocker.wait().is_ok());
        for t in queued {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn drain_flushes_queued_work_then_rejects_new_work() {
        let (model, profile) = model_and_profile();
        let batcher = Batcher::start(8, 2).unwrap();
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| {
                batcher
                    .submit(
                        Work::Profile {
                            model: Arc::clone(&model),
                            profile: profile.clone(),
                        },
                        1,
                        None,
                        None,
                        None,
                    )
                    .unwrap()
            })
            .collect();
        batcher.drain();
        for t in tickets {
            assert!(t.wait().is_ok(), "in-flight work must complete on drain");
        }
        assert!(matches!(
            batcher.submit(
                Work::Profile {
                    model: Arc::clone(&model),
                    profile: profile.clone(),
                },
                1,
                None,
                None,
                None,
            ),
            Err(ServeError::ShuttingDown)
        ));
        batcher.drain(); // idempotent
    }

    #[test]
    fn batched_load_is_bit_identical_across_mixed_models() {
        // Two distinct models in one flush exercise the per-model grouping.
        let (model_a, profile_a) = model_and_profile();
        let model_b = {
            let params = paper::example_model()
                .unwrap()
                .params()
                .with_class_updated(&ClassId::new("easy"), |cp| cp.with_machine_improved(2.0))
                .unwrap();
            Arc::clone(hmdiv_core::SequentialModel::new(params).compiled())
        };
        let profile_b = model_b
            .bind_profile(&paper::field_profile().unwrap())
            .unwrap();
        let direct_a = model_a.system_failure(&profile_a);
        let direct_b = model_b.system_failure(&profile_b);
        let batcher = Batcher::start(64, 4).unwrap();
        let tickets: Vec<(Ticket, u64)> = (0..20)
            .map(|i| {
                let (m, pr, want) = if i % 2 == 0 {
                    (&model_a, &profile_a, direct_a)
                } else {
                    (&model_b, &profile_b, direct_b)
                };
                (
                    batcher
                        .submit(
                            Work::Profile {
                                model: Arc::clone(m),
                                profile: pr.clone(),
                            },
                            1,
                            None,
                            None,
                            None,
                        )
                        .unwrap(),
                    want.value().to_bits(),
                )
            })
            .collect();
        for (t, want) in tickets {
            match t.wait().unwrap() {
                Outcome::One(p) => assert_eq!(p.value().to_bits(), want),
                other => panic!("expected One, got {other:?}"),
            }
        }
    }
}
