//! Deterministic parallel execution of seeded Monte-Carlo work.
//!
//! Every sampling loop in this workspace needs the same three guarantees:
//!
//! 1. **Reproducible** — a fixed seed gives identical results on every run;
//! 2. **Thread-count invariant** — the *same* results at any worker count,
//!    so `threads` is purely a performance knob;
//! 3. **Scalable** — workers share no mutable state until a final merge.
//!
//! The pattern that delivers all three (first grown inside the simulation
//! engine, now shared here): number the independent units of work
//! `0..tasks`, derive each task's RNG stream from `(seed, task id)` with a
//! SplitMix64 mix ([`stream_rng`]), hand each worker a contiguous block of
//! task ids, and fold each worker's partial accumulator into the result in
//! task order. Threading then only changes *which worker* executes a task,
//! never the randomness a task sees nor the order contributions are
//! combined.
//!
//! # Accumulator requirements
//!
//! Thread-count invariance needs two properties of the accumulator, which
//! implementors of [`Merge`] must uphold:
//!
//! * the `init` value passed to [`run_tasks`] is an identity for `merge`
//!   (an "empty" accumulator);
//! * merging is associative over per-task contributions, so grouping tasks
//!   into different worker blocks cannot change the fold. Integer counters,
//!   order-preserving concatenation, and min/max all qualify; `f64`
//!   summation does **not** (floating-point addition is not associative) —
//!   accumulate exact representations (counts, `Vec<f64>` of per-task
//!   values) and reduce after the run instead.
//!
//! # Example
//!
//! ```
//! use hmdiv_prob::par::run_tasks;
//! use rand::Rng;
//!
//! // Count heads over one million coin flips, 4 ways in parallel.
//! let heads: u64 = run_tasks(7, 1_000_000, 4, || 0u64, |_id, rng, acc| {
//!     *acc += u64::from(rng.gen::<f64>() < 0.5);
//! });
//! // Identical at any thread count.
//! assert_eq!(heads, run_tasks(7, 1_000_000, 1, || 0u64, |_id, rng, acc| {
//!     *acc += u64::from(rng.gen::<f64>() < 0.5);
//! }));
//! ```

use std::ops::Range;
use std::time::Instant;

use hmdiv_obs::{MetricSink, WorkerStat};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNG stream for task `stream` under `seed`: a SplitMix64-style mix of
/// the pair into a seed for [`StdRng`].
///
/// This is the exact mixing the simulation engine has always used for its
/// per-case streams, so adopting [`run_tasks`] preserves engine output bit
/// for bit.
#[must_use]
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// A partial result that can absorb another partial produced later in task
/// order. See the module docs for the identity/associativity requirements.
pub trait Merge {
    /// Folds `later` (covering strictly later task ids) into `self`.
    fn merge(&mut self, later: Self);
}

/// Counting accumulator: merge is addition (exact, associative).
impl Merge for u64 {
    fn merge(&mut self, later: Self) {
        *self += later;
    }
}

/// Order-preserving concatenation: partials covering later task ids append
/// after earlier ones, reproducing the sequential collection order.
impl<T> Merge for Vec<T> {
    fn merge(&mut self, mut later: Self) {
        self.append(&mut later);
    }
}

/// Pairs merge componentwise.
impl<A: Merge, B: Merge> Merge for (A, B) {
    fn merge(&mut self, later: Self) {
        self.0.merge(later.0);
        self.1.merge(later.1);
    }
}

/// Observability sinks satisfy the contract by construction: counters add
/// (associative with identity 0) and per-worker stats concatenate in task
/// order — the same shapes as the `u64` and `Vec` impls above. This lets
/// instrumentation ride the deterministic fold instead of introducing
/// shared mutable state.
impl Merge for MetricSink {
    fn merge(&mut self, later: Self) {
        self.absorb(later);
    }
}

/// Splits `0..total` into `workers` contiguous ranges, the first
/// `total % workers` of them one longer — the canonical partition used by
/// [`run_tasks`] (and by the simulation engine before it).
///
/// Returns an empty vector when `workers == 0` or `total == 0`.
#[must_use]
pub fn split_evenly(total: u64, workers: usize) -> Vec<Range<u64>> {
    if workers == 0 || total == 0 {
        return Vec::new();
    }
    let per_worker = total / workers as u64;
    let remainder = total % workers as u64;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0u64;
    for worker in 0..workers {
        let quota = per_worker + u64::from((worker as u64) < remainder);
        ranges.push(start..start + quota);
        start += quota;
    }
    ranges
}

/// Runs tasks `0..tasks` across up to `threads` workers, giving task `id`
/// the RNG `stream_rng(seed, id)`, and folds the per-worker accumulators in
/// task order.
///
/// `threads` is clamped to `[1, tasks]`; the single-threaded case runs
/// inline without spawning. Results are identical for every `threads`
/// value provided the accumulator meets the [`Merge`] contract.
///
/// Equivalent to [`run_tasks_scoped`] under the generic `"par"` metric
/// scope; hot layers with names of their own pass them via
/// [`run_tasks_scoped`] instead.
pub fn run_tasks<A, I, F>(seed: u64, tasks: u64, threads: usize, init: I, task: F) -> A
where
    A: Merge + Send,
    I: Fn() -> A + Sync,
    F: Fn(u64, &mut StdRng, &mut A) + Sync,
{
    run_tasks_scoped("par", seed, tasks, threads, init, task)
}

/// [`run_tasks`] with an explicit observability scope.
///
/// When observability is enabled for `scope` (see
/// [`hmdiv_obs::enabled_for`]), the run also records — *without touching
/// the task RNG streams or the fold order, so results stay bit-identical
/// to an uninstrumented run*:
///
/// * `{scope}.runs`, `{scope}.tasks`, `{scope}.wall_ns` counters and a
///   `{scope}.tasks_per_sec` gauge for the run as a whole;
/// * per-worker `{scope}.worker{i}.busy_ns` / `.tasks` gauges, a pooled
///   `{scope}.busy_ns` counter and a `{scope}.imbalance` gauge (busiest
///   worker over mean), carried by [`MetricSink`] accumulators that ride
///   the same in-order merge as the caller's accumulator.
///
/// While disabled, the only cost over the raw loop is one atomic load and
/// branch per *run* (never per task), keeping the disabled-path overhead
/// well under the workspace's 2% budget.
pub fn run_tasks_scoped<A, I, F>(
    scope: &str,
    seed: u64,
    tasks: u64,
    threads: usize,
    init: I,
    task: F,
) -> A
where
    A: Merge + Send,
    I: Fn() -> A + Sync,
    F: Fn(u64, &mut StdRng, &mut A) + Sync,
{
    if tasks == 0 {
        return init();
    }
    let threads = threads
        .min(usize::try_from(tasks).unwrap_or(usize::MAX))
        .max(1);
    let observing = hmdiv_obs::enabled_for(scope);
    let wall = observing.then(Instant::now);
    let (acc, sink) = if threads == 1 {
        let worker_start = observing.then(Instant::now);
        let mut acc = init();
        run_range(0..tasks, seed, &task, &mut acc);
        let mut sink = MetricSink::new();
        if let Some(start) = worker_start {
            sink.push_worker(WorkerStat {
                tasks,
                busy_ns: elapsed_ns(start),
            });
        }
        (acc, sink)
    } else {
        let init = &init;
        let task = &task;
        std::thread::scope(|thread_scope| {
            let handles: Vec<_> = split_evenly(tasks, threads)
                .into_iter()
                .map(|range| {
                    thread_scope.spawn(move || {
                        let worker_start = observing.then(Instant::now);
                        let quota = range.end - range.start;
                        let mut acc = init();
                        run_range(range, seed, task, &mut acc);
                        let mut sink = MetricSink::new();
                        if let Some(start) = worker_start {
                            sink.push_worker(WorkerStat {
                                tasks: quota,
                                busy_ns: elapsed_ns(start),
                            });
                        }
                        (acc, sink)
                    })
                })
                .collect();
            let mut acc = init();
            let mut sink = MetricSink::new();
            for handle in handles {
                let (worker_acc, worker_sink) = handle.join().expect("parallel worker panicked");
                acc.merge(worker_acc);
                sink.merge(worker_sink);
            }
            (acc, sink)
        })
    };
    if let Some(start) = wall {
        let wall_ns = elapsed_ns(start);
        let registry = hmdiv_obs::global();
        registry.counter_add(&format!("{scope}.runs"), 1);
        registry.counter_add(&format!("{scope}.tasks"), tasks);
        registry.counter_add(&format!("{scope}.wall_ns"), wall_ns);
        if wall_ns > 0 {
            registry.gauge_set(
                &format!("{scope}.tasks_per_sec"),
                tasks as f64 * 1e9 / wall_ns as f64,
            );
        }
        sink.flush(scope, registry);
    }
    acc
}

/// Saturating elapsed nanoseconds since `start`.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Executes a contiguous block of task ids against one accumulator.
fn run_range<A, F>(range: Range<u64>, seed: u64, task: &F, acc: &mut A)
where
    F: Fn(u64, &mut StdRng, &mut A) + Sync,
{
    for id in range {
        let mut rng = stream_rng(seed, id);
        task(id, &mut rng, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn stream_rng_is_deterministic_and_stream_separated() {
        let a: f64 = stream_rng(1, 0).gen();
        let b: f64 = stream_rng(1, 0).gen();
        assert_eq!(a.to_bits(), b.to_bits());
        let c: f64 = stream_rng(1, 1).gen();
        let d: f64 = stream_rng(2, 0).gen();
        assert_ne!(a.to_bits(), c.to_bits());
        assert_ne!(a.to_bits(), d.to_bits());
    }

    #[test]
    fn split_evenly_is_contiguous_and_exhaustive() {
        for total in [1u64, 7, 100, 101] {
            for workers in [1usize, 2, 3, 7, 16] {
                let ranges = split_evenly(total, workers);
                assert_eq!(ranges.len(), workers.min(ranges.len().max(1)));
                assert_eq!(ranges.first().map(|r| r.start), Some(0));
                assert_eq!(ranges.last().map(|r| r.end), Some(total));
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                }
                let sizes: Vec<u64> = ranges.iter().map(|r| r.end - r.start).collect();
                let max = sizes.iter().max().unwrap();
                let min = sizes.iter().min().unwrap();
                assert!(max - min <= 1, "{sizes:?}");
            }
        }
    }

    #[test]
    fn split_evenly_degenerate_inputs() {
        assert!(split_evenly(0, 4).is_empty());
        assert!(split_evenly(10, 0).is_empty());
    }

    fn count_heads(threads: usize) -> u64 {
        run_tasks(
            99,
            10_000,
            threads,
            || 0u64,
            |_id, rng, acc| {
                *acc += u64::from(rng.gen::<f64>() < 0.3);
            },
        )
    }

    #[test]
    fn counts_are_thread_count_invariant() {
        let reference = count_heads(1);
        for threads in [2usize, 3, 7, 64] {
            assert_eq!(count_heads(threads), reference, "threads={threads}");
        }
        // And the empirical rate is sane.
        let frac = reference as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "{frac}");
    }

    fn collect_values(threads: usize) -> Vec<u64> {
        run_tasks(5, 1000, threads, Vec::new, |id, rng, acc: &mut Vec<u64>| {
            acc.push(id ^ rng.gen::<u64>());
        })
    }

    #[test]
    fn concatenation_preserves_task_order_at_any_thread_count() {
        let reference = collect_values(1);
        assert_eq!(reference.len(), 1000);
        for threads in [2usize, 5, 13] {
            assert_eq!(collect_values(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn thread_count_clamps_to_task_count() {
        // More workers than tasks must not panic or change results.
        let wide = run_tasks(3, 4, 100, || 0u64, |id, _rng, acc| *acc += id);
        let narrow = run_tasks(3, 4, 1, || 0u64, |id, _rng, acc| *acc += id);
        assert_eq!(wide, narrow);
        assert_eq!(wide, 1 + 2 + 3);
    }

    #[test]
    fn zero_tasks_returns_identity() {
        let acc: Vec<u64> = run_tasks(1, 0, 4, Vec::new, |_, _, _| unreachable!());
        assert!(acc.is_empty());
    }

    #[test]
    fn metric_sinks_ride_the_fold_in_worker_order() {
        // A MetricSink used AS the caller accumulator: counters sum and
        // worker stats concatenate in block order at any thread count.
        let collect = |threads: usize| -> MetricSink {
            run_tasks(3, 120, threads, MetricSink::new, |_id, _rng, sink| {
                sink.inc("seen", 1);
            })
        };
        for threads in [1usize, 2, 5] {
            let sink = collect(threads);
            assert_eq!(sink.counters()["seen"], 120, "threads={threads}");
        }
    }

    #[test]
    fn scoped_run_records_metrics_without_changing_results() {
        let scope = "par.test.scoped";
        let run = || {
            run_tasks_scoped(
                scope,
                11,
                500,
                3,
                || 0u64,
                |_id, rng, acc| {
                    *acc += u64::from(rng.gen::<f64>() < 0.4);
                },
            )
        };
        hmdiv_obs::set_enabled(false);
        let plain = run();
        hmdiv_obs::set_enabled(true);
        let observed = run();
        hmdiv_obs::set_enabled(false);
        assert_eq!(plain, observed, "instrumentation must not perturb results");
        let snap = hmdiv_obs::snapshot();
        assert!(snap.counters[&format!("{scope}.runs")] >= 1);
        assert_eq!(snap.counters[&format!("{scope}.tasks")], 500);
        assert!(snap.gauges.contains_key(&format!("{scope}.worker0.tasks")));
        assert!(snap
            .gauges
            .contains_key(&format!("{scope}.worker2.busy_ns")));
    }

    #[test]
    fn pair_accumulators_merge_componentwise() {
        let (count, values): (u64, Vec<u64>) = run_tasks(
            8,
            100,
            3,
            || (0u64, Vec::new()),
            |id, _rng, acc| {
                acc.0 += 1;
                acc.1.push(id);
            },
        );
        assert_eq!(count, 100);
        assert_eq!(values, (0..100).collect::<Vec<_>>());
    }
}
