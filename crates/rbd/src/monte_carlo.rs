//! Monte-Carlo reliability estimation for diagrams too large for exact
//! evaluation.
//!
//! Exact factoring costs `2^(repeated components)`; beyond
//! [`crate::reliability::MAX_REPEATED`] shared components (or for quick
//! what-ifs), sampling component states and evaluating the structure
//! function gives an unbiased estimate with a binomial confidence interval.

use rand::Rng;

use hmdiv_prob::estimate::{BinomialEstimate, CiMethod, ConfidenceInterval};
use hmdiv_prob::Probability;

use crate::compiled::CompiledBlock;
use crate::{Block, RbdError};

/// A Monte-Carlo reliability estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloEstimate {
    /// Estimated probability that the system *fails*.
    pub failure: Probability,
    /// Wilson interval on the failure probability.
    pub interval: ConfidenceInterval,
    /// Number of sampled states.
    pub samples: u64,
}

/// Estimates system failure probability by sampling `samples` independent
/// component-state vectors.
///
/// The diagram is compiled once ([`CompiledBlock`]) and failure
/// probabilities are hoisted into a dense vector aligned with the interned
/// component indices, so the per-sample loop performs no heap allocation
/// and no string-keyed lookups. Component states are drawn in sorted-name
/// order (the interned order), preserving the RNG stream of earlier
/// interpreted versions byte for byte.
///
/// # Errors
///
/// * [`RbdError::Prob`] if `samples == 0`.
/// * Validation errors, and any error from `failure_of`.
pub fn monte_carlo_failure<F, R>(
    block: &Block,
    failure_of: F,
    samples: u64,
    rng: &mut R,
) -> Result<MonteCarloEstimate, RbdError>
where
    F: FnMut(&str) -> Result<Probability, RbdError>,
    R: Rng + ?Sized,
{
    let compiled = CompiledBlock::compile(block)?;
    if samples == 0 {
        return Err(RbdError::Prob(hmdiv_prob::ProbError::InvalidCounts {
            successes: 0,
            trials: 0,
        }));
    }
    let probs: Vec<f64> = compiled
        .failure_probabilities(failure_of)?
        .iter()
        .map(|p| p.value())
        .collect();
    let span = hmdiv_obs::span("rbd.mc.sample");
    let failures = sample_failures(&compiled, &probs, samples, rng);
    record_sampling_metrics(samples, span.elapsed_ns());
    drop(span);
    let est = BinomialEstimate::new(failures, samples).map_err(RbdError::from)?;
    let interval = est
        .interval(CiMethod::Wilson, 0.95)
        .map_err(RbdError::from)?;
    Ok(MonteCarloEstimate {
        failure: est.point(),
        interval,
        samples,
    })
}

/// Samples per parallel task: each task re-seeds its own RNG stream from
/// `(seed, task id)`, so blocks amortise the stream setup while keeping the
/// task structure — and therefore the estimate — independent of the thread
/// count.
const PAR_BLOCK: u64 = 8192;

/// Parallel [`monte_carlo_failure`]: deterministic for `(seed, samples)`
/// and bit-identical at any `threads` value.
///
/// Samples are partitioned into fixed blocks of 8,192; block `i`
/// draws from the RNG stream `(seed, i)` (see
/// [`hmdiv_prob::par::stream_rng`]), so the thread count only decides which
/// worker evaluates which block. The estimate differs numerically from the
/// sequential [`monte_carlo_failure`] (which consumes one caller-provided
/// stream), but has the same distribution and the same interval guarantees.
///
/// # Errors
///
/// As [`monte_carlo_failure`].
pub fn monte_carlo_failure_par<F>(
    block: &Block,
    failure_of: F,
    samples: u64,
    seed: u64,
    threads: usize,
) -> Result<MonteCarloEstimate, RbdError>
where
    F: FnMut(&str) -> Result<Probability, RbdError>,
{
    let compiled = CompiledBlock::compile(block)?;
    if samples == 0 {
        return Err(RbdError::Prob(hmdiv_prob::ProbError::InvalidCounts {
            successes: 0,
            trials: 0,
        }));
    }
    let probs: Vec<f64> = compiled
        .failure_probabilities(failure_of)?
        .iter()
        .map(|p| p.value())
        .collect();
    let blocks = samples.div_ceil(PAR_BLOCK);
    // Scope "rbd.mc": the par layer records per-worker busy time and block
    // (task) counts; sample totals are recorded here since tasks != samples.
    let span = hmdiv_obs::span("rbd.mc.sample");
    let failures = hmdiv_prob::par::run_tasks_scoped(
        "rbd.mc",
        seed,
        blocks,
        threads,
        || 0u64,
        |block_id, rng, acc| {
            let start = block_id * PAR_BLOCK;
            let len = PAR_BLOCK.min(samples - start);
            *acc += sample_failures(&compiled, &probs, len, rng);
        },
    );
    record_sampling_metrics(samples, span.elapsed_ns());
    drop(span);
    let est = BinomialEstimate::new(failures, samples).map_err(RbdError::from)?;
    let interval = est
        .interval(CiMethod::Wilson, 0.95)
        .map_err(RbdError::from)?;
    Ok(MonteCarloEstimate {
        failure: est.point(),
        interval,
        samples,
    })
}

/// Records sample throughput under the `rbd.mc` scope. `elapsed_ns` is the
/// live reading of the enclosing sampling span (`None` while observability
/// is disabled, which makes the whole call a no-op).
fn record_sampling_metrics(samples: u64, elapsed_ns: Option<u64>) {
    let Some(elapsed_ns) = elapsed_ns else {
        return;
    };
    hmdiv_obs::counter_add("rbd.mc.samples", samples);
    if elapsed_ns > 0 {
        let per_sec = samples as f64 / (elapsed_ns as f64 / 1e9);
        hmdiv_obs::gauge_set("rbd.mc.samples_per_sec", per_sec);
    }
}

/// The allocation-free inner sampling loop: draws `samples` state vectors
/// from `rng` and counts system failures.
pub(crate) fn sample_failures<R: Rng + ?Sized>(
    compiled: &CompiledBlock,
    probs: &[f64],
    samples: u64,
    rng: &mut R,
) -> u64 {
    let n = compiled.component_count();
    let mut state = vec![false; n];
    let mut stack = Vec::with_capacity(compiled.max_stack());
    let mut failures = 0u64;
    for _ in 0..samples {
        for (slot, &q) in state.iter_mut().zip(probs) {
            *slot = rng.gen::<f64>() >= q;
        }
        if !compiled.eval_with(&state, &mut stack) {
            failures += 1;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::system_failure;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn fail_of(name: &str) -> Result<Probability, RbdError> {
        let h: u32 = name
            .bytes()
            .fold(7u32, |acc, b| acc.wrapping_mul(131).wrapping_add(b.into()));
        Ok(Probability::clamped(0.05 + f64::from(h % 80) / 160.0))
    }

    #[test]
    fn matches_exact_on_fig2() {
        let sys = Block::series(vec![
            Block::parallel(vec![Block::component("Hd"), Block::component("Md")]),
            Block::component("Hc"),
        ]);
        let table = |name: &str| {
            Ok(match name {
                "Hd" => p(0.2),
                "Md" => p(0.07),
                "Hc" => p(0.1),
                _ => unreachable!(),
            })
        };
        let exact = system_failure(&sys, table).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mc = monte_carlo_failure(&sys, table, 200_000, &mut rng).unwrap();
        assert!(
            (mc.failure.value() - exact.value()).abs() < 0.004,
            "{} vs {}",
            mc.failure.value(),
            exact.value()
        );
        assert!(mc.interval.contains(exact));
    }

    #[test]
    fn matches_exact_on_shared_component_diagram() {
        let sys = Block::parallel(vec![
            Block::series(vec![Block::component("a"), Block::component("b")]),
            Block::series(vec![Block::component("a"), Block::component("c")]),
        ]);
        let exact = system_failure(&sys, fail_of).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mc = monte_carlo_failure(&sys, fail_of, 200_000, &mut rng).unwrap();
        assert!((mc.failure.value() - exact.value()).abs() < 0.005);
    }

    #[test]
    fn interval_narrows_with_samples() {
        let sys = Block::k_of_n(
            2,
            vec![
                Block::component("x"),
                Block::component("y"),
                Block::component("z"),
            ],
        );
        let mut rng = StdRng::seed_from_u64(11);
        let small = monte_carlo_failure(&sys, fail_of, 1_000, &mut rng).unwrap();
        let large = monte_carlo_failure(&sys, fail_of, 100_000, &mut rng).unwrap();
        assert!(large.interval.width() < small.interval.width());
        assert_eq!(large.samples, 100_000);
    }

    #[test]
    fn zero_samples_rejected() {
        let sys = Block::component("a");
        let mut rng = StdRng::seed_from_u64(1);
        assert!(monte_carlo_failure(&sys, fail_of, 0, &mut rng).is_err());
    }

    #[test]
    fn par_estimate_is_thread_count_invariant() {
        let sys = Block::series(vec![
            Block::parallel(vec![Block::component("Hd"), Block::component("Md")]),
            Block::component("Hc"),
        ]);
        // An awkward sample count exercising a partial final block.
        let samples = 3 * super::PAR_BLOCK + 17;
        let reference = monte_carlo_failure_par(&sys, fail_of, samples, 42, 1).unwrap();
        for threads in [2usize, 3, 7, 32] {
            let est = monte_carlo_failure_par(&sys, fail_of, samples, 42, threads).unwrap();
            assert_eq!(est, reference, "threads={threads}");
        }
    }

    #[test]
    fn par_estimate_matches_exact() {
        let sys = Block::parallel(vec![
            Block::series(vec![Block::component("a"), Block::component("b")]),
            Block::series(vec![Block::component("a"), Block::component("c")]),
        ]);
        let exact = system_failure(&sys, fail_of).unwrap();
        let mc = monte_carlo_failure_par(&sys, fail_of, 200_000, 7, 4).unwrap();
        assert!(
            (mc.failure.value() - exact.value()).abs() < 0.005,
            "{} vs {}",
            mc.failure.value(),
            exact.value()
        );
        assert_eq!(mc.samples, 200_000);
    }

    #[test]
    fn par_zero_samples_rejected() {
        let sys = Block::component("a");
        assert!(monte_carlo_failure_par(&sys, fail_of, 0, 1, 4).is_err());
    }
}
