//! The operation ledger and the percentile rule every timing follows.
//!
//! Each attempted operation lands in the ledger exactly once, as a
//! success with its latency or as a failure. A failed operation has no
//! latency: it counts as missing every latency limit, so percentiles
//! treat it as infinitely slow.

/// Percentiles the tail rule may report, in permille, highest first.
const TAIL_LADDER: [u64; 5] = [990, 950, 900, 750, 500];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// A window is cut into at most this many slices ...
const MAX_SLICES: usize = 20;
/// ... of at least this many operations, so every slice supports p99.
const SLICE_MIN: usize = 1000;

/// Attempted operations: successes with their latencies, and failures.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    latencies_ns: Vec<u64>,
    failed: u64,
}

/// A percentile read from a ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Which percentile, in permille (990 = p99).
    pub permille: u64,
    /// Its value in nanoseconds; `None` when a failure sits at that rank.
    pub ns: Option<u64>,
    /// Operations the percentile was taken over (failures included).
    pub samples: u64,
}

impl Ledger {
    /// Records a successful operation.
    pub fn ok(&mut self, latency_ns: u64) {
        self.latencies_ns.push(latency_ns);
    }

    /// Records a failed (shed, errored or oracle-mismatched) operation.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Folds another ledger into this one.
    pub fn absorb(&mut self, other: Ledger) {
        self.latencies_ns.extend(other.latencies_ns);
        self.failed += other.failed;
    }

    /// Operations that succeeded.
    pub fn succeeded(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Operations attempted: always `succeeded + failed`.
    pub fn attempted(&self) -> u64 {
        self.succeeded() + self.failed
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed as f64 / n as f64,
        }
    }

    /// Successful latencies sorted ascending, failures appended as
    /// `None` — the order percentiles are read in.
    fn ranked(&self) -> Vec<Option<u64>> {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let mut ranked: Vec<Option<u64>> = sorted.into_iter().map(Some).collect();
        ranked.extend((0..self.failed).map(|_| None));
        ranked
    }

    /// The nearest-rank percentile `permille` over every attempt, or
    /// `None` when nothing was attempted.
    pub fn quantile(&self, permille: u64) -> Option<Quantile> {
        let ranked = self.ranked();
        let n = ranked.len() as u64;
        let rank = nearest_rank(n, permille)?;
        Some(Quantile {
            permille,
            ns: ranked[(rank - 1) as usize],
            samples: n,
        })
    }

    /// The median.
    pub fn median(&self) -> Option<Quantile> {
        self.quantile(500)
    }

    /// The tail: the highest percentile of the ladder with at least
    /// [`MIN_BEYOND`] samples beyond it. With too few samples for even
    /// the median, the slowest attempt stands in (permille 1000).
    pub fn tail(&self) -> Option<Quantile> {
        let n = self.attempted();
        match tail_permille(n) {
            Some(permille) => self.quantile(permille),
            None => self.quantile(1000),
        }
    }
}

/// One operation of a measured window: when it completed (nanoseconds
/// from the window's start) and its latency, `None` if it failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub done_ns: u64,
    pub latency_ns: Option<u64>,
}

/// Cumulative CPU time stolen by the hypervisor, sampled during a window:
/// `(nanoseconds from the window's start, steal ticks so far)`, in time
/// order.
pub type StealLog = [(u64, u64)];

/// Steal ticks between two instants of a window, from the samples that
/// bracket them.
fn stolen(log: &StealLog, from_ns: u64, to_ns: u64) -> u64 {
    let at = |t: u64| {
        log.iter()
            .take_while(|(ns, _)| *ns <= t)
            .last()
            .map_or(0, |(_, ticks)| *ticks)
    };
    let after = log
        .iter()
        .find(|(ns, _)| *ns >= to_ns)
        .or(log.last())
        .map_or(0, |(_, ticks)| *ticks);
    after.saturating_sub(at(from_ns))
}

/// A window's throughput and latency, each the median over consecutive
/// slices of the window. Slices during which the hypervisor stole more
/// CPU than in the median slice are left out: that time was taken from
/// the host, not spent by the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timings {
    /// Successful operations per second.
    pub throughput: f64,
    pub p50_ns: f64,
    pub tail_ns: f64,
    /// The percentile `tail_ns` reports, in permille (the tail rule
    /// applied to one slice).
    pub tail_permille: u64,
    pub slices: usize,
    /// Slices kept after leaving out the ones with above-median steal.
    pub quiet_slices: usize,
    /// Operations per slice (the smallest slice).
    pub slice_samples: u64,
}

/// Slices `ops` (in completion order) into at most [`MAX_SLICES`] runs
/// of at least [`SLICE_MIN`] operations (one slice when there are
/// fewer), keeps the slices whose steal is at most the median slice's,
/// and takes the median of each figure across them. A failure at a
/// reported rank reads as `f64::INFINITY`.
pub fn slice_timings(ops: &[Op], steal: &StealLog) -> Option<Timings> {
    let n = ops.len();
    let k = (n / SLICE_MIN).clamp(1, MAX_SLICES);
    if n == 0 {
        return None;
    }
    let as_ns = |q: Option<Quantile>| q.and_then(|q| q.ns).map_or(f64::INFINITY, |ns| ns as f64);
    // (steal, throughput, p50, tail) per slice.
    let mut slices = Vec::with_capacity(k);
    let (mut tail_permille, mut slice_samples) = (1000, u64::MAX);
    let mut start_ns = 0;
    for i in 0..k {
        let slice = &ops[i * n / k..(i + 1) * n / k];
        let mut ledger = Ledger::default();
        for op in slice {
            match op.latency_ns {
                Some(ns) => ledger.ok(ns),
                None => ledger.fail(),
            }
        }
        let end_ns = slice.last().map_or(start_ns, |op| op.done_ns);
        let span = (end_ns.saturating_sub(start_ns)).max(1) as f64 / 1e9;
        let tail = ledger.tail();
        tail_permille = tail_permille.min(tail.map_or(1000, |q| q.permille));
        slice_samples = slice_samples.min(ledger.attempted());
        slices.push((
            stolen(steal, start_ns, end_ns),
            ledger.succeeded() as f64 / span,
            as_ns(ledger.median()),
            as_ns(tail),
        ));
        start_ns = end_ns;
    }
    let mut steals: Vec<f64> = slices.iter().map(|s| s.0 as f64).collect();
    let limit = percentile_of(&mut steals, 500)?;
    slices.retain(|s| s.0 as f64 <= limit);
    let pick = |f: fn(&(u64, f64, f64, f64)) -> f64| {
        let mut v: Vec<f64> = slices.iter().map(f).collect();
        percentile_of(&mut v, 500)
    };
    Some(Timings {
        throughput: pick(|s| s.1)?,
        p50_ns: pick(|s| s.2)?,
        tail_ns: pick(|s| s.3)?,
        tail_permille,
        slices: k,
        quiet_slices: slices.len(),
        slice_samples,
    })
}

/// 1-based nearest rank of percentile `permille` among `n` samples.
fn nearest_rank(n: u64, permille: u64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    Some((permille * n).div_ceil(1000).clamp(1, n))
}

/// The highest ladder percentile leaving at least [`MIN_BEYOND`] of `n`
/// samples beyond its rank.
pub fn tail_permille(n: u64) -> Option<u64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| nearest_rank(n, p).is_some_and(|rank| n - rank >= MIN_BEYOND))
}

/// Nearest-rank percentile of plain values (per-layer figures); `None`
/// for an empty slice.
pub fn percentile_of(values: &mut [f64], permille: u64) -> Option<f64> {
    let rank = nearest_rank(values.len() as u64, permille)?;
    values.sort_unstable_by(f64::total_cmp);
    Some(values[(rank - 1) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(latencies: &[u64], failed: u64) -> Ledger {
        let mut l = Ledger::default();
        for &ns in latencies {
            l.ok(ns);
        }
        for _ in 0..failed {
            l.fail();
        }
        l
    }

    #[test]
    fn attempted_is_succeeded_plus_failed() {
        let mut l = ledger(&[5, 1, 3], 2);
        assert_eq!((l.attempted(), l.succeeded(), l.failed()), (5, 3, 2));
        l.absorb(ledger(&[7], 1));
        assert_eq!(l.attempted(), l.succeeded() + l.failed());
        assert_eq!(l.attempted(), 7);
        assert!((l.error_rate() - 3.0 / 7.0).abs() < 1e-15);
        assert_eq!(Ledger::default().attempted(), 0);
        assert_eq!(Ledger::default().error_rate(), 0.0);
    }

    #[test]
    fn a_failure_misses_every_latency_limit() {
        let l = ledger(&[10, 20], 2);
        // Failures rank above every success, as if infinitely slow: a
        // percentile that reaches them reads "no latency", never a time.
        assert_eq!(l.quantile(1000).map(|q| q.ns), Some(None));
        assert_eq!(l.quantile(500).map(|q| q.ns), Some(Some(20)));
        assert_eq!(l.quantile(750).map(|q| q.ns), Some(None));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 first qualifies at 1000 samples (rank 990, 10 beyond).
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(99), Some(750));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(39), Some(500));
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(0), None);
    }

    #[test]
    fn tail_reads_the_nearest_rank_and_counts_samples() {
        let values: Vec<u64> = (1..=1000).collect();
        let q = ledger(&values, 0).tail().expect("non-empty");
        assert_eq!(
            q,
            Quantile {
                permille: 990,
                ns: Some(990),
                samples: 1000
            }
        );
        let q = ledger(&values[..200], 0).tail().expect("non-empty");
        assert_eq!(
            q,
            Quantile {
                permille: 950,
                ns: Some(190),
                samples: 200
            }
        );
        // Too few for the rule: the slowest attempt stands in.
        let q = ledger(&[3, 9, 4], 0).tail().expect("non-empty");
        assert_eq!(
            q,
            Quantile {
                permille: 1000,
                ns: Some(9),
                samples: 3
            }
        );
        assert_eq!(ledger(&[], 0).tail(), None);
    }

    #[test]
    fn slices_take_medians_across_the_window() {
        // 3,000 ops, one per millisecond: three slices of 1,000.
        let ops: Vec<Op> = (1..=3000u64)
            .map(|i| Op {
                done_ns: i * 1_000_000,
                latency_ns: Some(if i <= 1000 { 50 } else { i }),
            })
            .collect();
        let t = slice_timings(&ops, &[]).expect("non-empty");
        assert_eq!((t.slices, t.slice_samples, t.tail_permille), (3, 1000, 990));
        assert_eq!(t.quiet_slices, 3);
        assert!((t.throughput - 1000.0).abs() < 1e-9);
        // Slice p50s are 50, 1500 and 2500; their median is 1500.
        assert_eq!(t.p50_ns, 1500.0);
        // The middle slice, not the slowest, sets the tail.
        assert_eq!(t.tail_ns, 1990.0);
        // Under 1,000 ops: one slice, and the tail rule picks p95.
        let t = slice_timings(&ops[..500], &[]).expect("non-empty");
        assert_eq!((t.slices, t.tail_permille), (1, 950));
        // A failure at the reported rank reads as infinitely slow.
        let failed = [Op {
            done_ns: 1,
            latency_ns: None,
        }];
        assert_eq!(
            slice_timings(&failed, &[]).map(|t| t.p50_ns),
            Some(f64::INFINITY)
        );
        assert_eq!(slice_timings(&[], &[]), None);
    }

    #[test]
    fn slices_with_above_median_steal_are_left_out() {
        // Four slices of 1,000 ops over 4 s; the hypervisor steals 30
        // ticks during the third, which is also the slow one.
        let ops: Vec<Op> = (1..=4000u64)
            .map(|i| Op {
                done_ns: i * 1_000_000,
                latency_ns: Some(if (2001..=3000).contains(&i) {
                    900
                } else {
                    100 + i % 7
                }),
            })
            .collect();
        let steal = [
            (0, 5),
            (2_100_000_000, 5),
            (2_900_000_000, 35),
            (4_000_000_000, 35),
        ];
        assert_eq!(stolen(&steal, 2_000_000_000, 3_000_000_000), 30);
        assert_eq!(stolen(&steal, 0, 1_000_000_000), 0);
        let t = slice_timings(&ops, &steal).expect("non-empty");
        assert_eq!((t.slices, t.quiet_slices), (4, 3));
        assert!(t.tail_ns < 900.0, "the stolen slice does not set the tail");
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(
            ledger(&[4, 1, 3, 2], 0).median().and_then(|q| q.ns),
            Some(2)
        );
        assert_eq!(ledger(&[5, 1, 3], 0).median().and_then(|q| q.ns), Some(3));
        assert_eq!(ledger(&[7], 0).median().and_then(|q| q.ns), Some(7));
        let mut plain = [2.5, -1.0, 9.0, 4.0];
        assert_eq!(percentile_of(&mut plain, 500), Some(2.5));
        assert_eq!(percentile_of(&mut plain, 990), Some(9.0));
        assert_eq!(percentile_of(&mut [], 500), None);
    }
}
