//! The Monte-Carlo simulation engine.
//!
//! Screens a stream of generated cases through a [`ReadingTeam`] across
//! worker threads, accumulating the stratified 2×2 outcome tables the
//! paper's estimation step consumes. Runs are deterministic for a given
//! seed and *independent of the thread count*: every case derives its own
//! RNG stream from `(seed, case id)`, so threading only changes which
//! worker handles which id.

use std::sync::Arc;

use rand::rngs::StdRng;

use hmdiv_core::{ClassId, ClassParams, ClassUniverse, ModelError, ModelParams, SequentialModel};
use hmdiv_prob::counts::{JointCounts, StratifiedCounts};
use hmdiv_prob::par::{self, Merge};
use hmdiv_prob::Probability;

use crate::case::CaseKind;
use crate::population::PopulationSpec;
use crate::protocol::ReadingTeam;
use crate::SimError;

/// The simulated world: a population screened by a team.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// The case population.
    pub population: PopulationSpec,
    /// The screening team.
    pub team: ReadingTeam,
}

/// Run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of cases to screen.
    pub cases: u64,
    /// Base RNG seed; the same seed gives identical results at any thread
    /// count.
    pub seed: u64,
    /// Number of worker threads.
    pub threads: usize,
}

/// A configured simulation, ready to run.
#[derive(Debug, Clone)]
pub struct Simulation {
    world: World,
    config: SimConfig,
}

impl Simulation {
    /// Creates a simulation.
    #[must_use]
    pub fn new(world: World, config: SimConfig) -> Self {
        Simulation { world, config }
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyRun`] if `cases == 0` or `threads == 0`.
    /// * Team and population validation errors.
    pub fn run(&self) -> Result<SimulationReport, SimError> {
        if self.config.cases == 0 {
            return Err(SimError::EmptyRun {
                context: "case count",
            });
        }
        if self.config.threads == 0 {
            return Err(SimError::EmptyRun {
                context: "thread count",
            });
        }
        self.world.team.validate()?;
        self.world.population.validate()?;
        let world = &self.world;
        // Intern the population's class set once; workers then tally into
        // dense per-index arrays instead of re-hashing class names per case.
        let universe = Arc::new(self.world.population.universe());
        let span = hmdiv_obs::span("sim.engine.run");
        let tallies = par::run_tasks_scoped(
            "sim.engine",
            self.config.seed,
            self.config.cases,
            self.config.threads,
            || DenseTallies::empty(Arc::clone(&universe)),
            |id, rng, tallies| screen_case(world, id, rng, tallies),
        );
        let report = tallies.into_report();
        if let Some(elapsed_ns) = span.elapsed_ns() {
            record_run_metrics(&report, elapsed_ns);
        }
        drop(span);
        Ok(report)
    }
}

/// Publishes stratified outcome counters for a finished run under the
/// `sim.engine` scope. Only called while observability is enabled for
/// `sim.engine` — the report itself is never altered, so instrumented and
/// uninstrumented runs stay bit-identical.
fn record_run_metrics(report: &SimulationReport, elapsed_ns: u64) {
    hmdiv_obs::counter_add("sim.engine.cases", report.total_cases());
    if elapsed_ns > 0 {
        let per_sec = report.total_cases() as f64 / (elapsed_ns as f64 / 1e9);
        hmdiv_obs::gauge_set("sim.engine.cases_per_sec", per_sec);
    }
    for (side, counts) in [
        ("cancer", report.cancer_counts()),
        ("normal", report.normal_counts()),
    ] {
        for (class, table) in counts.iter() {
            let class = class.name();
            hmdiv_obs::counter_add(&format!("sim.engine.{side}.{class}.cases"), table.total());
            hmdiv_obs::counter_add(
                &format!("sim.engine.{side}.{class}.machine_failures"),
                table.machine_failures(),
            );
            hmdiv_obs::counter_add(
                &format!("sim.engine.{side}.{class}.system_failures"),
                table.human_failures(),
            );
        }
    }
    hmdiv_obs::counter_add(
        "sim.engine.unaided.cancer.cases",
        report.unaided_cancer_total,
    );
    hmdiv_obs::counter_add(
        "sim.engine.unaided.cancer.failures",
        report.unaided_cancer_failures,
    );
    hmdiv_obs::counter_add(
        "sim.engine.unaided.normal.cases",
        report.unaided_normal_total,
    );
    hmdiv_obs::counter_add(
        "sim.engine.unaided.normal.failures",
        report.unaided_normal_failures,
    );
}

/// Screens one case into the worker's dense tallies. The case's RNG comes
/// from the `(seed, case id)` stream ([`par::stream_rng`]), so results are
/// identical for any thread count — only the partition of ids across
/// workers changes.
fn screen_case(world: &World, id: u64, rng: &mut StdRng, tallies: &mut DenseTallies) {
    let case = world.population.sample_case(id, rng);
    let record = world.team.screen(&case, rng);
    match tallies.universe.index_of(record.class.name()) {
        Some(idx) => tallies.record(
            &case.kind,
            idx,
            record.machine_failed,
            record.system_failed,
            &record.reader_recalls,
        ),
        // Unreachable when the record's class comes from the population
        // spec (it always does today); kept as a graceful spill so a future
        // protocol that relabels classes cannot lose counts or panic.
        None => tallies.spill.record(
            &case.kind,
            record.class.clone(),
            record.machine_failed,
            record.system_failed,
            &record.reader_recalls,
        ),
    }
}

/// Per-worker tallies, dense over the population's interned
/// [`ClassUniverse`]: each slot of each array is one class's 2×2 table, so
/// the hot recording path is an index instead of a `BTreeMap` walk. Every
/// cell is an exact integer count, so folding worker tallies and then
/// materialising the keyed [`SimulationReport`] is bit-identical to
/// recording into the report directly.
struct DenseTallies {
    universe: Arc<ClassUniverse>,
    cancer: Vec<JointCounts>,
    normal: Vec<JointCounts>,
    per_reader_cancer: Vec<Vec<JointCounts>>,
    pair_given_ms: Vec<JointCounts>,
    pair_given_mf: Vec<JointCounts>,
    unaided_cancer_failures: u64,
    unaided_cancer_total: u64,
    unaided_normal_failures: u64,
    unaided_normal_total: u64,
    /// Classes outside the universe (defensive; empty in practice).
    spill: SimulationReport,
}

impl DenseTallies {
    fn empty(universe: Arc<ClassUniverse>) -> Self {
        let n = universe.len();
        DenseTallies {
            universe,
            cancer: vec![JointCounts::new(); n],
            normal: vec![JointCounts::new(); n],
            per_reader_cancer: Vec::new(),
            pair_given_ms: vec![JointCounts::new(); n],
            pair_given_mf: vec![JointCounts::new(); n],
            unaided_cancer_failures: 0,
            unaided_cancer_total: 0,
            unaided_normal_failures: 0,
            unaided_normal_total: 0,
            spill: SimulationReport::empty(),
        }
    }

    fn record(
        &mut self,
        kind: &CaseKind,
        idx: u32,
        machine_failed: Option<bool>,
        system_failed: bool,
        reader_recalls: &[bool],
    ) {
        let i = idx as usize;
        if *kind == CaseKind::Cancer {
            if let Some(mf) = machine_failed {
                if self.per_reader_cancer.len() < reader_recalls.len() {
                    let n = self.universe.len();
                    self.per_reader_cancer
                        .resize_with(reader_recalls.len(), || vec![JointCounts::new(); n]);
                }
                for (r, &recalled) in reader_recalls.iter().enumerate() {
                    self.per_reader_cancer[r][i].record(mf, !recalled);
                }
                if reader_recalls.len() >= 2 {
                    let table = if mf {
                        &mut self.pair_given_mf
                    } else {
                        &mut self.pair_given_ms
                    };
                    table[i].record(!reader_recalls[0], !reader_recalls[1]);
                }
            }
        }
        match (kind, machine_failed) {
            (CaseKind::Cancer, Some(mf)) => self.cancer[i].record(mf, system_failed),
            (CaseKind::Normal, Some(mf)) => self.normal[i].record(mf, system_failed),
            (CaseKind::Cancer, None) => {
                self.unaided_cancer_total += 1;
                self.unaided_cancer_failures += u64::from(system_failed);
            }
            (CaseKind::Normal, None) => {
                self.unaided_normal_total += 1;
                self.unaided_normal_failures += u64::from(system_failed);
            }
        }
    }

    /// Materialises the keyed report: non-empty slots become strata under
    /// their interned class, exactly as map-based recording would have
    /// produced them (strata exist only for observed classes).
    fn into_report(self) -> SimulationReport {
        let classes = self.universe.classes();
        let densify = |dense: &[JointCounts]| {
            let mut out: StratifiedCounts<ClassId> = StratifiedCounts::new();
            for (i, table) in dense.iter().enumerate() {
                if table.total() > 0 {
                    out.add_table(classes[i].clone(), *table);
                }
            }
            out
        };
        let mut report = SimulationReport {
            cancer: densify(&self.cancer),
            normal: densify(&self.normal),
            per_reader_cancer: self
                .per_reader_cancer
                .iter()
                .map(|dense| densify(dense))
                .collect(),
            pair_given_ms: densify(&self.pair_given_ms),
            pair_given_mf: densify(&self.pair_given_mf),
            unaided_cancer_failures: self.unaided_cancer_failures,
            unaided_cancer_total: self.unaided_cancer_total,
            unaided_normal_failures: self.unaided_normal_failures,
            unaided_normal_total: self.unaided_normal_total,
        };
        report.merge(self.spill);
        report
    }
}

impl Merge for DenseTallies {
    fn merge(&mut self, other: DenseTallies) {
        for (mine, theirs) in self.cancer.iter_mut().zip(&other.cancer) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.normal.iter_mut().zip(&other.normal) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.pair_given_ms.iter_mut().zip(&other.pair_given_ms) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.pair_given_mf.iter_mut().zip(&other.pair_given_mf) {
            mine.merge(theirs);
        }
        if self.per_reader_cancer.len() < other.per_reader_cancer.len() {
            let n = self.universe.len();
            self.per_reader_cancer
                .resize_with(other.per_reader_cancer.len(), || {
                    vec![JointCounts::new(); n]
                });
        }
        for (mine, theirs) in self
            .per_reader_cancer
            .iter_mut()
            .zip(&other.per_reader_cancer)
        {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.merge(t);
            }
        }
        self.unaided_cancer_failures += other.unaided_cancer_failures;
        self.unaided_cancer_total += other.unaided_cancer_total;
        self.unaided_normal_failures += other.unaided_normal_failures;
        self.unaided_normal_total += other.unaided_normal_total;
        self.spill.merge(other.spill);
    }
}

/// Aggregated outcome tables from a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    cancer: StratifiedCounts<ClassId>,
    normal: StratifiedCounts<ClassId>,
    /// Per-reader cancer-side tables: each reader's OWN recall decision
    /// against the machine event (only the team decision feeds `cancer`).
    per_reader_cancer: Vec<StratifiedCounts<ClassId>>,
    /// Joint (reader 1, reader 2) failure tables on cancer cases where the
    /// machine SUCCEEDED: dims are (r1 failed, r2 failed).
    pair_given_ms: StratifiedCounts<ClassId>,
    /// As above, on cancer cases where the machine FAILED.
    pair_given_mf: StratifiedCounts<ClassId>,
    /// Cases with no machine event (unaided protocol), per side.
    unaided_cancer_failures: u64,
    unaided_cancer_total: u64,
    unaided_normal_failures: u64,
    unaided_normal_total: u64,
}

impl SimulationReport {
    fn empty() -> Self {
        SimulationReport {
            cancer: StratifiedCounts::new(),
            normal: StratifiedCounts::new(),
            per_reader_cancer: Vec::new(),
            pair_given_ms: StratifiedCounts::new(),
            pair_given_mf: StratifiedCounts::new(),
            unaided_cancer_failures: 0,
            unaided_cancer_total: 0,
            unaided_normal_failures: 0,
            unaided_normal_total: 0,
        }
    }

    fn record(
        &mut self,
        kind: &CaseKind,
        class: ClassId,
        machine_failed: Option<bool>,
        system_failed: bool,
        reader_recalls: &[bool],
    ) {
        if *kind == CaseKind::Cancer {
            if let Some(mf) = machine_failed {
                if self.per_reader_cancer.len() < reader_recalls.len() {
                    self.per_reader_cancer
                        .resize_with(reader_recalls.len(), StratifiedCounts::new);
                }
                for (i, &recalled) in reader_recalls.iter().enumerate() {
                    self.per_reader_cancer[i].record(class.clone(), mf, !recalled);
                }
                if reader_recalls.len() >= 2 {
                    let table = if mf {
                        &mut self.pair_given_mf
                    } else {
                        &mut self.pair_given_ms
                    };
                    table.record(class.clone(), !reader_recalls[0], !reader_recalls[1]);
                }
            }
        }
        match (kind, machine_failed) {
            (CaseKind::Cancer, Some(mf)) => self.cancer.record(class, mf, system_failed),
            (CaseKind::Normal, Some(mf)) => self.normal.record(class, mf, system_failed),
            (CaseKind::Cancer, None) => {
                self.unaided_cancer_total += 1;
                self.unaided_cancer_failures += u64::from(system_failed);
            }
            (CaseKind::Normal, None) => {
                self.unaided_normal_total += 1;
                self.unaided_normal_failures += u64::from(system_failed);
            }
        }
    }

    /// The stratified cancer-side (false-negative) tables.
    #[must_use]
    pub fn cancer_counts(&self) -> &StratifiedCounts<ClassId> {
        &self.cancer
    }

    /// Per-reader cancer-side tables: entry `i` records reader `i`'s own
    /// recall decisions against the machine event, regardless of the team's
    /// combined decision. Empty for unaided protocols.
    #[must_use]
    pub fn per_reader_cancer_counts(&self) -> &[StratifiedCounts<ClassId>] {
        &self.per_reader_cancer
    }

    /// The joint (reader 1, reader 2) failure tables on cancer cases,
    /// conditional on the machine outcome. In each [`JointCounts`] the
    /// "machine" dimension holds reader 1's failure and the "human"
    /// dimension reader 2's. Empty unless the team has at least two
    /// readers.
    ///
    /// [`JointCounts`]: hmdiv_prob::counts::JointCounts
    #[must_use]
    pub fn reader_pair_counts(&self, machine_failed: bool) -> &StratifiedCounts<ClassId> {
        if machine_failed {
            &self.pair_given_mf
        } else {
            &self.pair_given_ms
        }
    }

    /// The empirical within-stratum correlation (phi coefficient) of the
    /// two readers' failures for a class and machine outcome — the
    /// *residual* dependence that survives the class refinement. `None`
    /// when inestimable.
    #[must_use]
    pub fn reader_pair_phi(&self, class: &ClassId, machine_failed: bool) -> Option<f64> {
        self.reader_pair_counts(machine_failed)
            .stratum(class)
            .and_then(hmdiv_prob::counts::JointCounts::phi_coefficient)
    }

    /// Point-estimates each reader's personal sequential-model table from
    /// the per-reader records (the raw material for a
    /// [`hmdiv_core::cohort::ReaderCohort`]).
    ///
    /// Classes where a reader's conditionals are inestimable are skipped;
    /// a reader with nothing estimable yields an error entry.
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] if no reader has any estimable class.
    pub fn estimated_reader_models(&self) -> Result<Vec<SequentialModel>, ModelError> {
        let mut out = Vec::with_capacity(self.per_reader_cancer.len());
        for counts in &self.per_reader_cancer {
            let mut builder = ModelParams::builder();
            let mut any = false;
            for (class, table) in counts.iter() {
                let (Ok(p_mf), Ok(hf_ms), Ok(hf_mf)) = (
                    table.p_machine_fails(),
                    table.p_human_fails_given_machine_succeeds(),
                    table.p_human_fails_given_machine_fails(),
                ) else {
                    continue;
                };
                builder = builder.class(
                    class.clone(),
                    ClassParams::new(p_mf.point(), hf_ms.point(), hf_mf.point()),
                );
                any = true;
            }
            if !any {
                return Err(ModelError::Empty {
                    context: "per-reader estimable class set",
                });
            }
            out.push(SequentialModel::new(builder.build()?));
        }
        if out.is_empty() {
            return Err(ModelError::Empty {
                context: "per-reader record set",
            });
        }
        Ok(out)
    }

    /// The stratified normal-side (false-positive) tables.
    #[must_use]
    pub fn normal_counts(&self) -> &StratifiedCounts<ClassId> {
        &self.normal
    }

    /// Total cancer cases screened.
    #[must_use]
    pub fn cancer_cases(&self) -> u64 {
        self.cancer.pooled().total() + self.unaided_cancer_total
    }

    /// Total normal cases screened.
    #[must_use]
    pub fn normal_cases(&self) -> u64 {
        self.normal.pooled().total() + self.unaided_normal_total
    }

    /// Total cases screened.
    #[must_use]
    pub fn total_cases(&self) -> u64 {
        self.cancer_cases() + self.normal_cases()
    }

    /// Empirical false-negative rate (cancer side), or `None` with no cancer
    /// cases.
    #[must_use]
    pub fn fn_rate(&self) -> Option<Probability> {
        let total = self.cancer_cases();
        if total == 0 {
            return None;
        }
        let failures = self.cancer.pooled().human_failures() + self.unaided_cancer_failures;
        Some(Probability::clamped(failures as f64 / total as f64))
    }

    /// Empirical false-positive rate (normal side), or `None` with no
    /// normal cases.
    #[must_use]
    pub fn fp_rate(&self) -> Option<Probability> {
        let total = self.normal_cases();
        if total == 0 {
            return None;
        }
        let failures = self.normal.pooled().human_failures() + self.unaided_normal_failures;
        Some(Probability::clamped(failures as f64 / total as f64))
    }

    /// Point-estimates the sequential-model parameter table from the
    /// cancer-side tables, for classes where all three conditionals are
    /// estimable.
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] if no class has estimable parameters.
    pub fn estimated_model(&self) -> Result<SequentialModel, ModelError> {
        let mut builder = ModelParams::builder();
        let mut any = false;
        for (class, table) in self.cancer.iter() {
            let (Ok(p_mf), Ok(hf_ms), Ok(hf_mf)) = (
                table.p_machine_fails(),
                table.p_human_fails_given_machine_succeeds(),
                table.p_human_fails_given_machine_fails(),
            ) else {
                continue;
            };
            builder = builder.class(
                class.clone(),
                ClassParams::new(p_mf.point(), hf_ms.point(), hf_mf.point()),
            );
            any = true;
        }
        if !any {
            return Err(ModelError::Empty {
                context: "estimable class set",
            });
        }
        Ok(SequentialModel::new(builder.build()?))
    }
}

/// Partial reports from worker blocks fold in task order; every tally is an
/// exact integer count, so the fold is associative and the merged report is
/// identical at any thread count (the [`Merge`] contract).
impl Merge for SimulationReport {
    fn merge(&mut self, other: SimulationReport) {
        if self.per_reader_cancer.len() < other.per_reader_cancer.len() {
            self.per_reader_cancer
                .resize_with(other.per_reader_cancer.len(), StratifiedCounts::new);
        }
        for (mine, theirs) in self
            .per_reader_cancer
            .iter_mut()
            .zip(other.per_reader_cancer)
        {
            mine.merge(theirs);
        }
        self.pair_given_ms.merge(other.pair_given_ms);
        self.pair_given_mf.merge(other.pair_given_mf);
        self.cancer.merge(other.cancer);
        self.normal.merge(other.normal);
        self.unaided_cancer_failures += other.unaided_cancer_failures;
        self.unaided_cancer_total += other.unaided_cancer_total;
        self.unaided_normal_failures += other.unaided_normal_failures;
        self.unaided_normal_total += other.unaided_normal_total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn small_run(cases: u64, seed: u64, threads: usize) -> SimulationReport {
        let world = scenario::default_world().unwrap();
        Simulation::new(
            world,
            SimConfig {
                cases,
                seed,
                threads,
            },
        )
        .run()
        .unwrap()
    }

    #[test]
    fn rejects_empty_runs() {
        let world = scenario::default_world().unwrap();
        assert!(Simulation::new(
            world.clone(),
            SimConfig {
                cases: 0,
                seed: 1,
                threads: 1
            }
        )
        .run()
        .is_err());
        assert!(Simulation::new(
            world,
            SimConfig {
                cases: 10,
                seed: 1,
                threads: 0
            }
        )
        .run()
        .is_err());
    }

    #[test]
    fn case_count_conserved() {
        let report = small_run(5000, 11, 3);
        assert_eq!(report.total_cases(), 5000);
    }

    #[test]
    fn deterministic_for_fixed_seed_any_thread_count() {
        let a = small_run(3000, 42, 2);
        let b = small_run(3000, 42, 2);
        assert_eq!(a, b);
        let c = small_run(3000, 43, 2);
        assert_ne!(a, c, "different seed should differ");
        // Per-case RNG streams make the result independent of threading.
        let serial = small_run(3000, 42, 1);
        let wide = small_run(3000, 42, 7);
        assert_eq!(a, serial);
        assert_eq!(a, wide);
    }

    #[test]
    fn report_identical_across_thread_counts_including_overclamp() {
        // Thread counts above the case count clamp without changing output;
        // the host's actual parallelism is included to exercise a realistic
        // worker split alongside the fixed counts.
        let host = std::thread::available_parallelism().map_or(2, std::num::NonZero::get);
        let reference = small_run(101, 7, 1);
        for threads in [3usize, 7, host, 500] {
            assert_eq!(small_run(101, 7, threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn enriched_world_has_many_cancers() {
        let world = scenario::trial_world().unwrap();
        let report = Simulation::new(
            world,
            SimConfig {
                cases: 4000,
                seed: 5,
                threads: 2,
            },
        )
        .run()
        .unwrap();
        let frac = report.cancer_cases() as f64 / report.total_cases() as f64;
        assert!(frac > 0.3, "{frac}");
        assert!(report.fn_rate().is_some());
        assert!(report.fp_rate().is_some());
    }

    #[test]
    fn estimated_model_recovers_conditionals() {
        let world = scenario::trial_world().unwrap();
        let report = Simulation::new(
            world,
            SimConfig {
                cases: 60_000,
                seed: 9,
                threads: 4,
            },
        )
        .run()
        .unwrap();
        let model = report.estimated_model().unwrap();
        // The difficult class must show a larger coherence index than the
        // easy class: machine failures hurt more exactly where the reader is
        // weakest — the diversity structure built into the simulator.
        let easy_t = model
            .params()
            .class_by_name("easy")
            .unwrap()
            .coherence_index();
        let hard_t = model
            .params()
            .class_by_name("difficult")
            .unwrap()
            .coherence_index();
        assert!(hard_t > easy_t, "{hard_t} vs {easy_t}");
        // Machine fails more on difficult cases.
        let easy_mf = model.params().class_by_name("easy").unwrap().p_mf();
        let hard_mf = model.params().class_by_name("difficult").unwrap().p_mf();
        assert!(hard_mf > easy_mf);
    }

    #[test]
    fn per_reader_tables_recover_individual_behaviour() {
        // In a double-reading world with one expert and one novice, the
        // per-reader tables must separate them: the novice's personal FN
        // conditionals exceed the expert's, even though only the combined
        // decision reaches the team tables.
        use crate::protocol::{DecisionRule, ReadingTeam};
        use crate::reader::Reader;
        let mut world = scenario::trial_world().unwrap();
        world.team = ReadingTeam {
            cadt: world.team.cadt,
            readers: vec![Reader::expert(), Reader::novice()],
            rule: DecisionRule::EitherRecalls,
            procedure: crate::protocol::Procedure::Concurrent,
        };
        let report = Simulation::new(
            world,
            SimConfig {
                cases: 80_000,
                seed: 44,
                threads: 4,
            },
        )
        .run()
        .unwrap();
        assert_eq!(report.per_reader_cancer_counts().len(), 2);
        let models = report.estimated_reader_models().unwrap();
        assert_eq!(models.len(), 2);
        let hf_ms = |m: &SequentialModel, class: &str| {
            m.params()
                .class_by_name(class)
                .unwrap()
                .p_hf_given_ms()
                .value()
        };
        assert!(
            hf_ms(&models[1], "easy") > hf_ms(&models[0], "easy"),
            "novice {} vs expert {}",
            hf_ms(&models[1], "easy"),
            hf_ms(&models[0], "easy")
        );
        // The team's combined failure is below either individual's.
        let team_fn = report.fn_rate().unwrap().value();
        for m in &models {
            let own = report
                .cancer_counts()
                .iter()
                .map(|(c, t)| t.total() as f64 * m.class_failure(c).unwrap().value())
                .sum::<f64>()
                / report.cancer_counts().pooled().total() as f64;
            assert!(team_fn < own, "{team_fn} vs {own}");
        }
    }

    #[test]
    fn per_reader_empty_for_unaided() {
        let world = scenario::unaided_world().unwrap();
        let report = Simulation::new(
            world,
            SimConfig {
                cases: 2000,
                seed: 45,
                threads: 2,
            },
        )
        .run()
        .unwrap();
        assert!(report.per_reader_cancer_counts().is_empty());
        assert!(report.estimated_reader_models().is_err());
    }

    #[test]
    fn unaided_world_counts_flow_to_unaided_tallies() {
        let world = scenario::unaided_world().unwrap();
        let report = Simulation::new(
            world,
            SimConfig {
                cases: 2000,
                seed: 3,
                threads: 2,
            },
        )
        .run()
        .unwrap();
        assert_eq!(report.cancer_counts().pooled().total(), 0);
        assert_eq!(report.total_cases(), 2000);
        assert!(report.fn_rate().is_some() || report.cancer_cases() == 0);
        assert!(report.estimated_model().is_err());
    }
}
