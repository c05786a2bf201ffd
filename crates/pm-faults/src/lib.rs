//! Deterministic fault injection and recovery measurement.
//!
//! The workspace's one adversary model. A [`FaultPlan`] is a seeded,
//! serializable schedule of fault *processes* — random removals, column
//! cuts that split the system, regrow (particle additions), state
//! corruption, and move-based relocation — each fired deterministically
//! between rounds through the [`Execution::system`](pm_core::api::Execution::system) mutation surface by a
//! [`FaultScript`]. Whether the adversary also resets the survivors after
//! each firing is the plan's [`ResetPolicy`]: `Reinitialize` is the
//! reset-and-recover baseline (the election restarts on the mutated
//! configuration), while `None` leaves the algorithm to *recover on its
//! own* — the regime self-stabilising leader election (Chalopin–Das–Kokkou,
//! arXiv 2408.08775) is built for, and the regime this crate exists to
//! measure.
//!
//! Recovery is quantified by a [`RecoveryReport`], computed caller-side by
//! [`RecoveryDriver`]: it drives a steppable execution round by round,
//! fires the plan's due faults before each step, and records the rounds
//! between the last fault and stabilisation. [`measure_recovery`] wraps the
//! driver with the fallback policy the benchmarks compare against: try the
//! plan as given (no reset), and if the election errors out or fails to
//! produce a unique leader, rerun with [`ResetPolicy::Reinitialize`] and
//! flag [`RecoveryReport::reset_needed`].
//!
//! **Determinism.** Every firing derives a fresh RNG from
//! `(plan.seed, process index, round)` — no streaming RNG state survives
//! between firings — so replaying a checkpoint that fast-forwards past
//! earlier firings still produces bit-identical faults at later rounds.

use pm_amoebot::scheduler::Scheduler;
use pm_core::api::{ElectionError, LeaderElection, RunOptions, RunReport};
use pm_core::SchedulerSpec;
use pm_grid::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

mod perturb;
mod script;

pub use script::FaultScript;

/// What one fault process does each time it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Remove `count` particles chosen uniformly at random, then prune to
    /// the largest connected component (a fault never empties the system:
    /// at least one particle always survives).
    Removals,
    /// Add up to `count` fresh particles on empty points adjacent to the
    /// occupied shape (regrow), memories initialized on the post-addition
    /// configuration.
    Regrow,
    /// Scramble the memories of `count` random particles through the
    /// algorithm's corruption hook
    /// ([`pm_amoebot::algorithm::Algorithm::corrupt`]); algorithms without
    /// a corruption model ignore it (counted as not applied).
    Corruption,
    /// A move-based adversary: pick `count` random particles and teleport
    /// each to a random empty point adjacent to the remaining shape —
    /// skipping any particle whose removal would disconnect the system, so
    /// the shape stays connected throughout.
    Relocate,
    /// Remove every particle whose head lies on the axial column
    /// `q == column`, unless that would empty the system, keeping **all**
    /// resulting components (no pruning); `count` is ignored. On a shape
    /// the column actually cuts, this splits the system — the split half
    /// of the paper's split-and-reconnect dynamic.
    Cut {
        /// The axial column to cut along.
        column: i32,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::Removals => "removals",
            FaultKind::Regrow => "regrow",
            FaultKind::Corruption => "corruption",
            FaultKind::Relocate => "relocate",
            FaultKind::Cut { column } => return write!(f, "cut[q={column}]"),
        };
        f.write_str(name)
    }
}

/// One deterministic fault process: fires at round `start`, then every
/// `period` rounds until `until` (inclusive). `period == 0` means one-shot
/// (fires at `start` only). Rounds are 0-based within the election's
/// round-driven phase (`dle` for the paper pipeline, `election` for the
/// baselines that run one); a process due after the election terminated
/// simply never fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultProcess {
    /// What the process does when it fires.
    pub kind: FaultKind,
    /// First round the process fires at.
    pub start: u64,
    /// Firing period in rounds; 0 = one-shot.
    pub period: u64,
    /// Last round (inclusive) the process may fire at; ignored for
    /// one-shot processes.
    pub until: u64,
    /// How many particles each firing targets.
    pub count: u32,
}

impl FaultProcess {
    /// A one-shot process firing at `round` only.
    pub fn once(kind: FaultKind, round: u64, count: u32) -> FaultProcess {
        FaultProcess {
            kind,
            start: round,
            period: 0,
            until: round,
            count,
        }
    }

    /// A periodic process firing at `start`, `start + period`, … up to
    /// `until` (inclusive).
    pub fn periodic(
        kind: FaultKind,
        start: u64,
        period: u64,
        until: u64,
        count: u32,
    ) -> FaultProcess {
        FaultProcess {
            kind,
            start,
            period,
            until,
            count,
        }
    }

    /// Whether the process fires at the given phase round.
    pub fn fires_at(&self, round: u64) -> bool {
        if round < self.start {
            return false;
        }
        if self.period == 0 {
            return round == self.start;
        }
        round <= self.until && (round - self.start).is_multiple_of(self.period)
    }

    /// Whether the process can fire at no round at all: a periodic window
    /// that closes (`until`) before it opens (`start`).
    pub fn never_fires(&self) -> bool {
        self.period > 0 && self.until < self.start
    }
}

impl fmt::Display for FaultProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.period == 0 {
            write!(f, "{}(r{},{})", self.kind, self.start, self.count)
        } else {
            write!(
                f,
                "{}(r{}..={}/{},{})",
                self.kind, self.start, self.until, self.period, self.count
            )
        }
    }
}

/// Whether the adversary resets the survivors after each firing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResetPolicy {
    /// No reset: the algorithm must absorb the fault on its own (the
    /// self-stabilisation regime). The default.
    #[default]
    None,
    /// Re-initialize every surviving particle after each firing round: the
    /// adversary resets the system into a fresh permitted initial
    /// configuration and the election restarts there, with rounds,
    /// activations and moves accumulating in the same phase totals. The
    /// labelled reset-and-recover baseline.
    Reinitialize,
}

/// A deterministic seeded fault schedule. Serializable, so scenario specs
/// and server sessions carry plans verbatim and checkpoints replay them
/// bit-identically.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed; each firing reseeds from `(seed, process index, round)`.
    pub seed: u64,
    /// Whether each firing is followed by a global reset.
    pub reset: ResetPolicy,
    /// The fault processes, fired in order on rounds where several are due.
    pub processes: Vec<FaultProcess>,
}

impl FaultPlan {
    /// A plan with the given seed and no processes (add with
    /// [`FaultPlan::process`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            reset: ResetPolicy::None,
            processes: Vec::new(),
        }
    }

    /// Builder: appends one process.
    #[must_use]
    pub fn process(mut self, process: FaultProcess) -> FaultPlan {
        self.processes.push(process);
        self
    }

    /// Builder: sets the reset policy.
    #[must_use]
    pub fn reset(mut self, reset: ResetPolicy) -> FaultPlan {
        self.reset = reset;
        self
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }
}

/// Mixes the plan seed, process index and round into one firing seed
/// (SplitMix64 chain): every firing gets an independent deterministic RNG,
/// and no RNG state survives between firings.
fn firing_seed(seed: u64, process: u64, round: u64) -> u64 {
    fn splitmix(state: u64) -> u64 {
        let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    splitmix(seed ^ splitmix(process ^ splitmix(round)))
}

/// The outcome of one fault-injected run: what the faults did and how long
/// the algorithm took to come back from the last one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The algorithm that ran.
    pub algorithm: String,
    /// Fault firings over the run.
    pub faults_fired: usize,
    /// Particles removed by faults (pruning included).
    pub removed: usize,
    /// Particles added by regrow faults.
    pub added: usize,
    /// Memories scrambled by corruption faults.
    pub corrupted: usize,
    /// Particles relocated by move faults.
    pub relocated: usize,
    /// Phase round of the last firing (`None` if nothing fired).
    pub last_fault_round: Option<u64>,
    /// Rounds from the last firing to completion — the recovery cost. Zero
    /// if no fault fired.
    pub recovery_rounds: u64,
    /// Total rounds of the whole run.
    pub total_rounds: u64,
    /// Whether recovery required falling back to reset-and-recover
    /// ([`measure_recovery`] sets this; a plain [`RecoveryDriver`] run
    /// reports the plan's own policy outcome with `false`).
    pub reset_needed: bool,
    /// Whether the run ended with a unique leader and no undecided
    /// particles.
    pub recovered: bool,
    /// Leaders in the final configuration.
    pub leaders: usize,
    /// Undecided particles in the final configuration.
    pub undecided: usize,
}

/// Drives one election under a [`FaultPlan`] from the caller's side — a
/// loop over [`Execution::step_round`](pm_core::api::Execution::step_round)
/// and [`Execution::status`](pm_core::api::Execution::status), firing
/// due faults before each step — and measures recovery.
#[derive(Clone, Debug)]
pub struct RecoveryDriver {
    plan: FaultPlan,
}

impl RecoveryDriver {
    /// A driver for the given plan.
    pub fn new(plan: FaultPlan) -> RecoveryDriver {
        RecoveryDriver { plan }
    }

    /// Runs the election to completion under the plan and reports recovery.
    /// Returns the [`RecoveryReport`] together with the election's own
    /// [`RunReport`].
    ///
    /// # Errors
    ///
    /// Whatever the underlying election surfaces — notably `Stuck` when an
    /// algorithm without self-stabilisation is asked to absorb faults
    /// without a reset ([`measure_recovery`] turns that into a
    /// reset-and-recover fallback).
    pub fn run(
        &self,
        algorithm: &dyn LeaderElection,
        shape: &Shape,
        scheduler: &mut (dyn Scheduler + Send),
        opts: &RunOptions,
    ) -> Result<(RecoveryReport, RunReport), ElectionError> {
        let mut script = FaultScript::new(self.plan.clone());
        let mut execution = algorithm.start(shape, scheduler, opts)?;
        let report = loop {
            script.apply_due(&mut execution);
            if let pm_core::api::StepOutcome::Finished(report) = execution.step_round()? {
                break report;
            }
        };
        let status = execution.status();
        debug_assert!(status.finished);
        let recovery_rounds = if script.fired() > 0 {
            report
                .total_rounds
                .saturating_sub(script.rounds_at_last_fault())
        } else {
            0
        };
        let recovery = RecoveryReport {
            algorithm: report.algorithm.clone(),
            faults_fired: script.fired(),
            removed: script.removed(),
            added: script.added(),
            corrupted: script.corrupted(),
            relocated: script.relocated(),
            last_fault_round: script.last_fault_round(),
            recovery_rounds,
            total_rounds: report.total_rounds,
            reset_needed: false,
            recovered: report.leaders == 1 && report.undecided == 0,
            leaders: report.leaders,
            undecided: report.undecided,
        };
        Ok((recovery, report))
    }
}

/// Measures recovery with the reset fallback the benchmarks compare: run
/// the plan as given; if the election errors out or does not end with a
/// unique leader, rerun the identical schedule under
/// [`ResetPolicy::Reinitialize`] (a fresh scheduler from `scheduler`, so
/// both attempts see the same activation stream) and flag
/// [`RecoveryReport::reset_needed`].
///
/// # Errors
///
/// Only if even the reset-and-recover rerun fails.
pub fn measure_recovery(
    algorithm: &dyn LeaderElection,
    shape: &Shape,
    scheduler: &SchedulerSpec,
    opts: &RunOptions,
    plan: &FaultPlan,
) -> Result<RecoveryReport, ElectionError> {
    let driver = RecoveryDriver::new(plan.clone());
    match driver.run(algorithm, shape, &mut *scheduler.build(), opts) {
        Ok((recovery, _)) if recovery.recovered => Ok(recovery),
        first => {
            if plan.reset == ResetPolicy::Reinitialize {
                // The fallback *is* the plan; nothing else to try.
                return first.map(|(recovery, _)| recovery);
            }
            let retry = plan.clone().reset(ResetPolicy::Reinitialize);
            let (mut recovery, _) =
                RecoveryDriver::new(retry).run(algorithm, shape, &mut *scheduler.build(), opts)?;
            recovery.reset_needed = true;
            Ok(recovery)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_baselines::SelfStabMaxElection;
    use pm_core::api::PaperPipeline;
    use pm_grid::builder::{hexagon, line, parallelogram};

    fn corruption_plan() -> FaultPlan {
        FaultPlan::new(7).process(FaultProcess::once(FaultKind::Corruption, 3, 8))
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let p = FaultProcess::once(FaultKind::Removals, 5, 2);
        assert!(!p.fires_at(4));
        assert!(p.fires_at(5));
        assert!(!p.fires_at(6));
        assert!(!p.never_fires());
    }

    #[test]
    fn periodic_fires_on_the_grid_up_to_until() {
        let p = FaultProcess::periodic(FaultKind::Regrow, 2, 3, 9, 1);
        let rounds: Vec<u64> = (0..15).filter(|r| p.fires_at(*r)).collect();
        assert_eq!(rounds, [2, 5, 8]);

        // Period 1 fires every round of the window.
        let every = FaultProcess::periodic(FaultKind::Corruption, 1, 1, 3, 1);
        let rounds: Vec<u64> = (0..6).filter(|r| every.fires_at(*r)).collect();
        assert_eq!(rounds, [1, 2, 3]);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::new(42)
            .reset(ResetPolicy::Reinitialize)
            .process(FaultProcess::once(FaultKind::Removals, 4, 3))
            .process(FaultProcess::periodic(FaultKind::Relocate, 0, 2, 10, 1));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert!(!back.is_empty());
        assert!(FaultPlan::new(0).is_empty());
        let cut =
            FaultPlan::new(1).process(FaultProcess::once(FaultKind::Cut { column: -3 }, 2, 0));
        let json = serde_json::to_string(&cut).unwrap();
        assert_eq!(serde_json::from_str::<FaultPlan>(&json).unwrap(), cut);
    }

    #[test]
    fn firing_seeds_are_independent_per_process_and_round() {
        let a = firing_seed(1, 0, 5);
        assert_eq!(a, firing_seed(1, 0, 5));
        assert_ne!(a, firing_seed(1, 1, 5));
        assert_ne!(a, firing_seed(1, 0, 6));
        assert_ne!(a, firing_seed(2, 0, 5));
    }

    #[test]
    fn removals_never_empty_a_tiny_system() {
        // Satellite (a) on the fault path: count far beyond n leaves at
        // least one survivor. (Round 0: a two-particle line stabilises
        // after a single round, so later faults would never fire.)
        let plan = FaultPlan::new(3).process(FaultProcess::once(FaultKind::Removals, 0, 1000));
        let (recovery, report) = RecoveryDriver::new(plan)
            .run(
                &SelfStabMaxElection,
                &line(2),
                &mut *SchedulerSpec::RoundRobin.build(),
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(recovery.removed, 1);
        assert_eq!(report.n, 2);
        assert!(recovery.recovered);
        assert_eq!(recovery.leaders, 1);
    }

    #[test]
    fn cuts_never_empty_the_system() {
        // A one-column parallelogram lies entirely on column 0: cutting it
        // would empty the system, so the cut removes nothing.
        let plan = FaultPlan::new(0)
            .reset(ResetPolicy::Reinitialize)
            .process(FaultProcess::once(FaultKind::Cut { column: 0 }, 0, 0));
        let (recovery, report) = RecoveryDriver::new(plan)
            .run(
                &SelfStabMaxElection,
                &parallelogram(1, 5),
                &mut *SchedulerSpec::RoundRobin.build(),
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(recovery.faults_fired, 1);
        assert_eq!(recovery.removed, 0);
        assert_eq!(report.final_positions.len(), 5);
        assert!(recovery.recovered);
    }

    #[test]
    fn regrow_adds_particles_and_the_election_still_stabilises() {
        let plan =
            FaultPlan::new(11).process(FaultProcess::periodic(FaultKind::Regrow, 2, 2, 6, 2));
        let (recovery, _) = RecoveryDriver::new(plan)
            .run(
                &SelfStabMaxElection,
                &hexagon(2),
                &mut *SchedulerSpec::SeededRandom(5).build(),
                &RunOptions::default(),
            )
            .unwrap();
        assert!(recovery.added > 0);
        assert!(recovery.recovered, "{recovery:?}");
        assert!(recovery.recovery_rounds > 0);
    }

    #[test]
    fn relocation_keeps_the_system_connected_and_recoverable() {
        let plan =
            FaultPlan::new(23).process(FaultProcess::periodic(FaultKind::Relocate, 1, 2, 9, 2));
        let (recovery, report) = RecoveryDriver::new(plan)
            .run(
                &SelfStabMaxElection,
                &hexagon(2),
                &mut *SchedulerSpec::SeededRandom(9).build(),
                &RunOptions::default(),
            )
            .unwrap();
        assert!(recovery.relocated > 0);
        assert!(recovery.recovered, "{recovery:?}");
        // Relocation preserves the particle count.
        assert_eq!(report.n, hexagon(2).len());
    }

    #[test]
    fn scripts_are_deterministic_across_runs() {
        let plan = FaultPlan::new(99)
            .process(FaultProcess::periodic(FaultKind::Removals, 2, 3, 11, 1))
            .process(FaultProcess::periodic(FaultKind::Corruption, 3, 3, 12, 4));
        let run = || {
            RecoveryDriver::new(plan.clone())
                .run(
                    &SelfStabMaxElection,
                    &hexagon(3),
                    &mut *SchedulerSpec::SeededRandom(17).build(),
                    &RunOptions::default(),
                )
                .unwrap()
        };
        let (first, first_report) = run();
        let (second, second_report) = run();
        assert_eq!(first, second);
        assert_eq!(first_report, second_report);
        assert!(first.faults_fired > 0);
    }

    #[test]
    fn self_stabilising_election_recovers_from_corruption_without_reset() {
        // The acceptance-criteria demonstration: a corruption fault under
        // ResetPolicy::None, absorbed without reinitialize.
        let recovery = measure_recovery(
            &SelfStabMaxElection,
            &hexagon(3),
            &SchedulerSpec::SeededRandom(13),
            &RunOptions::default(),
            &corruption_plan(),
        )
        .unwrap();
        assert!(recovery.recovered, "{recovery:?}");
        assert!(!recovery.reset_needed, "{recovery:?}");
        assert!(recovery.corrupted > 0);
        assert_eq!(recovery.leaders, 1);
        assert_eq!(recovery.undecided, 0);
    }

    #[test]
    fn reset_fallback_is_flagged_for_non_stabilising_algorithms() {
        // Corrupting DLE memories mid-run breaks the election (it has no
        // certificate to detect the damage); the measurement falls back to
        // reset-and-recover and says so.
        let recovery = measure_recovery(
            &PaperPipeline,
            &hexagon(3),
            &SchedulerSpec::SeededRandom(3),
            &RunOptions::default(),
            &corruption_plan(),
        )
        .unwrap();
        assert!(recovery.recovered, "{recovery:?}");
        assert!(recovery.reset_needed, "{recovery:?}");
        assert!(recovery.corrupted > 0);
    }

    #[test]
    fn reinitialize_plans_report_their_own_policy_outcome() {
        let plan = FaultPlan::new(5)
            .reset(ResetPolicy::Reinitialize)
            .process(FaultProcess::once(FaultKind::Removals, 3, 6));
        let recovery = measure_recovery(
            &PaperPipeline,
            &hexagon(3),
            &SchedulerSpec::SeededRandom(3),
            &RunOptions::default(),
            &plan,
        )
        .unwrap();
        assert!(recovery.recovered);
        assert!(recovery.removed > 0);
        // The plan itself asked for resets, so no fallback was needed.
        assert!(!recovery.reset_needed);
    }

    #[test]
    fn faults_scheduled_after_completion_never_fire() {
        let plan = FaultPlan::new(1).process(FaultProcess::once(FaultKind::Removals, 1_000_000, 3));
        let (recovery, _) = RecoveryDriver::new(plan)
            .run(
                &SelfStabMaxElection,
                &hexagon(2),
                &mut *SchedulerSpec::RoundRobin.build(),
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(recovery.faults_fired, 0);
        assert_eq!(recovery.recovery_rounds, 0);
        assert_eq!(recovery.last_fault_round, None);
        assert!(recovery.recovered);
    }
}
