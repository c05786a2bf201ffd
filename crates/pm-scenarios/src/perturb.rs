//! Declarative mid-run fault injection.
//!
//! A [`PerturbationSpec`] names an adversarial event at a specific round of
//! the election's round-driven phase (`dle` for the paper pipeline,
//! `election` for the erosion baseline): remove particles at random, or cut
//! the configuration along a grid column (the split/reconnect dynamic of the
//! paper's reconnection variant). [`PerturbationScript::apply_due`] is
//! called by whoever steps an [`Execution`] (the session scheduler's step
//! hook, or the CLI's `trace` loop) and mutates the particle system through
//! [`Execution::system`] exactly before the scripted rounds run — the
//! mid-run mutations flow through the same invalidate-on-mutation analysis
//! cache as ordinary shape edits, and the fault logic sits in the caller's
//! loop over [`Execution::step_round`], not in an observer callback.
//!
//! **Reset-and-recover semantics.** After mutating, every perturbation
//! re-initializes the surviving particles from the perturbed configuration:
//! the adversary resets the system into a fresh permitted initial
//! configuration and the algorithm restarts its election there, modelling
//! the recovery behaviour that self-stabilising leader election (Chalopin,
//! Das, Kokkou — arXiv 2408.08775) automates. This keeps every perturbed
//! run well-defined for algorithms whose invariants assume a clean start
//! (DLE's eligibility flags), while rounds, activations and moves keep
//! accumulating in the same phase totals — the *cost of recovery* is exactly
//! what the report shows.

use pm_amoebot::system::SystemControl;
use pm_core::api::{phase, Execution};
use pm_faults::prune_to_largest_component;
use pm_grid::Point;
use pm_telemetry::trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One scripted adversarial event. Rounds are 0-based within the election's
/// round-driven phase; an event scheduled after the election already
/// terminated simply never fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PerturbationSpec {
    /// At the start of round `round`, remove `count` particles chosen
    /// uniformly at random (seeded), then prune to the largest connected
    /// component (so the survivors form a permitted initial configuration
    /// and the election still elects a unique leader), then reset.
    RemoveRandom { round: u64, count: u32, seed: u64 },
    /// At the start of round `round`, remove every particle whose head lies
    /// on the axial column `q == column`, keeping **all** resulting
    /// components, then reset. On a shape the column actually cuts, this
    /// splits the system: each component elects its own leader, which the
    /// report records as `leaders > 1` (run with `reconnect: false`).
    SplitColumn { round: u64, column: i32 },
}

impl PerturbationSpec {
    /// The 0-based phase round at which the event fires.
    pub fn round(&self) -> u64 {
        match self {
            PerturbationSpec::RemoveRandom { round, .. } => *round,
            PerturbationSpec::SplitColumn { round, .. } => *round,
        }
    }

    /// Applies the event to a running system; returns how many particles
    /// were removed. Refuses to remove the last particle (the event shrinks
    /// the system, it never empties it); a removal count of zero still
    /// resets, which is itself a legitimate adversarial event.
    pub fn apply(&self, system: &mut dyn SystemControl) -> usize {
        let before = system.particle_count();
        if before == 0 {
            return 0;
        }
        match *self {
            PerturbationSpec::RemoveRandom { count, seed, .. } => {
                let mut positions = system.particle_positions();
                let mut rng = StdRng::seed_from_u64(seed);
                positions.shuffle(&mut rng);
                let take = (count as usize).min(before - 1);
                for p in positions.into_iter().take(take) {
                    system.remove_at(p);
                }
                prune_to_largest_component(system);
            }
            PerturbationSpec::SplitColumn { column, .. } => {
                let on_column: Vec<Point> = system
                    .particle_positions()
                    .into_iter()
                    .filter(|p| p.q == column)
                    .collect();
                if on_column.len() < before {
                    for p in on_column {
                        system.remove_at(p);
                    }
                }
            }
        }
        system.reinitialize();
        before - system.particle_count()
    }
}

impl fmt::Display for PerturbationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PerturbationSpec::RemoveRandom { round, count, seed } => {
                write!(f, "remove-random(r{round},{count};{seed})")
            }
            PerturbationSpec::SplitColumn { round, column } => {
                write!(f, "split-column(r{round},q={column})")
            }
        }
    }
}

/// A perturbation script bound to one run of a steppable [`Execution`]:
/// fires each event at most once, exactly before the first
/// phase round matching its `round` field. Events scheduled for rounds the
/// election never reaches simply never fire.
#[derive(Clone, Debug)]
pub struct PerturbationScript {
    specs: Vec<PerturbationSpec>,
    applied: Vec<bool>,
    /// Total particles removed by fired events.
    removed: usize,
    /// Number of events that have fired.
    fired: usize,
}

impl PerturbationScript {
    /// A script firing the given events.
    pub fn new(specs: Vec<PerturbationSpec>) -> PerturbationScript {
        let applied = vec![false; specs.len()];
        PerturbationScript {
            specs,
            applied,
            removed: 0,
            fired: 0,
        }
    }

    /// Appends an event to a live script — the server's `perturb` verb
    /// injects faults into running sessions through this. The new event
    /// obeys the same firing rule as scripted ones: it fires exactly before
    /// the first round-driven phase round matching its `round`, or never.
    pub fn push(&mut self, spec: PerturbationSpec) {
        self.specs.push(spec);
        self.applied.push(false);
    }

    /// The script's events, original and appended alike (a restored session
    /// must replay injected events too, so checkpoints persist these).
    pub fn specs(&self) -> &[PerturbationSpec] {
        &self.specs
    }

    /// Total particles removed by events fired so far.
    pub fn removed(&self) -> usize {
        self.removed
    }

    /// Number of events fired so far.
    pub fn fired(&self) -> usize {
        self.fired
    }

    /// Fires every pending event scheduled for the round the execution is
    /// about to run ([`Execution::next_round`]); a no-op at phase
    /// boundaries, during closed-form phases and after completion.
    /// Returns how many events fired.
    pub fn apply_due(&mut self, execution: &mut Execution<'_>) -> usize {
        // `next_round` (not `status()`): polled every round, and the full
        // status snapshot tallies per-particle decision counts.
        let Some((phase_name, round)) = execution.next_round() else {
            return 0;
        };
        // Perturbations target the election's round-driven phase; OBD and
        // Collect are simulated in closed form and never expose a system.
        if phase_name != phase::DLE && phase_name != phase::ELECTION {
            return 0;
        }
        if !self
            .specs
            .iter()
            .zip(&self.applied)
            .any(|(spec, applied)| !applied && spec.round() == round)
        {
            return 0;
        }
        let mut system = execution
            .system()
            .expect("an upcoming round implies a live system");
        let mut fired_now = 0;
        for (spec, applied) in self.specs.iter().zip(self.applied.iter_mut()) {
            if !*applied && spec.round() == round {
                *applied = true;
                self.removed += spec.apply(&mut *system);
                self.fired += 1;
                fired_now += 1;
                // Out-of-band, like all telemetry: the firing lands on the
                // trace timeline so drained traces show the recovery rounds
                // in causal order after their cause.
                if trace::enabled() {
                    trace::instant("perturb", format!("perturb:{spec}"));
                }
            }
        }
        fired_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::GeneratorSpec;
    use pm_amoebot::scheduler::SeededRandom;
    use pm_core::api::{LeaderElection, PaperPipeline, RunOptions, RunReport, StepOutcome};

    /// Steps the execution to completion, firing due events before every
    /// step.
    fn drive(script: &mut PerturbationScript, mut execution: Execution<'_>) -> RunReport {
        loop {
            script.apply_due(&mut execution);
            if let StepOutcome::Finished(report) = execution.step_round().expect("election runs") {
                return report;
            }
        }
    }

    fn perturbed_run(
        spec: GeneratorSpec,
        perturbations: Vec<PerturbationSpec>,
        opts: RunOptions,
    ) -> RunReport {
        let shape = spec.build();
        let mut script = PerturbationScript::new(perturbations);
        let mut scheduler = SeededRandom::new(7);
        let execution = PaperPipeline
            .start(&shape, &mut scheduler, &opts)
            .expect("permitted initial configuration");
        drive(&mut script, execution)
    }

    #[test]
    fn remove_random_still_elects_a_unique_leader() {
        let report = perturbed_run(
            GeneratorSpec::Hexagon { radius: 5 },
            vec![PerturbationSpec::RemoveRandom {
                round: 4,
                count: 10,
                seed: 11,
            }],
            RunOptions::default(),
        );
        assert!(report.unique_leader());
        assert_eq!(report.undecided, 0);
        assert!(report.final_connected);
        // The removed particles are gone from the final configuration.
        assert!(report.final_positions.len() < report.n);
        assert!(report.final_positions.len() >= report.n - 10);
    }

    #[test]
    fn split_column_yields_one_leader_per_component() {
        let report = perturbed_run(
            GeneratorSpec::Dumbbell {
                radius: 3,
                corridor: 10,
            },
            vec![PerturbationSpec::SplitColumn {
                round: 3,
                column: 8,
            }],
            RunOptions {
                reconnect: false,
                ..RunOptions::default()
            },
        );
        // The cut splits the dumbbell into its two balls; each elects a
        // leader independently.
        assert_eq!(report.leaders, 2);
        assert_eq!(report.undecided, 0);
        assert!(!report.final_connected);
    }

    #[test]
    fn perturbed_runs_are_deterministic() {
        let run = || {
            perturbed_run(
                GeneratorSpec::SimplyConnectedBlob { n: 150, seed: 9 },
                vec![PerturbationSpec::RemoveRandom {
                    round: 6,
                    count: 25,
                    seed: 3,
                }],
                RunOptions::default(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn events_after_termination_never_fire() {
        let shape = GeneratorSpec::Hexagon { radius: 2 }.build();
        let mut script = PerturbationScript::new(vec![PerturbationSpec::RemoveRandom {
            round: 100_000,
            count: 5,
            seed: 1,
        }]);
        let mut scheduler = SeededRandom::new(7);
        let execution = PaperPipeline
            .start(&shape, &mut scheduler, &RunOptions::default())
            .unwrap();
        let report = drive(&mut script, execution);
        assert_eq!(script.fired(), 0);
        assert_eq!(script.removed(), 0);
        assert_eq!(report.final_positions.len(), report.n);
    }

    #[test]
    fn remove_random_never_empties_the_system() {
        let report = perturbed_run(
            GeneratorSpec::Line { n: 5 },
            vec![PerturbationSpec::RemoveRandom {
                round: 1,
                count: 1_000,
                seed: 2,
            }],
            RunOptions::default(),
        );
        assert!(report.unique_leader());
        assert_eq!(report.final_positions.len(), 1);
    }
}
