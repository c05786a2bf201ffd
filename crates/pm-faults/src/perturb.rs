//! What one firing does to the system: the mutation each [`FaultKind`]
//! applies through the [`SystemControl`] surface.

use crate::{FaultKind, FaultProcess};
use pm_amoebot::system::SystemControl;
use pm_grid::{Point, Shape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// Particles changed by firings, per effect, accumulated over a run.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    /// Particles removed (pruning included).
    pub removed: usize,
    /// Particles added.
    pub added: usize,
    /// Memories scrambled.
    pub corrupted: usize,
    /// Particles relocated.
    pub relocated: usize,
}

/// Applies one firing of one process to the system, drawing from `rng`,
/// and adds what it changed to `tally`.
pub(crate) fn apply(
    process: &FaultProcess,
    system: &mut dyn SystemControl,
    rng: &mut StdRng,
    tally: &mut Tally,
) {
    match process.kind {
        FaultKind::Removals => {
            let before = system.particle_count();
            if before <= 1 {
                return;
            }
            let mut positions = system.particle_positions();
            positions.shuffle(rng);
            // Clamp: a fault shrinks the system, it never empties it.
            let take = (process.count as usize).min(before - 1);
            for p in positions.into_iter().take(take) {
                system.remove_at(p);
            }
            prune_to_largest_component(system);
            tally.removed += before - system.particle_count();
        }
        FaultKind::Regrow => {
            let mut candidates = frontier(&system.occupied_shape());
            candidates.shuffle(rng);
            let mut added = 0;
            for p in candidates {
                if added == process.count as usize {
                    break;
                }
                if system.add_at(p) {
                    added += 1;
                }
            }
            tally.added += added;
        }
        FaultKind::Corruption => {
            let mut positions = system.particle_positions();
            positions.shuffle(rng);
            for p in positions.into_iter().take(process.count as usize) {
                if system.corrupt_at(p, rng.next_u64()) {
                    tally.corrupted += 1;
                }
            }
        }
        FaultKind::Relocate => {
            for _ in 0..process.count {
                let positions = system.particle_positions();
                if positions.len() <= 1 {
                    break;
                }
                let victim = positions[rng.gen_range(0..positions.len())];
                if !system.remove_at(victim) {
                    continue;
                }
                if !system.is_connected() {
                    // Removing this particle splits the shape: undo (the
                    // re-added particle gets a fresh memory, which is itself
                    // within the adversary's power).
                    system.add_at(victim);
                    continue;
                }
                let targets: Vec<Point> = frontier(&system.occupied_shape())
                    .into_iter()
                    .filter(|p| *p != victim)
                    .collect();
                if targets.is_empty() {
                    system.add_at(victim);
                    continue;
                }
                let target = targets[rng.gen_range(0..targets.len())];
                if system.add_at(target) {
                    tally.relocated += 1;
                } else {
                    system.add_at(victim);
                }
            }
        }
        FaultKind::Cut { column } => {
            let on_column: Vec<Point> = system
                .particle_positions()
                .into_iter()
                .filter(|p| p.q == column)
                .collect();
            if on_column.len() < system.particle_count() {
                for p in on_column {
                    if system.remove_at(p) {
                        tally.removed += 1;
                    }
                }
            }
        }
    }
}

/// Removes every particle outside the largest connected component of the
/// occupied shape (largest by size; ties broken by the lexicographically
/// smallest point, so the choice is deterministic). Returns how many
/// particles were removed.
fn prune_to_largest_component(system: &mut dyn SystemControl) -> usize {
    let shape = system.occupied_shape();
    if shape.is_empty() || shape.is_connected() {
        return 0;
    }
    let components = shape.connected_components();
    let keep: &Shape = components
        .iter()
        .max_by_key(|c| (c.len(), std::cmp::Reverse(c.first_point())))
        .expect("a non-empty shape has at least one component");
    let mut removed = 0;
    for p in shape.iter() {
        if !keep.contains(p) && system.remove_at(p) {
            removed += 1;
        }
    }
    removed
}

/// The empty points adjacent to the occupied shape, sorted (deterministic
/// regrow/relocation candidates).
fn frontier(shape: &Shape) -> Vec<Point> {
    let mut out: Vec<Point> = shape
        .iter()
        .flat_map(|p| p.neighbors())
        .filter(|n| !shape.contains(*n))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    // Perturbations as reset-and-recover fault plans: every firing
    // re-initialises the survivors, so the paper pipeline restarts on the
    // mutated configuration.
    use crate::{FaultKind, FaultPlan, FaultProcess, FaultScript, ResetPolicy};
    use pm_amoebot::scheduler::SeededRandom;
    use pm_core::api::{
        Execution, LeaderElection, PaperPipeline, RunOptions, RunReport, StepOutcome,
    };
    use pm_grid::builder::{dumbbell, hexagon, line};
    use pm_grid::random::random_simply_connected_blob;
    use pm_grid::Shape;

    /// Steps the execution to completion, firing due faults before every
    /// step.
    fn drive(script: &mut FaultScript, mut execution: Execution<'_>) -> RunReport {
        loop {
            script.apply_due(&mut execution);
            if let StepOutcome::Finished(report) = execution.step_round().expect("election runs") {
                return report;
            }
        }
    }

    /// Runs the paper pipeline on `shape` under one reset-and-recover
    /// process seeded with `seed`.
    fn perturbed_run(
        shape: &Shape,
        seed: u64,
        process: FaultProcess,
        opts: RunOptions,
    ) -> (FaultScript, RunReport) {
        let plan = FaultPlan::new(seed)
            .reset(ResetPolicy::Reinitialize)
            .process(process);
        let mut script = FaultScript::new(plan);
        let mut scheduler = SeededRandom::new(7);
        let execution = PaperPipeline
            .start(shape, &mut scheduler, &opts)
            .expect("permitted initial configuration");
        let report = drive(&mut script, execution);
        (script, report)
    }

    #[test]
    fn remove_random_still_elects_a_unique_leader() {
        let (script, report) = perturbed_run(
            &hexagon(5),
            11,
            FaultProcess::once(FaultKind::Removals, 4, 10),
            RunOptions::default(),
        );
        assert_eq!(script.fired(), 1);
        assert!(report.unique_leader());
        assert_eq!(report.undecided, 0);
        assert!(report.final_connected);
        // The removed particles are gone from the final configuration.
        assert!(report.final_positions.len() < report.n);
        assert!(report.final_positions.len() >= report.n - 10);
    }

    #[test]
    fn split_column_yields_one_leader_per_component() {
        let (script, report) = perturbed_run(
            &dumbbell(3, 10),
            0,
            FaultProcess::once(FaultKind::Cut { column: 8 }, 3, 0),
            RunOptions {
                reconnect: false,
                ..RunOptions::default()
            },
        );
        assert_eq!(script.fired(), 1);
        assert!(script.removed() > 0);
        // The cut splits the dumbbell into its two balls; without
        // reconnection each elects a leader of its own.
        assert_eq!(report.leaders, 2);
        assert_eq!(report.undecided, 0);
        assert!(!report.final_connected);
    }

    #[test]
    fn perturbed_runs_are_deterministic() {
        let run = || {
            let (script, report) = perturbed_run(
                &random_simply_connected_blob(150, 9),
                3,
                FaultProcess::once(FaultKind::Removals, 6, 25),
                RunOptions::default(),
            );
            (script.fired(), script.removed(), report)
        };
        let first = run();
        assert_eq!(first.0, 1);
        assert_eq!(first, run());
    }

    #[test]
    fn events_after_termination_never_fire() {
        let (script, report) = perturbed_run(
            &hexagon(2),
            1,
            FaultProcess::once(FaultKind::Removals, 100_000, 5),
            RunOptions::default(),
        );
        assert_eq!(script.fired(), 0);
        assert_eq!(script.removed(), 0);
        assert_eq!(report.final_positions.len(), report.n);
    }

    #[test]
    fn remove_random_never_empties_the_system() {
        let (script, report) = perturbed_run(
            &line(5),
            2,
            FaultProcess::once(FaultKind::Removals, 1, 1_000),
            RunOptions::default(),
        );
        assert_eq!(script.removed(), 4);
        assert!(report.unique_leader());
        assert_eq!(report.final_positions.len(), 1);
    }
}
