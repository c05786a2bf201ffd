//! The checkpoint determinism matrix: for every algorithm × scheduler pair,
//! snapshot a session early, midway and one step/round before the end,
//! restore each snapshot onto a freshly started execution (round-tripping
//! the checkpoint through JSON, as the wire would), finish, and require the
//! final `RunReport` to be **byte-identical** to the uninterrupted run's.
//! Error outcomes must survive the same round trip (erosion's stall).

use pm_core::api::{ElectionError, Execution, RunReport};
use pm_core::session::{no_hook, ExecutionCheckpoint, Goal, SessionScheduler};
use pm_core::SchedulerSpec;
use pm_scenarios::{AlgorithmSpec, GeneratorSpec, ScenarioSpec};

fn start(spec: &ScenarioSpec) -> Execution<'static> {
    spec.algorithm
        .instance()
        .start_owned(&spec.build_shape(), spec.scheduler.build(), &spec.options)
        .expect("valid configuration")
}

/// Runs the scenario to completion in a session and returns the outcome
/// plus the bookkeeping totals (steps, rounds).
fn complete(spec: &ScenarioSpec) -> (Result<RunReport, ElectionError>, u64, u64) {
    let mut scheduler: SessionScheduler = SessionScheduler::new(32);
    let id = scheduler.admit(start(spec), ());
    scheduler.set_goal(id, Goal::Complete);
    scheduler.drive(id, &no_hook);
    let view = scheduler.view(id).expect("session exists");
    let outcome = scheduler.outcome(id).expect("driven to outcome").clone();
    (outcome, view.steps, view.rounds)
}

/// Checkpoints a fresh run of `spec` after exactly `rounds` rounds (round
/// -driven algorithms) or exactly `steps` steps (closed-form ones).
fn checkpoint_at(spec: &ScenarioSpec, rounds: Option<u64>, steps: u64) -> ExecutionCheckpoint {
    match rounds {
        Some(target) => {
            let mut scheduler: SessionScheduler = SessionScheduler::new(16);
            let id = scheduler.admit(start(spec), ());
            scheduler.set_goal(id, Goal::Rounds(target));
            scheduler.drive(id, &no_hook);
            assert_eq!(scheduler.view(id).unwrap().rounds, target);
            scheduler.checkpoint(id).expect("session exists")
        }
        None => {
            // Closed-form algorithms never complete a discrete round, so
            // the cursor is steered by the slice budget instead: one sweep
            // of a slice-`steps` scheduler executes exactly `steps` steps.
            let mut scheduler: SessionScheduler = SessionScheduler::new(steps);
            let id = scheduler.admit(start(spec), ());
            scheduler.set_goal(id, Goal::Complete);
            scheduler.sweep(&no_hook);
            assert_eq!(scheduler.view(id).unwrap().steps, steps);
            scheduler.checkpoint(id).expect("session exists")
        }
    }
}

/// Restores the checkpoint (after a JSON round trip) onto a fresh execution
/// and finishes the session.
fn restore_and_finish(
    spec: &ScenarioSpec,
    checkpoint: &ExecutionCheckpoint,
) -> Result<RunReport, ElectionError> {
    let wire = serde_json::to_string(checkpoint).expect("checkpoint serializes");
    let checkpoint: ExecutionCheckpoint =
        serde_json::from_str(&wire).expect("checkpoint deserializes");
    let mut scheduler: SessionScheduler = SessionScheduler::new(32);
    let id = scheduler
        .restore(start(spec), (), &checkpoint, &no_hook)
        .expect("replay validates");
    scheduler.set_goal(id, Goal::Complete);
    scheduler.drive(id, &no_hook);
    scheduler.outcome(id).expect("driven to outcome").clone()
}

/// The `{1, mid, last-1}` cursor targets within `total`.
fn targets(total: u64) -> Vec<u64> {
    let mut picks = vec![1, total / 2, total.saturating_sub(1)];
    picks.retain(|&t| t >= 1 && t < total);
    picks.dedup();
    picks
}

#[test]
fn every_algorithm_and_scheduler_restores_byte_identically() {
    let algorithms = [
        AlgorithmSpec::Pipeline,
        AlgorithmSpec::Erosion,
        AlgorithmSpec::RandomizedBoundary,
        AlgorithmSpec::QuadraticBoundary,
    ];
    let schedulers = [SchedulerSpec::RoundRobin, SchedulerSpec::SeededRandom(5)];
    let mut matrix = 0;
    for algorithm in algorithms {
        for scheduler in schedulers {
            let spec = ScenarioSpec::new("matrix", GeneratorSpec::Hexagon { radius: 4 })
                .algorithm(algorithm)
                .scheduler(scheduler);
            let (reference, steps, rounds) = complete(&spec);
            let reference = reference.expect("hole-free hexagon elects");
            let reference_bytes = serde_json::to_string(&reference).expect("report serializes");

            // Round-driven algorithms pin round cursors; closed-form ones
            // (which never emit a discrete round) pin step cursors.
            let round_driven = rounds >= 3;
            let cursor_total = if round_driven { rounds } else { steps };
            for target in targets(cursor_total) {
                let checkpoint = if round_driven {
                    checkpoint_at(&spec, Some(target), 0)
                } else {
                    checkpoint_at(&spec, None, target)
                };
                assert_eq!(checkpoint.algorithm, spec.algorithm.name());
                let restored =
                    restore_and_finish(&spec, &checkpoint).expect("restored session elects");
                let restored_bytes = serde_json::to_string(&restored).expect("report serializes");
                assert_eq!(
                    restored_bytes,
                    reference_bytes,
                    "{} / {}: restore at cursor {target} diverged",
                    spec.algorithm.name(),
                    spec.scheduler.name()
                );
                matrix += 1;
            }
        }
    }
    assert!(matrix >= 4 * 2 * 2, "only {matrix} matrix cells exercised");
}

#[test]
fn error_outcomes_survive_checkpoint_restore() {
    // Erosion legitimately stalls on shapes with holes; a session restored
    // from a mid-run checkpoint must reproduce the identical error.
    let spec = ScenarioSpec::new("stall", GeneratorSpec::Annulus { outer: 4, inner: 1 })
        .algorithm(AlgorithmSpec::Erosion)
        .scheduler(SchedulerSpec::RoundRobin);
    let (reference, _, rounds) = complete(&spec);
    let reference = reference.expect_err("erosion stalls on the annulus");
    assert!(matches!(reference, ElectionError::Stuck { .. }));
    for target in targets(rounds) {
        let checkpoint = checkpoint_at(&spec, Some(target), 0);
        let restored =
            restore_and_finish(&spec, &checkpoint).expect_err("restored session stalls too");
        assert_eq!(restored, reference, "error diverged at round {target}");
    }
}

#[test]
fn finished_checkpoints_restore_without_extra_steps() {
    let spec = ScenarioSpec::new("done", GeneratorSpec::Hexagon { radius: 3 });
    let (reference, steps, _) = complete(&spec);
    let reference = reference.expect("hexagon elects");
    let mut scheduler: SessionScheduler = SessionScheduler::new(32);
    let id = scheduler.admit(start(&spec), ());
    scheduler.set_goal(id, Goal::Complete);
    scheduler.drive(id, &no_hook);
    let checkpoint = scheduler.checkpoint(id).expect("session exists");
    assert!(checkpoint.finished);
    assert_eq!(checkpoint.steps, steps);
    let restored = restore_and_finish(&spec, &checkpoint).expect("restores finished");
    assert_eq!(restored, reference);
}
