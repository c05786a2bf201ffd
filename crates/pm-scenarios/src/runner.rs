//! Driving scenario suites through the session scheduler.

use crate::spec::{apply_faults, ScenarioSpec};
use pm_core::api::RunReport;
use pm_core::session::{Goal, SessionId, SessionScheduler};
use serde::{Deserialize, Serialize};

/// The outcome of one scenario: either a full [`RunReport`] or the error the
/// run surfaced (an *expected* datum for assumption-violation scenarios,
/// e.g. erosion on shapes with holes).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub scenario: String,
    /// The algorithm's stable name.
    pub algorithm: String,
    /// The generator label (family + parameters).
    pub generator: String,
    /// Initial particle count.
    pub n: usize,
    /// Number of fault-plan processes scheduled by the scenario.
    pub faults: usize,
    /// Whether the run produced a report.
    pub ok: bool,
    /// The election report (`null` when the run errored).
    pub report: Option<RunReport>,
    /// The error message (`null` when the run succeeded).
    pub error: Option<String>,
}

/// Runs a suite on a [`SessionScheduler`] sharding its sweep over
/// `threads` workers: every scenario is admitted with [`Goal::Complete`]
/// and an unbounded slice, with its fault plan fired before each step by
/// [`apply_faults`] exactly as the server does.
///
/// Results come back in scenario order and are **bit-identical across thread
/// counts and repeated runs**: every shape, scheduler and fault firing is
/// seeded, sessions never interact, and each scenario's report is
/// read back by its own session id. A scenario that fails to start
/// ([`ScenarioSpec::start`]) reports the error at its own index.
pub fn run_suite(specs: &[&ScenarioSpec], threads: usize) -> Vec<ScenarioReport> {
    let mut scheduler = SessionScheduler::with_threads(u64::MAX, threads);
    let sessions: Vec<Result<(SessionId, usize), String>> = specs
        .iter()
        .map(|spec| {
            let started = spec.start()?;
            let id = scheduler.admit(started.execution, started.script);
            scheduler.set_goal(id, Goal::Complete);
            Ok((id, started.n))
        })
        .collect();
    while scheduler.sweep(&apply_faults) > 0 {}

    specs
        .iter()
        .zip(sessions)
        .map(|(spec, session)| {
            let (n, outcome) = match session {
                Ok((id, n)) => {
                    let outcome = scheduler.outcome(id).expect("swept to completion");
                    (n, outcome.clone().map_err(|e| e.to_string()))
                }
                Err(why) => (spec.build_shape().len(), Err(why)),
            };
            ScenarioReport {
                scenario: spec.name.clone(),
                algorithm: spec.algorithm.name().to_string(),
                generator: spec.generator.to_string(),
                n,
                faults: spec.faults.processes.len(),
                ok: outcome.is_ok(),
                error: outcome.as_ref().err().cloned(),
                report: outcome.ok(),
            }
        })
        .collect()
}

/// Serializes a suite result as pretty JSON (newline-terminated — the byte
/// format the golden determinism test and the CI smoke diff pin).
pub fn report_json(reports: &[ScenarioReport]) -> String {
    let mut text = serde_json::to_string_pretty(&reports.to_vec()).expect("reports serialize");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{builtin_corpus, select, FAULTS, SMOKE};
    use pm_faults::FaultProcess;

    #[test]
    fn suite_results_are_identical_across_thread_counts() {
        let corpus = builtin_corpus();
        let smoke = select(&corpus, SMOKE);
        let sequential = run_suite(&smoke, 1);
        let sharded = run_suite(&smoke, 4);
        assert_eq!(sequential, sharded);
        assert!(sequential.iter().all(|r| r.ok), "smoke runs must succeed");
        assert!(sequential.iter().any(|r| r.faults > 0));
    }

    #[test]
    fn faults_suite_runs_and_is_deterministic() {
        let corpus = builtin_corpus();
        let faults = select(&corpus, FAULTS);
        assert!(!faults.is_empty());
        let sequential = run_suite(&faults, 1);
        let sharded = run_suite(&faults, 4);
        assert_eq!(sequential, sharded);
        assert!(sequential.iter().all(|r| r.ok), "fault runs must succeed");
        assert!(sequential.iter().all(|r| r.faults > 0));
        // Every fault run still ends with a unique leader (self-stabilising
        // contenders absorb the faults; reset-and-recover scenarios restart).
        for report in &sequential {
            let run = report.report.as_ref().expect("fault run report");
            assert!(run.unique_leader(), "{}", report.scenario);
        }
    }

    #[test]
    fn fault_plans_on_closed_form_baselines_are_rejected() {
        use crate::generators::GeneratorSpec;
        use crate::spec::{AlgorithmSpec, ScenarioSpec};
        use pm_faults::{FaultKind, FaultPlan};
        let spec = ScenarioSpec::new("bad-faults", GeneratorSpec::Hexagon { radius: 3 })
            .algorithm(AlgorithmSpec::QuadraticBoundary)
            .faults(FaultPlan::new(3).process(FaultProcess::once(FaultKind::Removals, 1, 2)));
        let reports = run_suite(&[&spec], 1);
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].ok);
        let error = reports[0].error.as_deref().unwrap_or_default();
        assert!(error.contains("fault plan"), "{error}");
        assert!(error.contains("would never fire"), "{error}");
    }

    #[test]
    fn perturbation_scripts_on_closed_form_baselines_are_rejected() {
        use crate::generators::GeneratorSpec;
        use crate::spec::{AlgorithmSpec, ScenarioSpec};
        use pm_faults::{FaultKind, FaultPlan, ResetPolicy};
        // A perturbation is a reset-and-recover removal plan.
        let perturbation = |round| {
            FaultPlan::new(0)
                .reset(ResetPolicy::Reinitialize)
                .process(FaultProcess::once(FaultKind::Removals, round, 5))
        };
        let spec = ScenarioSpec::new("bad", GeneratorSpec::Hexagon { radius: 3 })
            .algorithm(AlgorithmSpec::RandomizedBoundary)
            .faults(perturbation(1));
        let reports = run_suite(&[&spec], 1);
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].ok);
        let error = reports[0].error.as_deref().unwrap_or_default();
        assert!(error.contains("would never fire"), "{error}");

        // The same plan fires on erosion, which has a round-driven phase. A
        // line stays hole-free after removal and largest-component pruning,
        // so the erosion family's hole-free assumption still holds.
        let erosion = ScenarioSpec::new("ok", GeneratorSpec::Line { n: 20 })
            .algorithm(AlgorithmSpec::Erosion)
            .faults(perturbation(0));
        let reports = run_suite(&[&erosion], 1);
        let report = reports[0].report.as_ref().expect("erosion run succeeds");
        assert!(report.final_positions.len() < report.n);
        assert_eq!(
            report.final_positions.len(),
            report.leaders + report.followers
        );
    }

    #[test]
    fn failed_runs_report_at_their_own_index() {
        use crate::generators::GeneratorSpec;
        use crate::spec::{AlgorithmSpec, ScenarioSpec};
        use pm_faults::{FaultKind, FaultPlan};
        let ok = ScenarioSpec::new("ok", GeneratorSpec::Hexagon { radius: 2 });
        // Start fails: the script could never fire on a closed-form baseline.
        let rejected = ScenarioSpec::new("rejected", GeneratorSpec::Hexagon { radius: 2 })
            .algorithm(AlgorithmSpec::QuadraticBoundary)
            .faults(FaultPlan::new(3).process(FaultProcess::once(FaultKind::Removals, 1, 2)));
        // Starts, then stalls: erosion on a shape with a hole.
        let stuck = ScenarioSpec::new("stuck", GeneratorSpec::Annulus { outer: 4, inner: 1 })
            .algorithm(AlgorithmSpec::Erosion);
        let reports = run_suite(&[&ok, &rejected, &ok, &stuck, &ok], 2);
        let ok_flags: Vec<bool> = reports.iter().map(|r| r.ok).collect();
        assert_eq!(ok_flags, [true, false, true, false, true]);
        let alone = run_suite(&[&ok], 1).remove(0);
        for i in [0, 2, 4] {
            assert_eq!(reports[i], alone);
        }
        assert_eq!(reports[1].scenario, "rejected");
        assert_eq!(reports[1].n, 19);
        let error = reports[1].error.as_deref().unwrap_or_default();
        assert!(error.contains("would never fire"), "{error}");
        assert_eq!(reports[3].scenario, "stuck");
        let direct = AlgorithmSpec::Erosion
            .instance()
            .elect(
                &stuck.build_shape(),
                &mut *stuck.scheduler.build(),
                &stuck.options,
            )
            .expect_err("erosion stalls on holes");
        assert_eq!(reports[3].error, Some(direct.to_string()));
        assert!(run_suite(&[], 2).is_empty());
    }

    #[test]
    fn report_json_round_trips() {
        let corpus = builtin_corpus();
        let one = select(&corpus, "smoke-perturbed-remove");
        let reports = run_suite(&one, 1);
        let text = report_json(&reports);
        let back: Vec<ScenarioReport> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, reports);
        let report = reports[0].report.as_ref().unwrap();
        assert!(report.unique_leader());
        assert!(report.final_positions.len() < report.n);
    }
}
