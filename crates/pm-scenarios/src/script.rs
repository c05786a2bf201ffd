//! The combined adversary of one scenario run: the legacy one-shot
//! perturbation script and the generalised [`FaultScript`] driven together.
//!
//! A [`ScenarioScript`] is what actually sits between the caller and the
//! steppable [`Execution`]: before every round it fires due perturbation
//! events first (reset-and-recover semantics), then due fault-plan
//! processes (whose reset behaviour is the plan's own
//! [`ResetPolicy`](pm_faults::ResetPolicy)). Both halves key off
//! [`Execution::next_round`], so the combined script is exactly as
//! deterministic — and as checkpoint-replayable — as each half alone.

use crate::perturb::{PerturbationScript, PerturbationSpec};
use crate::spec::ScenarioSpec;
use pm_core::api::Execution;
use pm_faults::{FaultProcess, FaultScript, FaultSpec};

/// One scenario's full adversarial script: perturbation events plus the
/// fault plan, fired in that order before each due round.
#[derive(Clone, Debug)]
pub struct ScenarioScript {
    perturbations: PerturbationScript,
    faults: FaultScript,
}

impl ScenarioScript {
    /// A script from explicit parts.
    pub fn new(events: Vec<PerturbationSpec>, plan: FaultSpec) -> ScenarioScript {
        ScenarioScript {
            perturbations: PerturbationScript::new(events),
            faults: FaultScript::new(plan),
        }
    }

    /// The script a scenario spec declares (perturbations + fault plan).
    pub fn for_spec(spec: &ScenarioSpec) -> ScenarioScript {
        ScenarioScript::new(spec.perturbations.clone(), spec.faults.clone())
    }

    /// The perturbation half (events and firing counters).
    pub fn perturbations(&self) -> &PerturbationScript {
        &self.perturbations
    }

    /// The fault half (plan and firing counters).
    pub fn faults(&self) -> &FaultScript {
        &self.faults
    }

    /// Appends a perturbation event to the live script (the server's
    /// `perturb` verb).
    pub fn push_perturbation(&mut self, event: PerturbationSpec) {
        self.perturbations.push(event);
    }

    /// Appends a fault process to the live script (the server's `fault`
    /// verb).
    pub fn push_fault(&mut self, process: FaultProcess) {
        self.faults.push(process);
    }

    /// Total scripted entries: perturbation events plus fault processes.
    pub fn entries(&self) -> usize {
        self.perturbations.specs().len() + self.faults.plan().processes.len()
    }

    /// Total firings so far, both halves combined.
    pub fn fired(&self) -> usize {
        self.perturbations.fired() + self.faults.fired()
    }

    /// Fires everything due before the round the execution is about to run;
    /// returns how many events/processes fired.
    pub fn apply_due(&mut self, execution: &mut Execution<'_>) -> usize {
        self.perturbations.apply_due(execution) + self.faults.apply_due(execution)
    }
}

/// The [`SessionScheduler`](pm_core::session::SessionScheduler) step hook
/// for scenario sessions: fires the session's due script entries before
/// each step. Live sweeps and checkpoint replay share it, so restored and
/// sharded suite runs reproduce adversarial runs exactly.
pub fn apply_scripts(script: &mut ScenarioScript, execution: &mut Execution<'static>) {
    script.apply_due(execution);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::GeneratorSpec;
    use crate::spec::AlgorithmSpec;
    use pm_core::session::{Goal, SessionScheduler};
    use pm_faults::{FaultKind, FaultPlan};

    fn faulted_spec() -> ScenarioSpec {
        ScenarioSpec::new("combined", GeneratorSpec::Hexagon { radius: 3 })
            .algorithm(AlgorithmSpec::SelfStabMax)
            .perturb(PerturbationSpec::RemoveRandom {
                round: 1,
                count: 2,
                seed: 5,
            })
            .faults(FaultPlan::new(7).process(FaultProcess::once(FaultKind::Corruption, 3, 6)))
    }

    #[test]
    fn combined_scripts_fire_both_halves_deterministically() {
        let spec = faulted_spec();
        let run = || {
            let started = spec.start().unwrap();
            let mut scheduler = SessionScheduler::new(u64::MAX);
            let id = scheduler.admit(started.execution, started.script);
            scheduler.set_goal(id, Goal::Complete);
            scheduler.drive(id, &apply_scripts);
            let report = scheduler.outcome(id).unwrap().clone().unwrap();
            let script = scheduler.payload(id).unwrap();
            (script.fired(), script.faults().corrupted(), report)
        };
        let (fired, corrupted, report) = run();
        assert_eq!(fired, 2, "one perturbation + one fault firing");
        assert!(corrupted > 0);
        assert!(report.unique_leader());
        assert_eq!(run(), (fired, corrupted, report));
    }

    #[test]
    fn entry_counts_track_live_injections() {
        let mut script = ScenarioScript::for_spec(&faulted_spec());
        assert_eq!(script.entries(), 2);
        script.push_perturbation(PerturbationSpec::RemoveRandom {
            round: 9,
            count: 1,
            seed: 0,
        });
        script.push_fault(FaultProcess::once(FaultKind::Regrow, 10, 2));
        assert_eq!(script.entries(), 4);
        assert_eq!(script.fired(), 0);
    }
}
