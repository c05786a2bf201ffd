//! Binding a fault plan to one run.

use crate::perturb::{self, Tally};
use crate::{firing_seed, FaultPlan, FaultProcess, ResetPolicy};
use pm_core::api::{phase, Execution};
use pm_telemetry::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fault plan bound to one run: fires each due process before the
/// matching round of the election's round-driven phase, through
/// [`Execution::system`], with periodic processes and per-firing
/// reseeding.
#[derive(Clone, Debug)]
pub struct FaultScript {
    plan: FaultPlan,
    /// Round each process last fired at (guards against double firing when
    /// the driver polls the same upcoming round more than once).
    last_fired: Vec<Option<u64>>,
    fired: usize,
    tally: Tally,
    last_fault_round: Option<u64>,
    rounds_at_last_fault: u64,
}

impl FaultScript {
    /// A script firing the given plan.
    pub fn new(plan: FaultPlan) -> FaultScript {
        let last_fired = vec![None; plan.processes.len()];
        FaultScript {
            plan,
            last_fired,
            fired: 0,
            tally: Tally::default(),
            last_fault_round: None,
            rounds_at_last_fault: 0,
        }
    }

    /// The script's plan (appended processes included).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Appends a process to a live script — the server's `fault` verb
    /// injects processes into running sessions through this.
    pub fn push(&mut self, process: FaultProcess) {
        self.plan.processes.push(process);
        self.last_fired.push(None);
    }

    /// Number of firings so far.
    pub fn fired(&self) -> usize {
        self.fired
    }

    /// Particles removed by firings so far (pruning included).
    pub fn removed(&self) -> usize {
        self.tally.removed
    }

    /// Particles added by firings so far.
    pub fn added(&self) -> usize {
        self.tally.added
    }

    /// Memories scrambled by firings so far.
    pub fn corrupted(&self) -> usize {
        self.tally.corrupted
    }

    /// Particles relocated by firings so far.
    pub fn relocated(&self) -> usize {
        self.tally.relocated
    }

    /// The phase round of the most recent firing.
    pub fn last_fault_round(&self) -> Option<u64> {
        self.last_fault_round
    }

    /// The execution's *total* round count at the most recent firing (zero
    /// if nothing fired) — the cursor recovery measurements subtract from
    /// the final round count.
    pub fn rounds_at_last_fault(&self) -> u64 {
        self.rounds_at_last_fault
    }

    /// Fires every process due at the round the execution is about to run
    /// ([`Execution::next_round`]); a no-op at phase boundaries, during
    /// closed-form phases and after completion. Returns how many processes
    /// fired.
    pub fn apply_due(&mut self, execution: &mut Execution<'_>) -> usize {
        let Some((phase_name, round)) = execution.next_round() else {
            return 0;
        };
        // Faults target the election's round-driven phase; OBD and Collect
        // are simulated in closed form and never expose a system.
        if phase_name != phase::DLE && phase_name != phase::ELECTION {
            return 0;
        }
        let due: Vec<usize> = (0..self.plan.processes.len())
            .filter(|i| {
                self.plan.processes[*i].fires_at(round) && self.last_fired[*i] != Some(round)
            })
            .collect();
        if due.is_empty() {
            return 0;
        }
        {
            let mut system = execution
                .system()
                .expect("an upcoming round implies a live system");
            for i in due.iter().copied() {
                self.last_fired[i] = Some(round);
                let process = self.plan.processes[i];
                let mut rng = StdRng::seed_from_u64(firing_seed(self.plan.seed, i as u64, round));
                perturb::apply(&process, &mut *system, &mut rng, &mut self.tally);
                self.fired += 1;
                self.last_fault_round = Some(round);
                // Firings land on the trace timeline so a drained trace
                // shows recovery rounds in causal order after their cause;
                // out-of-band, like all telemetry.
                if trace::enabled() {
                    trace::instant("fault", format!("fault:{}@r{round}", process.kind));
                }
            }
            if self.plan.reset == ResetPolicy::Reinitialize {
                system.reinitialize();
            }
        }
        // The full status snapshot is only taken on firing rounds, so the
        // per-round polling cost stays one `next_round` call.
        self.rounds_at_last_fault = execution.status().total_rounds;
        due.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use pm_amoebot::scheduler::SeededRandom;
    use pm_baselines::SelfStabMaxElection;
    use pm_core::api::{LeaderElection, RunOptions, RunReport, StepOutcome};
    use pm_grid::builder::hexagon;

    /// A structural half (a removal) and a memory half (a corruption) in
    /// one plan.
    fn combined_plan() -> FaultPlan {
        FaultPlan::new(7)
            .process(FaultProcess::once(FaultKind::Corruption, 1, 6))
            .process(FaultProcess::once(FaultKind::Removals, 2, 2))
    }

    /// Runs self-stab-max on `hexagon(3)` to completion, firing the
    /// script's due processes before every step.
    fn run(mut script: FaultScript) -> (FaultScript, RunReport) {
        let shape = hexagon(3);
        let mut scheduler = SeededRandom::new(7);
        let mut execution = SelfStabMaxElection
            .start(&shape, &mut scheduler, &RunOptions::default())
            .expect("permitted initial configuration");
        let report = loop {
            script.apply_due(&mut execution);
            if let StepOutcome::Finished(report) = execution.step_round().expect("election runs") {
                break report;
            }
        };
        (script, report)
    }

    #[test]
    fn combined_scripts_fire_both_halves_deterministically() {
        let outcome = || {
            let (script, report) = run(FaultScript::new(combined_plan()));
            (script.fired(), script.removed(), script.corrupted(), report)
        };
        let (fired, removed, corrupted, report) = outcome();
        assert_eq!(fired, 2, "one corruption and one removal firing");
        assert!(removed > 0);
        assert!(corrupted > 0);
        assert!(report.unique_leader());
        assert_eq!(outcome(), (fired, removed, corrupted, report));
    }

    #[test]
    fn entry_counts_track_live_injections() {
        let mut script = FaultScript::new(combined_plan());
        assert_eq!(script.plan().processes.len(), 2);
        script.push(FaultProcess::once(FaultKind::Regrow, 2, 2));
        assert_eq!(script.plan().processes.len(), 3);
        assert_eq!(script.fired(), 0);
        // A live injection fires like a declared process.
        let (script, _) = run(script);
        assert_eq!(script.fired(), 3);
        assert!(script.added() > 0);
    }
}
