//! The declarative scenario: everything one election run needs, as data.

use crate::generators::GeneratorSpec;
use pm_baselines::{
    ErosionLeaderElection, QuadraticBoundary, RandomizedBoundary, SelfStabMaxElection,
};
use pm_core::api::{Execution, LeaderElection, PaperPipeline, RunOptions};
use pm_core::SchedulerSpec;
use pm_faults::{FaultPlan, FaultScript};
use pm_grid::Shape;
use serde::{Deserialize, Serialize};

static PIPELINE: PaperPipeline = PaperPipeline;
static EROSION: ErosionLeaderElection = ErosionLeaderElection;
static RANDOMIZED: RandomizedBoundary = RandomizedBoundary;
static QUADRATIC: QuadraticBoundary = QuadraticBoundary;
static SELF_STAB: SelfStabMaxElection = SelfStabMaxElection;

/// A serializable name for each algorithm behind the unified
/// [`LeaderElection`] trait.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlgorithmSpec {
    /// The paper pipeline (`OBD → DLE → Collect`; phases selected through
    /// [`RunOptions`]).
    #[default]
    Pipeline,
    /// The no-movement erosion baseline (stalls on shapes with holes —
    /// scenarios pairing the two are *expected* to report an error).
    Erosion,
    /// The randomized boundary baseline.
    RandomizedBoundary,
    /// The quadratic deterministic boundary baseline.
    QuadraticBoundary,
    /// The self-stabilising constant-memory election (Chalopin–Das–Kokkou,
    /// arXiv 2408.08775): recovers from arbitrary memory corruption without
    /// a reset, so it is the contender fault scenarios measure against the
    /// reset-and-recover baselines.
    SelfStabMax,
}

impl AlgorithmSpec {
    /// The algorithm instance.
    pub fn instance(&self) -> &'static (dyn LeaderElection + Sync) {
        match self {
            AlgorithmSpec::Pipeline => &PIPELINE,
            AlgorithmSpec::Erosion => &EROSION,
            AlgorithmSpec::RandomizedBoundary => &RANDOMIZED,
            AlgorithmSpec::QuadraticBoundary => &QUADRATIC,
            AlgorithmSpec::SelfStabMax => &SELF_STAB,
        }
    }

    /// The name the instance reports (`LeaderElection::name`).
    pub fn name(&self) -> &'static str {
        self.instance().name()
    }

    /// Whether the algorithm executes a round-driven phase that fault plans
    /// can target (an `Execution` with rounds to step and a live system to
    /// mutate). The boundary baselines are simulated in closed form — a
    /// plan attached to them would never fire, so scenarios pairing the two
    /// are rejected instead of silently reporting a fault-free run as
    /// faulted.
    pub fn supports_faults(&self) -> bool {
        matches!(
            self,
            AlgorithmSpec::Pipeline | AlgorithmSpec::Erosion | AlgorithmSpec::SelfStabMax
        )
    }
}

/// A scenario started by [`ScenarioSpec::start`].
pub struct StartedScenario {
    /// The owned execution, positioned before its first phase.
    pub execution: Execution<'static>,
    /// The scenario's fault plan bound to this run, to fire before every
    /// step (see [`apply_faults`]).
    pub script: FaultScript,
    /// The initial particle count.
    pub n: usize,
}

/// One named, fully declarative election scenario: a generated shape, the
/// algorithm and scheduler to run it with, the run options, and an optional
/// fault plan. Serializable, so whole workload suites live as JSON
/// corpora (`corpus/scenarios.json`) instead of code.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Unique scenario name (referenced by the CLI's `render`/`run`).
    pub name: String,
    /// Suite tags (`run <tag>` selects every scenario carrying the tag).
    pub tags: Vec<String>,
    /// The workload shape.
    pub generator: GeneratorSpec,
    /// The algorithm to run.
    pub algorithm: AlgorithmSpec,
    /// The activation scheduler.
    pub scheduler: SchedulerSpec,
    /// Run options (variant knobs: boundary knowledge, reconnection,
    /// occupancy backend, budgets).
    pub options: RunOptions,
    /// The fault schedule (removals, column cuts, regrow, corruption,
    /// relocation; reset-and-recover or not — see [`FaultPlan`]); an empty
    /// plan schedules nothing.
    pub faults: FaultPlan,
}

impl ScenarioSpec {
    /// A scenario with the default algorithm (paper pipeline), the default
    /// measurement scheduler (`SeededRandom(7)`), default options, no tags
    /// and no faults.
    pub fn new(name: impl Into<String>, generator: GeneratorSpec) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            tags: Vec::new(),
            generator,
            algorithm: AlgorithmSpec::Pipeline,
            scheduler: SchedulerSpec::SeededRandom(7),
            options: RunOptions::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Adds a suite tag.
    pub fn tag(mut self, tag: &str) -> ScenarioSpec {
        self.tags.push(tag.to_string());
        self
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algorithm: AlgorithmSpec) -> ScenarioSpec {
        self.algorithm = algorithm;
        self
    }

    /// Selects the scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> ScenarioSpec {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the run options.
    pub fn options(mut self, options: RunOptions) -> ScenarioSpec {
        self.options = options;
        self
    }

    /// Replaces the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> ScenarioSpec {
        self.faults = faults;
        self
    }

    /// Whether the scenario schedules any fault processes at all.
    pub fn is_adversarial(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Builds the scenario's initial shape.
    pub fn build_shape(&self) -> Shape {
        self.generator.build()
    }

    /// Starts the scenario: builds its shape, starts an owned execution of
    /// its algorithm under a fresh scheduler, and pairs it with the
    /// scenario's [`FaultScript`]. The one start path behind the suite
    /// runner, the server's `submit`/`restore` and the CLI's `trace` and
    /// `profile`.
    ///
    /// # Errors
    ///
    /// A fault plan that would never fire is rejected rather than run
    /// fault-free as if it were adversarial: one on an algorithm with no
    /// round-driven phase, or one with a periodic process whose window
    /// closes before it opens. Otherwise the message of the algorithm's
    /// start error (an empty or disconnected shape).
    pub fn start(&self) -> Result<StartedScenario, String> {
        if self.is_adversarial() && !self.algorithm.supports_faults() {
            return Err(format!(
                "fault plan attached to `{}`, which runs no round-driven \
                 phase — the script would never fire",
                self.algorithm.name()
            ));
        }
        if let Some(process) = self.faults.processes.iter().find(|p| p.never_fires()) {
            return Err(format!(
                "fault process {process} ends before it starts — it would never fire"
            ));
        }
        let shape = self.build_shape();
        let execution = self
            .algorithm
            .instance()
            .start_owned(&shape, self.scheduler.build(), &self.options)
            .map_err(|e| e.to_string())?;
        Ok(StartedScenario {
            execution,
            script: FaultScript::new(self.faults.clone()),
            n: shape.len(),
        })
    }

    /// Whether the scenario carries the given suite tag.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }
}

/// The [`SessionScheduler`](pm_core::session::SessionScheduler) step hook
/// for scenario sessions: fires the session's due faults before each step.
/// Live sweeps and checkpoint replay share it, so restored and sharded runs
/// reproduce faulted runs exactly.
pub fn apply_faults(script: &mut FaultScript, execution: &mut Execution<'static>) {
    script.apply_due(execution);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_faults::{FaultKind, FaultProcess, ResetPolicy};

    #[test]
    fn starts_pair_the_scenario_execution_with_its_script() {
        let plain = ScenarioSpec::new("plain", GeneratorSpec::Annulus { outer: 4, inner: 2 })
            .algorithm(AlgorithmSpec::SelfStabMax);
        let started = plain.start().expect("valid scenario");
        let shape = plain.build_shape();
        assert_eq!(started.n, shape.len());
        assert!(started.script.plan().is_empty());
        let direct =
            plain
                .algorithm
                .instance()
                .elect(&shape, &mut *plain.scheduler.build(), &plain.options);
        assert_eq!(started.execution.finish(), direct);

        let faulted = ScenarioSpec::new("faulted", GeneratorSpec::Hexagon { radius: 3 }).faults(
            FaultPlan::new(0)
                .reset(ResetPolicy::Reinitialize)
                .process(FaultProcess::once(FaultKind::Removals, 1, 2)),
        );
        let started = faulted.start().expect("valid scenario");
        assert_eq!(started.script.plan(), &faulted.faults);
        let rejected = faulted.algorithm(AlgorithmSpec::RandomizedBoundary);
        let error = rejected.start().err().expect("script could never fire");
        assert!(error.starts_with("fault plan attached"), "{error}");
    }

    #[test]
    fn processes_that_can_never_fire_are_rejected() {
        // A periodic window that closes before it opens fires nowhere.
        let empty_window = FaultProcess::periodic(FaultKind::Removals, 6, 2, 4, 1);
        assert!((0..20).all(|round| !empty_window.fires_at(round)));
        let spec = ScenarioSpec::new("never", GeneratorSpec::Hexagon { radius: 3 })
            .faults(FaultPlan::new(1).process(empty_window));
        let error = spec.start().err().expect("the process never fires");
        assert!(error.contains("would never fire"), "{error}");
        // One-shot processes ignore `until`, so they stay valid.
        let once = FaultProcess {
            until: 0,
            ..FaultProcess::once(FaultKind::Removals, 6, 1)
        };
        let spec = spec.faults(FaultPlan::new(1).process(once));
        assert!(spec.start().is_ok());
    }

    #[test]
    fn algorithm_specs_name_their_instances() {
        assert_eq!(AlgorithmSpec::Pipeline.name(), "dle+collect");
        assert_eq!(AlgorithmSpec::Erosion.name(), "erosion-le");
        assert_eq!(
            AlgorithmSpec::RandomizedBoundary.name(),
            "randomized-boundary"
        );
        assert_eq!(
            AlgorithmSpec::QuadraticBoundary.name(),
            "quadratic-boundary"
        );
        assert_eq!(AlgorithmSpec::SelfStabMax.name(), "self-stab-max");
    }

    #[test]
    fn self_stab_supports_adversarial_scripts() {
        // The self-stabilising election runs a round-driven phase, so fault
        // plans can target it; the closed-form boundary baselines cannot.
        assert!(AlgorithmSpec::SelfStabMax.supports_faults());
        assert!(!AlgorithmSpec::RandomizedBoundary.supports_faults());
        assert!(!AlgorithmSpec::QuadraticBoundary.supports_faults());
    }

    #[test]
    fn builder_composes() {
        let spec = ScenarioSpec::new("s", GeneratorSpec::Hexagon { radius: 3 })
            .tag("smoke")
            .algorithm(AlgorithmSpec::Erosion)
            .scheduler(SchedulerSpec::RoundRobin)
            .faults(
                FaultPlan::new(1)
                    .reset(ResetPolicy::Reinitialize)
                    .process(FaultProcess::once(FaultKind::Removals, 2, 3)),
            );
        assert!(spec.has_tag("smoke"));
        assert!(!spec.has_tag("full"));
        assert_eq!(spec.algorithm, AlgorithmSpec::Erosion);
        assert_eq!(spec.faults.processes.len(), 1);
        assert!(spec.is_adversarial());
        assert_eq!(spec.build_shape().len(), 37);
        assert!(!ScenarioSpec::new("q", GeneratorSpec::Line { n: 4 }).is_adversarial());
    }
}
