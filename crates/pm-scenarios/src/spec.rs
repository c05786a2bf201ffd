//! The declarative scenario: everything one election run needs, as data.

use crate::generators::GeneratorSpec;
use crate::perturb::PerturbationSpec;
use crate::script::ScenarioScript;
use pm_baselines::{
    ErosionLeaderElection, QuadraticBoundary, RandomizedBoundary, SelfStabMaxElection,
};
use pm_core::api::{Execution, LeaderElection, PaperPipeline, RunOptions};
use pm_core::SchedulerSpec;
use pm_faults::FaultSpec;
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

    /// Whether the algorithm executes a round-driven phase that perturbation
    /// scripts can target (an `Execution` with rounds to step and a live
    /// system to mutate). The boundary baselines are simulated in closed
    /// form — a script attached to them would never fire, so the suite
    /// runner rejects such scenarios instead of silently reporting a
    /// fault-free run as perturbed. The same gate applies to fault plans,
    /// which fire through the identical round-driven surface.
    pub fn supports_perturbations(&self) -> bool {
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
    /// The scenario's adversarial script, to fire before every step.
    pub script: ScenarioScript,
    /// The initial particle count.
    pub n: usize,
}

/// One named, fully declarative election scenario: a generated shape, the
/// algorithm and scheduler to run it with, the run options, and an optional
/// perturbation script. Serializable, so whole workload suites live as JSON
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
    /// Adversarial events fired mid-run (empty = fault-free).
    pub perturbations: Vec<PerturbationSpec>,
    /// The generalised fault schedule (periodic removals, regrow,
    /// corruption, relocation — see `pm_faults::FaultPlan`); an empty plan
    /// schedules nothing.
    pub faults: FaultSpec,
}

impl ScenarioSpec {
    /// A scenario with the default algorithm (paper pipeline), the default
    /// measurement scheduler (`SeededRandom(7)`), default options, no tags
    /// and no perturbations.
    pub fn new(name: impl Into<String>, generator: GeneratorSpec) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            tags: Vec::new(),
            generator,
            algorithm: AlgorithmSpec::Pipeline,
            scheduler: SchedulerSpec::SeededRandom(7),
            options: RunOptions::default(),
            perturbations: Vec::new(),
            faults: FaultSpec::default(),
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

    /// Appends a perturbation event.
    pub fn perturb(mut self, perturbation: PerturbationSpec) -> ScenarioSpec {
        self.perturbations.push(perturbation);
        self
    }

    /// Replaces the fault plan.
    pub fn faults(mut self, faults: FaultSpec) -> ScenarioSpec {
        self.faults = faults;
        self
    }

    /// Whether the scenario schedules any adversarial events at all
    /// (perturbations or fault processes).
    pub fn is_adversarial(&self) -> bool {
        !self.perturbations.is_empty() || !self.faults.is_empty()
    }

    /// Builds the scenario's initial shape.
    pub fn build_shape(&self) -> Shape {
        self.generator.build()
    }

    /// Starts the scenario: builds its shape, starts an owned execution of
    /// its algorithm under a fresh scheduler, and pairs it with the
    /// scenario's [`ScenarioScript`]. The one start path behind the suite
    /// runner, the server's `submit`/`restore` and the CLI's `trace` and
    /// `profile`.
    ///
    /// # Errors
    ///
    /// A perturbation script or fault plan on an algorithm with no
    /// round-driven phase would never fire, so the scenario is rejected
    /// rather than run fault-free as if it were adversarial. Otherwise the
    /// message of the algorithm's start error (an empty or disconnected
    /// shape).
    pub fn start(&self) -> Result<StartedScenario, String> {
        if self.is_adversarial() && !self.algorithm.supports_perturbations() {
            let what = if self.perturbations.is_empty() {
                "fault plan"
            } else {
                "perturbation script"
            };
            return Err(format!(
                "{what} attached to `{}`, which runs no round-driven \
                 phase — the script would never fire",
                self.algorithm.name()
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
            script: ScenarioScript::for_spec(self),
            n: shape.len(),
        })
    }

    /// Whether the scenario carries the given suite tag.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_pair_the_scenario_execution_with_its_script() {
        let plain = ScenarioSpec::new("plain", GeneratorSpec::Annulus { outer: 4, inner: 2 })
            .algorithm(AlgorithmSpec::SelfStabMax);
        let started = plain.start().expect("valid scenario");
        let shape = plain.build_shape();
        assert_eq!(started.n, shape.len());
        assert_eq!(started.script.entries(), 0);
        let direct =
            plain
                .algorithm
                .instance()
                .elect(&shape, &mut *plain.scheduler.build(), &plain.options);
        assert_eq!(started.execution.finish(), direct);

        let perturbed = ScenarioSpec::new("perturbed", GeneratorSpec::Hexagon { radius: 3 })
            .perturb(PerturbationSpec::RemoveRandom {
                round: 1,
                count: 2,
                seed: 0,
            });
        assert_eq!(
            perturbed.start().expect("valid scenario").script.entries(),
            1
        );
        let rejected = perturbed.algorithm(AlgorithmSpec::RandomizedBoundary);
        let error = rejected.start().err().expect("script could never fire");
        assert!(error.starts_with("perturbation script attached"), "{error}");
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
        // The self-stabilising election runs a round-driven phase, so both
        // perturbation scripts and fault plans can target it; the
        // closed-form boundary baselines still cannot.
        assert!(AlgorithmSpec::SelfStabMax.supports_perturbations());
        assert!(!AlgorithmSpec::RandomizedBoundary.supports_perturbations());
        assert!(!AlgorithmSpec::QuadraticBoundary.supports_perturbations());
    }

    #[test]
    fn builder_composes() {
        use pm_faults::{FaultKind, FaultProcess};
        let spec = ScenarioSpec::new("s", GeneratorSpec::Hexagon { radius: 3 })
            .tag("smoke")
            .algorithm(AlgorithmSpec::Erosion)
            .scheduler(SchedulerSpec::RoundRobin)
            .perturb(PerturbationSpec::RemoveRandom {
                round: 2,
                count: 3,
                seed: 1,
            });
        assert!(spec.has_tag("smoke"));
        assert!(!spec.has_tag("full"));
        assert_eq!(spec.algorithm, AlgorithmSpec::Erosion);
        assert_eq!(spec.perturbations.len(), 1);
        assert!(spec.faults.is_empty());
        assert!(spec.is_adversarial());
        assert_eq!(spec.build_shape().len(), 37);

        let faulted = ScenarioSpec::new("f", GeneratorSpec::Hexagon { radius: 3 })
            .faults(FaultSpec::new(7).process(FaultProcess::once(FaultKind::Corruption, 3, 8)));
        assert!(faulted.perturbations.is_empty());
        assert!(faulted.is_adversarial());
        assert!(!ScenarioSpec::new("q", GeneratorSpec::Line { n: 4 }).is_adversarial());
    }
}
