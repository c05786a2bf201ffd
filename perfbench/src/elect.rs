//! The election path: `Election::run` on a generated shape, timed whole
//! (untraced) and split by layer (traced).
//!
//! The traced election drives the same pipeline through
//! `PaperPipeline::start` and `Execution::step_round`, timing each call
//! from here, and swaps in two delegating wrappers: [`TimedScheduler`]
//! around `SeededRandom` (order-fill time and entries) and, in a separate
//! `Runner`-only DLE run, [`CountingDle`] around `DleAlgorithm` (how many
//! activations mutate anything). A third election per round of the loop
//! runs with the program's own telemetry on (`PhaseProfile` plus the
//! `pm_telemetry` span recorder), to price it against the plain election.
//! Nothing inside the program is instrumented by the benchmark.

use crate::stats::{self, median, percentile, ratio};
use crate::Metrics;
use pm_amoebot::algorithm::{ActivationContext, Algorithm, InitContext};
use pm_amoebot::scheduler::{Runner, Scheduler, SchedulerState, SeededRandom};
use pm_amoebot::{ParticleId, ParticleSystem};
use pm_core::api::StepOutcome;
use pm_core::api::{phase, Election, LeaderElection, PaperPipeline, RunOptions, RunReport};
use pm_core::dle::{DleAlgorithm, DleMemory};
use pm_grid::Shape;
use pm_scenarios::GeneratorSpec;
use pm_telemetry::trace;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// How many times set-up (shape build plus reference election) is repeated;
/// `setup_s` is the median. A measured run spreads the repetitions evenly
/// over its length, so the median stands for the whole run rather than
/// for whatever the host was doing in its first second.
const SETUP_REPS: usize = 21;

/// The fewest timed elections a run reports from: enough that ten lie
/// beyond p90.
const MIN_ELECTIONS: usize = 100;

/// After this many failed elections with none passing, a run stops: the
/// failures are its result.
pub const GIVE_UP_AFTER: u64 = 10;

/// Events each thread's ring of the span recorder holds; drained after
/// every recorded election, so no election overflows it.
const RECORDER_CAPACITY: usize = 1 << 16;

/// The three predicates every election report must satisfy.
pub fn report_ok(report: &RunReport) -> bool {
    report.unique_leader() && report.predicate_holds() && report.rounds_consistent()
}

/// One untraced election, exactly as a library user runs it.
pub fn elect(shape: &Shape, seed: u64) -> Result<RunReport, String> {
    Election::on(shape)
        .scheduler(SeededRandom::new(seed))
        .run()
        .map_err(|e| e.to_string())
}

/// A built shape with its reference report, plus the set-up timings.
pub struct Prepared {
    spec: GeneratorSpec,
    pub shape: Shape,
    pub reference: RunReport,
    /// Seconds per set-up repetition (build plus reference election).
    pub setup_s: Vec<f64>,
    /// Milliseconds per `GeneratorSpec::build` call.
    pub build_ms: Vec<f64>,
}

impl Prepared {
    /// Builds the shape and runs its reference election once; the report
    /// must pass [`report_ok`].
    pub fn new(spec: &GeneratorSpec, seed: u64) -> Result<Prepared, String> {
        let started = Instant::now();
        let shape = spec.build();
        let built = started.elapsed();
        let reference = elect(&shape, seed)?;
        let took = started.elapsed();
        if !report_ok(&reference) {
            return Err(format!("reference election on {spec} fails its checks"));
        }
        Ok(Prepared {
            spec: *spec,
            shape,
            reference,
            setup_s: vec![took.as_secs_f64()],
            build_ms: vec![stats::ms(built)],
        })
    }

    /// Sets up once more — builds the shape and elects on it — and records
    /// the timings. Returns whether the new shape and report equal the
    /// reference ones.
    pub fn repeat(&mut self, seed: u64) -> Result<bool, String> {
        let started = Instant::now();
        let shape = self.spec.build();
        let built = started.elapsed();
        let report = elect(&shape, seed);
        self.setup_s.push(started.elapsed().as_secs_f64());
        self.build_ms.push(stats::ms(built));
        Ok(shape == self.shape && report? == self.reference)
    }
}

/// Sets up [`SETUP_REPS`] times in a row; every repetition must agree.
pub fn prepare(spec: &GeneratorSpec, seed: u64) -> Result<Prepared, String> {
    let mut prepared = Prepared::new(spec, seed)?;
    for _ in 1..SETUP_REPS {
        if !prepared.repeat(seed)? {
            return Err(format!("set-up on {spec} is not deterministic"));
        }
    }
    Ok(prepared)
}

/// Untraced elections until `deadline` (and at least [`MIN_ELECTIONS`]):
/// per-election milliseconds plus attempted/failed counts. A failure is an
/// error or a report that differs from the reference.
struct Timed {
    ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Timed {
    fn new() -> Timed {
        Timed {
            ms: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Times one untraced election and checks it; returns its milliseconds
    /// if it passed.
    fn record(&mut self, prepared: &Prepared, seed: u64) -> Option<f64> {
        let started = Instant::now();
        let result = elect(&prepared.shape, seed);
        let took = stats::ms(started.elapsed());
        self.attempted += 1;
        match result {
            Ok(report) if report == prepared.reference && report_ok(&report) => {
                self.ms.push(took);
                Some(took)
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }

    /// Every election so far failed, and enough of them to stop trying.
    fn hopeless(&self) -> bool {
        self.failed >= GIVE_UP_AFTER && self.ms.is_empty()
    }
}

/// The per-layer timing metrics of untraced elections lasting `ms` each.
/// In process, a session is one `Election::run` call and its round trip is
/// the call itself, so the service-named metrics read the same samples.
pub fn timing_metrics(ms: &mut [f64], m: &mut Metrics) -> Result<(), String> {
    let per_s = ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
    let p50 = percentile(ms, 0.5).map_err(|e| e.to_string())?;
    let p90 = percentile(ms, 0.9).map_err(|e| e.to_string())?;
    m.insert("elect_ms_p50", p50);
    m.insert("elect_ms_p90", p90);
    m.insert("elections_per_s", per_s);
    m.insert("sessions_per_s", per_s);
    m.insert("rtt_ms_p50", p50);
    m.insert("rtt_ms_p90", p90);
    m.insert("run_rtt_ms_p90", p90);
    Ok(())
}

/// The end-to-end metrics of an election workload: untraced elections,
/// back to back, for `seconds`, with the remaining set-up repetitions
/// (each checked against the reference) at even intervals among them.
///
/// The election time reported is the fastest of the run. An election is
/// the same work every time, and the host only ever adds to it: on a
/// shared host, elections take up to ~1.8x longer in stretches of seconds
/// to minutes (other tenants' use of the shared cache and memory, by all
/// signs), and a median or p90 moves with the share of the run spent so.
/// The fastest election moves only if the whole run is slowed.
pub fn measure(
    prepared: &mut Prepared,
    seed: u64,
    seconds: f64,
) -> Result<(Metrics, u64, u64), String> {
    let run = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut timed = Timed::new();
    while (started.elapsed() < run || timed.ms.len() < MIN_ELECTIONS) && !timed.hopeless() {
        let done = prepared.setup_s.len();
        if done < SETUP_REPS && started.elapsed() >= run.mul_f64(done as f64 / SETUP_REPS as f64) {
            timed.attempted += 1;
            if !prepared.repeat(seed).unwrap_or(false) {
                timed.failed += 1;
            }
            continue;
        }
        timed.record(prepared, seed);
    }
    let mut m = Metrics::new();
    // Only a hopeless run ends with no timed election; it reports its
    // failures and no timings.
    if let Some(fastest) = timed.ms.iter().copied().reduce(f64::min) {
        m.insert("elect_ms", fastest);
        m.insert("rtt_ms", fastest);
    }
    m.insert(
        "rounds_per_election",
        prepared.reference.total_rounds as f64,
    );
    m.insert(
        "setup_s",
        median(&mut prepared.setup_s.clone()).expect("set-up ran"),
    );
    m.insert(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").ok_or("cannot read VmHWM")?,
    );
    Ok((m, timed.attempted, timed.failed))
}

// ---------------------------------------------------------------------------
// Traced elections
// ---------------------------------------------------------------------------

/// A scheduler that times and counts its inner scheduler's order fills.
/// Everything else delegates, so the run — report bytes included — is the
/// inner scheduler's.
struct TimedScheduler<S> {
    inner: S,
    fill: Duration,
    entries: u64,
}

impl<S> TimedScheduler<S> {
    fn new(inner: S) -> TimedScheduler<S> {
        TimedScheduler {
            inner,
            fill: Duration::ZERO,
            entries: 0,
        }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn fill_round_order(&mut self, ids: &[ParticleId], round: u64, out: &mut Vec<ParticleId>) {
        let before = out.len();
        let started = Instant::now();
        self.inner.fill_round_order(ids, round, out);
        self.fill += started.elapsed();
        self.entries += (out.len() - before) as u64;
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn state(&self) -> SchedulerState {
        self.inner.state()
    }
    fn restore_state(&mut self, state: &SchedulerState) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// DLE with a count of its activations and of those that mutated anything
/// (`ActivationContext::has_mutated`). Every other method delegates.
#[derive(Default)]
struct CountingDle {
    activations: Cell<u64>,
    mutating: Cell<u64>,
}

impl Algorithm for CountingDle {
    type Memory = DleMemory;

    fn init(&self, ctx: &InitContext) -> DleMemory {
        DleAlgorithm.init(ctx)
    }
    fn activate(&self, ctx: &mut ActivationContext<'_, DleMemory>) {
        DleAlgorithm.activate(ctx);
        self.activations.set(self.activations.get() + 1);
        if ctx.has_mutated() {
            self.mutating.set(self.mutating.get() + 1);
        }
    }
    fn is_complete(&self, system: &ParticleSystem<DleMemory>) -> bool {
        DleAlgorithm.is_complete(system)
    }
    fn supports_quiescence(&self) -> bool {
        DleAlgorithm.supports_quiescence()
    }
    fn corrupt(&self, memory: &mut DleMemory, entropy: u64) -> bool {
        DleAlgorithm.corrupt(memory, entropy)
    }
}

/// Where one traced election's wall time went.
#[derive(Clone, Debug, Default)]
struct PhaseTimes {
    /// `PaperPipeline::start`.
    start: Duration,
    /// The `step_round` call that ended OBD (its closed-form body).
    obd: Duration,
    /// Every DLE round plus the step that ended DLE.
    dle: Duration,
    /// The `step_round` call that ended Collect.
    collect: Duration,
    /// The `step_round` call that returned the final report.
    finish: Duration,
    /// Start to dropped execution, read by its own pair of clock reads.
    wall: Duration,
    /// Microseconds per completed DLE round.
    dle_round_us: Vec<f64>,
    /// Time inside the scheduler's order fills.
    sched_fill: Duration,
    /// Activation-order entries the scheduler produced.
    sched_entries: u64,
}

impl PhaseTimes {
    /// The sum of the attributed phases.
    fn attributed(&self) -> Duration {
        self.start + self.obd + self.dle + self.collect + self.finish
    }
}

/// Runs one election step by step, timing every call into the pipeline.
fn traced_election(shape: &Shape, seed: u64) -> Result<(RunReport, PhaseTimes), String> {
    let mut times = PhaseTimes::default();
    let mut scheduler = TimedScheduler::new(SeededRandom::new(seed));
    let started = Instant::now();
    let mut execution = PaperPipeline
        .start(shape, &mut scheduler, &RunOptions::default())
        .map_err(|e| e.to_string())?;
    times.start = started.elapsed();
    let report = loop {
        let step = Instant::now();
        let outcome = execution.step_round().map_err(|e| e.to_string())?;
        let took = step.elapsed();
        match outcome {
            // Phase starts are bookkeeping; they stay unattributed.
            StepOutcome::PhaseStarted { .. } => {}
            StepOutcome::RoundCompleted { phase, .. } => {
                if phase != phase::DLE {
                    return Err(format!("unexpected round-driven phase `{phase}`"));
                }
                times.dle += took;
                times.dle_round_us.push(stats::us(took));
            }
            StepOutcome::PhaseEnded { report } => match report.name.as_str() {
                phase::OBD => times.obd += took,
                phase::DLE => times.dle += took,
                phase::COLLECT => times.collect += took,
                other => return Err(format!("unexpected phase `{other}`")),
            },
            StepOutcome::Finished(report) => {
                times.finish = took;
                break report;
            }
        }
    };
    drop(execution);
    times.wall = started.elapsed();
    times.sched_fill = scheduler.fill;
    times.sched_entries = scheduler.entries;
    Ok((report, times))
}

/// One election with the program's telemetry on, as `pm-scenarios profile`
/// runs it: per-phase profiling enabled on the execution, so every step
/// also lands in the span recorder. Returns the report, the election's
/// milliseconds and the recorder events it left (drained, so the next
/// election starts from an empty ring).
fn recorded_election(shape: &Shape, seed: u64) -> Result<(RunReport, f64, usize), String> {
    let started = Instant::now();
    let mut execution = PaperPipeline
        .start_owned(
            shape,
            Box::new(SeededRandom::new(seed)),
            &RunOptions::default(),
        )
        .map_err(|e| e.to_string())?;
    execution.enable_profiling();
    let report = execution.finish().map_err(|e| e.to_string())?;
    let took = stats::ms(started.elapsed());
    Ok((report, took, trace::drain().events.len()))
}

/// The process-wide span recorder, installed for the traced run and
/// uninstalled when dropped (if this run installed it).
struct Recorder {
    installed: bool,
}

impl Recorder {
    fn install() -> Recorder {
        Recorder {
            installed: trace::install(RECORDER_CAPACITY),
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if self.installed {
            let _ = trace::uninstall();
        }
    }
}

/// DLE alone on a `Runner`, under [`CountingDle`]: `(rounds, activations,
/// moves, mutating activations)`. The runner's own counts must agree with
/// the wrapper's, and the caller checks them against the pipeline's DLE
/// phase.
fn counted_dle(shape: &Shape, seed: u64) -> Result<(u64, u64, u64, u64), String> {
    let system = ParticleSystem::from_shape(shape, &CountingDle::default());
    let mut runner = Runner::new(system, CountingDle::default(), SeededRandom::new(seed));
    // The pipeline's own generous budget: far above DLE's O(D_A) rounds.
    let budget = 64 * (shape.len() as u64 + 16);
    let stats = runner.run(budget).map_err(|e| e.to_string())?;
    let counter = runner.algorithm();
    if counter.activations.get() != stats.activations {
        return Err("CountingDle missed activations".to_string());
    }
    Ok((
        stats.rounds,
        stats.activations,
        stats.moves(),
        counter.mutating.get(),
    ))
}

/// What a traced run of the election path saw besides its metrics.
pub struct TraceRun {
    pub attempted: u64,
    pub failed: u64,
    /// The counted DLE run matched the pipeline's DLE phase. (Traced and
    /// recorded reports that differ from the reference count as failed.)
    pub intact: bool,
    /// Milliseconds per untraced election, interleaved with the traced
    /// ones.
    pub plain_ms: Vec<f64>,
}

/// The per-layer metrics of the election path: untraced, traced and
/// recorded elections take turns until `deadline`, then one counted DLE
/// run. A run in which every traced election fails stops early and
/// reports its failures without metrics.
pub fn trace_layers(
    prepared: &Prepared,
    seed: u64,
    deadline: Instant,
    m: &mut Metrics,
) -> Result<TraceRun, String> {
    let reference_json = serde_json::to_string(&prepared.reference).map_err(|e| e.0)?;
    let matches = |report: &RunReport| -> Result<bool, String> {
        let bytes = serde_json::to_string(report).map_err(|e| e.0)?;
        Ok(bytes == reference_json && report_ok(report))
    };
    let _recorder = Recorder::install();
    let mut plain = Timed::new();
    let mut traced_ms = Vec::new();
    let mut all = PhaseTimes::default();
    // Recorded over untraced milliseconds, per turn, and events per
    // recorded election.
    let mut recorded_ratio = Vec::new();
    let mut recorded_events = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    while Instant::now() < deadline || traced_ms.len() < MIN_ELECTIONS {
        if failed >= GIVE_UP_AFTER && traced_ms.is_empty() {
            break; // Every traced election fails: stop instead of looping forever.
        }
        let plain_ms = plain.record(prepared, seed);
        attempted += 2;
        let (recorded, recorded_ms, events) = recorded_election(&prepared.shape, seed)?;
        match (matches(&recorded)?, plain_ms) {
            (true, Some(plain_ms)) => {
                recorded_ratio.push(recorded_ms / plain_ms);
                recorded_events.push(events as f64);
            }
            (true, None) => {}
            (false, _) => failed += 1,
        }
        let (report, times) = traced_election(&prepared.shape, seed)?;
        if !matches(&report)? {
            failed += 1;
            continue;
        }
        traced_ms.push(stats::ms(times.wall));
        all.start += times.start;
        all.obd += times.obd;
        all.dle += times.dle;
        all.collect += times.collect;
        all.finish += times.finish;
        all.wall += times.wall;
        all.dle_round_us.extend(times.dle_round_us);
        all.sched_fill += times.sched_fill;
        all.sched_entries += times.sched_entries;
    }
    // With every untraced election passing, there are as many as traced.
    let plain_passed = plain.failed == 0;
    let mut run = TraceRun {
        attempted: plain.attempted + attempted,
        failed: plain.failed + failed,
        intact: true,
        plain_ms: plain.ms,
    };
    if traced_ms.is_empty() {
        return Ok(run);
    }
    let n = traced_ms.len() as f64;
    let per = |d: Duration| stats::ms(d) / n;
    let wall_ms = per(all.wall);

    let dle_report = prepared
        .reference
        .phases
        .iter()
        .find(|p| p.name == phase::DLE)
        .ok_or("the reference report has no DLE phase")?;
    let (rounds, activations, moves, mutating) = counted_dle(&prepared.shape, seed)?;
    if (rounds, activations, moves) != (dle_report.rounds, dle_report.activations, dle_report.moves)
    {
        run.intact = false;
    }

    let share = |d: Duration| ratio(stats::ms(d), stats::ms(all.wall)).unwrap_or(0.0);
    m.insert(
        "grid.build_ms",
        median(&mut prepared.build_ms.clone()).expect("set-up ran"),
    );
    let dle_ms = per(all.dle);
    let fill_ms = per(all.sched_fill);
    m.insert("core.wall_ms", wall_ms);
    m.insert("core.start_ms", per(all.start));
    // The remainder, by definition: phase starts and the execution's drop.
    m.insert("core.unattributed_ms", wall_ms - per(all.attributed()));
    m.insert("obd.ms", per(all.obd));
    m.insert("obd.share", share(all.obd));
    m.insert("dle.ms", dle_ms);
    m.insert("dle.share", share(all.dle));
    m.insert("dle.loop_ms", dle_ms - fill_ms);
    m.insert(
        "dle.round_us_p50",
        percentile(&mut all.dle_round_us, 0.5).map_err(|e| e.to_string())?,
    );
    m.insert(
        "dle.round_us_p90",
        percentile(&mut all.dle_round_us, 0.9).map_err(|e| e.to_string())?,
    );
    m.insert(
        "dle.ns_per_activation",
        ratio(dle_ms * 1e6, activations as f64).unwrap_or(0.0),
    );
    m.insert(
        "dle.useful_ratio",
        ratio(mutating as f64, activations as f64).unwrap_or(0.0),
    );
    m.insert("sched.fill_ms", fill_ms);
    m.insert("sched.entries", all.sched_entries as f64 / n);
    m.insert(
        "sched.ns_per_entry",
        ratio(stats::ms(all.sched_fill) * 1e6, all.sched_entries as f64).unwrap_or(0.0),
    );
    m.insert("collect.ms", per(all.collect));
    m.insert("finish.ms", per(all.finish));
    m.insert(
        "obd.rounds",
        prepared.reference.phase_rounds(phase::OBD) as f64,
    );
    m.insert(
        "collect.rounds",
        prepared.reference.phase_rounds(phase::COLLECT) as f64,
    );
    m.insert("dle.rounds", rounds as f64);
    m.insert("dle.activations", activations as f64);
    m.insert("dle.moves", moves as f64);
    if plain_passed {
        let plain_p50 = percentile(&mut run.plain_ms, 0.5).map_err(|e| e.to_string())?;
        let traced_p50 = percentile(&mut traced_ms, 0.5).map_err(|e| e.to_string())?;
        m.insert(
            "trace.overhead_pct",
            stats::overhead_pct(traced_p50, plain_p50).unwrap_or(0.0),
        );
    }
    if let (Some(slowdown), Some(events)) =
        (median(&mut recorded_ratio), median(&mut recorded_events))
    {
        m.insert("telemetry.overhead_pct", (slowdown - 1.0) * 100.0);
        m.insert("telemetry.events", events);
    }
    Ok(run)
}

/// `measured` when a phase's rounds come from simulated activations,
/// `charged` when they come from a cost model (rounds with no
/// activations).
pub fn phase_provenance_json(report: &RunReport) -> String {
    let fields: Vec<String> = report
        .phases
        .iter()
        .map(|p| {
            let kind = if p.rounds > 0 && p.activations == 0 {
                "charged"
            } else {
                "measured"
            };
            format!("\"{}\": \"{kind}\"", p.name)
        })
        .collect();
    format!("{{\"phase_provenance\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The span recorder is process-wide: tests that record take turns.
    static RECORDING: Mutex<()> = Mutex::new(());

    #[test]
    fn recorded_election_matches_and_leaves_events() {
        let _turn = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
        let shape = GeneratorSpec::Annulus { outer: 7, inner: 3 }.build();
        let plain = elect(&shape, 7).unwrap();
        let recorder = Recorder::install();
        assert!(recorder.installed);
        let (recorded, ms, events) = recorded_election(&shape, 7).unwrap();
        drop(recorder);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&recorded).unwrap()
        );
        assert!(ms > 0.0);
        // At least one span per round.
        assert!(events as u64 >= plain.phase_rounds(phase::DLE), "{events}");
        assert!(!trace::enabled(), "dropping the recorder uninstalls it");
    }

    /// A reference no election can match: every run stops after
    /// [`GIVE_UP_AFTER`] failures and reports them instead of looping.
    #[test]
    fn runs_that_cannot_match_the_reference_end_with_their_failures() {
        let _turn = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
        let mut prepared = prepare(&GeneratorSpec::Hexagon { radius: 2 }, 7).unwrap();
        prepared.reference.total_rounds += 1;
        let mut m = Metrics::new();
        let run = trace_layers(&prepared, 7, Instant::now(), &mut m).unwrap();
        assert!(run.failed >= GIVE_UP_AFTER, "{}", run.failed);
        assert!(run.attempted >= run.failed);
        assert!(m.is_empty(), "{m:?}");
        let (m, attempted, failed) = measure(&mut prepared, 7, 0.0).unwrap();
        assert_eq!(attempted, failed);
        assert!(failed >= GIVE_UP_AFTER, "{failed}");
        assert!(!m.contains_key("elect_ms"));
    }

    /// A measured run repeats the set-up through the run, every
    /// repetition agreeing with the reference, and reports the fastest
    /// election under both timing names.
    #[test]
    fn measured_runs_repeat_the_set_up_and_report_the_fastest_election() {
        let mut prepared = Prepared::new(&GeneratorSpec::Hexagon { radius: 2 }, 7).unwrap();
        let (m, attempted, failed) = measure(&mut prepared, 7, 0.2).unwrap();
        assert_eq!(failed, 0);
        assert_eq!(prepared.setup_s.len(), SETUP_REPS);
        assert!(attempted >= (MIN_ELECTIONS + SETUP_REPS - 1) as u64);
        let fastest = m["elect_ms"];
        assert!(fastest > 0.0);
        assert_eq!(m["rtt_ms"], fastest);
        assert_eq!(
            m["rounds_per_election"],
            prepared.reference.total_rounds as f64
        );
    }

    #[test]
    fn wrappers_leave_the_election_byte_identical() {
        let shape = GeneratorSpec::Annulus { outer: 7, inner: 3 }.build();
        let plain = elect(&shape, 7).unwrap();
        let (traced, times) = traced_election(&shape, 7).unwrap();
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
        assert!(times.sched_entries > 0);
        assert_eq!(
            times.dle_round_us.len() as u64,
            plain.phase_rounds(phase::DLE)
        );
        let dle = plain.phases.iter().find(|p| p.name == phase::DLE).unwrap();
        let (rounds, activations, moves, mutating) = counted_dle(&shape, 7).unwrap();
        assert_eq!(
            (rounds, activations, moves),
            (dle.rounds, dle.activations, dle.moves)
        );
        assert!(mutating > 0 && mutating <= activations);
    }

    #[test]
    fn timed_scheduler_delegates_its_identity_and_state() {
        let mut timed = TimedScheduler::new(SeededRandom::new(3));
        let plain = SeededRandom::new(3);
        assert_eq!(timed.name(), plain.name());
        assert_eq!(timed.state(), plain.state());
        let shape = GeneratorSpec::Hexagon { radius: 1 }.build();
        let ids: Vec<ParticleId> = ParticleSystem::from_shape(&shape, &DleAlgorithm)
            .ids()
            .collect();
        let order = timed.round_order(&ids, 0);
        assert_eq!(order, SeededRandom::new(3).round_order(&ids, 0));
        assert_eq!(timed.entries, 7);
        timed.restore_state(&plain.state()).unwrap();
        assert_eq!(timed.state(), plain.state());
    }

    #[test]
    fn provenance_labels_charged_and_measured_phases() {
        let shape = GeneratorSpec::Hexagon { radius: 2 }.build();
        let report = elect(&shape, 7).unwrap();
        let line = phase_provenance_json(&report);
        assert!(line.contains("\"obd\": \"charged\""), "{line}");
        assert!(line.contains("\"dle\": \"measured\""), "{line}");
        assert!(line.contains("\"collect\": \"charged\""), "{line}");
    }
}
