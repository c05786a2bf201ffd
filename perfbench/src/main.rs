//! The repository benchmark: three workloads over the two paths an election
//! is served on, measured end to end with tracing off, or split by layer
//! with `--trace 1`.
//!
//! ```text
//! bash perfbench/run.sh --workload elect-annulus --seed 7 --seconds 40 --trace 0
//! ```
//!
//! * `elect-annulus` — `Election::run` on `Annulus { outer: 66, inner: 33 }`
//!   (n = 9,900): DLE dominates wall time.
//! * `elect-caterpillar` — `Election::run` on `Caterpillar { spine: 1000,
//!   max_tooth: 8, seed }`: the closed-form OBD dominates, DLE is tiny.
//! * `service-small` — a closed loop of [`service::CLIENTS`] TCP clients
//!   against a `pm-scenarios serve --tcp` child, each looping `submit` →
//!   `run` → `cancel` on a radius-2 hexagon.
//!
//! The seed drives the scheduler (and the caterpillar's teeth). Every
//! election report is checked against the set-up reference; the last
//! stdout line is the result object, preceded by a provenance line.
//! `README.md` beside this crate defines each metric.

mod elect;
mod host;
mod service;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The seed later claims must also hold on, besides the one they were
/// developed against.
pub const HELD_OUT_SEED: u64 = 13;

/// End-to-end metrics, `(name, unit)`: what `--trace 0` prints, on every
/// workload. Only figures that stay steady from run to run on a shared
/// host are here. `elect_ms` and `rtt_ms` are the fastest election of the
/// run on the election workloads (the host only ever adds time to the
/// same work; see [`elect::measure`]) and median round trips on the
/// service workload (see [`service::measure`]).
pub const END_TO_END: [(&str, &str); 5] = [
    ("elect_ms", "ms"),
    ("rtt_ms", "ms"),
    ("rounds_per_election", "rounds"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`: what `--trace 1` prints, on every
/// workload. The first seven are the central timings as medians, p90s and
/// rates, measured untraced inside the traced run. A layer a workload
/// never enters reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("elect_ms_p50", "ms"),
    ("elect_ms_p90", "ms"),
    ("elections_per_s", "1/s"),
    ("sessions_per_s", "1/s"),
    ("rtt_ms_p50", "ms"),
    ("rtt_ms_p90", "ms"),
    ("run_rtt_ms_p90", "ms"),
    ("grid.build_ms", "ms"),
    ("core.wall_ms", "ms"),
    ("core.start_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("obd.ms", "ms"),
    ("obd.share", "ratio"),
    ("dle.ms", "ms"),
    ("dle.share", "ratio"),
    ("dle.loop_ms", "ms"),
    ("dle.round_us_p50", "us"),
    ("dle.round_us_p90", "us"),
    ("dle.ns_per_activation", "ns"),
    ("dle.useful_ratio", "ratio"),
    ("sched.fill_ms", "ms"),
    ("sched.entries", "count"),
    ("sched.ns_per_entry", "ns"),
    ("collect.ms", "ms"),
    ("finish.ms", "ms"),
    ("obd.rounds", "rounds"),
    ("collect.rounds", "rounds"),
    ("dle.rounds", "rounds"),
    ("dle.activations", "count"),
    ("dle.moves", "count"),
    ("trace.overhead_pct", "%"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.events", "count"),
    ("client.submit_rtt_ms_p50", "ms"),
    ("client.run_rtt_ms_p50", "ms"),
    ("client.cancel_rtt_ms_p50", "ms"),
    ("client.busy", "count"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("server.handle_submit_us", "us"),
    ("server.handle_run_us", "us"),
    ("server.handle_cancel_us", "us"),
    ("server.inproc_us", "us"),
    ("transport.gap_ms", "ms"),
    ("transport.segments_per_request", "count"),
    ("server.bytes_per_response", "bytes"),
    ("server.sweeps_per_session", "count"),
    ("fail_frac", "ratio"),
];

/// The workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    ElectAnnulus,
    ElectCaterpillar,
    ServiceSmall,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ElectAnnulus,
        Workload::ElectCaterpillar,
        Workload::ServiceSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ElectAnnulus => "elect-annulus",
            Workload::ElectCaterpillar => "elect-caterpillar",
            Workload::ServiceSmall => "service-small",
        }
    }

    /// The shape an election workload runs on.
    pub fn shape(self, seed: u64) -> pm_scenarios::GeneratorSpec {
        use pm_scenarios::GeneratorSpec;
        match self {
            Workload::ElectAnnulus => GeneratorSpec::Annulus {
                outer: 66,
                inner: 33,
            },
            Workload::ElectCaterpillar => GeneratorSpec::Caterpillar {
                spine: 1000,
                max_tooth: 8,
                seed,
            },
            Workload::ServiceSmall => service::spec(seed).generator,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <elect-annulus|elect-caterpillar|service-small> \
                     [--seed N] [--seconds S] [--trace 0|1] [--server-bin PATH]";

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: bad value `{value}`"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::ElectAnnulus,
        seed: 7,
        seconds: 10.0,
        trace: false,
        server_bin: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload `{value}`\n{USAGE}"))?,
                )
            }
            "--seed" => args.seed = number(&flag, &value)?,
            "--seconds" => args.seconds = number(&flag, &value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--server-bin" => args.server_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    args.workload = workload.ok_or(USAGE)?;
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// What one run produced.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Every integrity check held (beyond the per-operation checks that
    /// feed `failed`).
    intact: bool,
    /// Extra JSON lines to print before the result.
    notes: Vec<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let Args {
        workload,
        seed,
        seconds,
        trace,
        ..
    } = *args;
    let server_bin = || {
        args.server_bin
            .clone()
            .ok_or_else(|| "service-small needs --server-bin".to_string())
    };
    let mut notes = Vec::new();
    let (metrics, attempted, failed, intact) = match (workload, trace) {
        (Workload::ServiceSmall, false) => service::measure(&server_bin()?, seed, seconds)?,
        (Workload::ServiceSmall, true) => {
            let mut m = Metrics::new();
            let (attempted, failed, intact) =
                service::trace(&server_bin()?, seed, seconds, &mut m)?;
            (m, attempted, failed, intact)
        }
        (_, false) => {
            let mut prepared = elect::Prepared::new(&workload.shape(seed), seed)?;
            let (m, attempted, failed) = elect::measure(&mut prepared, seed, seconds)?;
            (m, attempted, failed, true)
        }
        (_, true) => {
            let prepared = elect::prepare(&workload.shape(seed), seed)?;
            let mut m = Metrics::new();
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let mut run = elect::trace_layers(&prepared, seed, deadline, &mut m)?;
            if run.failed == 0 {
                elect::timing_metrics(&mut run.plain_ms, &mut m)?;
            }
            notes.push(elect::phase_provenance_json(&prepared.reference));
            (m, run.attempted, run.failed, run.intact)
        }
    };
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        intact,
        notes,
    })
}

/// The result line: every metric of `catalogue`, in order.
fn result_json(outcome: &Outcome, catalogue: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in catalogue {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or(format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0 && outcome.intact;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        host::provenance_json(args.workload.name(), args.seed, HELD_OUT_SEED)
    );
    let result = run(&args).and_then(|mut outcome| {
        let catalogue: &[(&'static str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        if args.trace {
            let fail_frac = stats::ratio(outcome.failed as f64, outcome.attempted as f64);
            outcome
                .metrics
                .insert("fail_frac", fail_frac.unwrap_or(1.0));
        }
        // A layer the workload never enters did no work, and a run whose
        // checks failed reports what it could not time as 0.
        if args.trace || outcome.failed > 0 || !outcome.intact {
            for (name, _) in catalogue {
                outcome.metrics.entry(*name).or_insert(0.0);
            }
        }
        let line = result_json(&outcome, catalogue)?;
        Ok((outcome.notes, line))
    });
    match result {
        Ok((notes, line)) => {
            notes.iter().for_each(|n| println!("{n}"));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// workloads and metrics, with these units.
    #[test]
    fn benchmark_json_matches_the_catalogues() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("a list")
                .iter()
                .map(|entry| {
                    let field = |f: &str| match entry.get(f) {
                        Some(serde_json::Value::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn result_line_lists_every_metric_or_refuses() {
        let mut outcome = Outcome {
            metrics: END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect(),
            attempted: 3,
            failed: 0,
            intact: true,
            notes: Vec::new(),
        };
        let line = result_json(&outcome, &END_TO_END).unwrap();
        let json: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&serde_json::Value::Bool(true)));
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.as_object())
                .map(<[_]>::len),
            Some(END_TO_END.len())
        );
        outcome.metrics.remove("setup_s");
        assert!(result_json(&outcome, &END_TO_END).is_err());
        outcome.metrics.insert("setup_s", f64::NAN);
        assert!(result_json(&outcome, &END_TO_END).is_err());
    }

    /// Both the development seed and the held-out seed pass every output
    /// check on every election workload.
    #[test]
    fn held_out_seed_passes_the_output_checks() {
        for seed in [7, HELD_OUT_SEED] {
            for workload in Workload::ALL {
                let prepared = elect::prepare(&workload.shape(seed), seed).unwrap();
                assert!(elect::report_ok(&prepared.reference), "{workload:?}");
            }
        }
    }
}
