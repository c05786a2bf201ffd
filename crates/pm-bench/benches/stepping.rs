//! Criterion benchmark of the steppable `Execution` handle: the eager
//! `elect()` path against a hand-driven `start()` + `step_round()` loop on
//! the same workload. The two must cost the same — the handle is the same
//! state machine with the loop inverted, so any gap is pure dispatch
//! overhead (one boxed-trait call per round plus the status polling a
//! driver typically does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_amoebot::scheduler::SeededRandom;
use pm_core::api::{LeaderElection, PaperPipeline, RunOptions, StepOutcome};
use pm_grid::builder::hexagon;
use std::hint::black_box;
use std::time::Duration;

fn bench_elect_vs_stepping(c: &mut Criterion) {
    let mut group = c.benchmark_group("execution-handle");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for radius in [4u32, 8] {
        let shape = hexagon(radius);
        let opts = RunOptions::default();
        group.bench_with_input(BenchmarkId::new("elect", radius), &shape, |b, shape| {
            b.iter(|| {
                let mut scheduler = SeededRandom::new(7);
                black_box(
                    PaperPipeline
                        .elect(shape, &mut scheduler, &opts)
                        .unwrap()
                        .total_rounds,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("step-loop", radius), &shape, |b, shape| {
            b.iter(|| {
                let mut scheduler = SeededRandom::new(7);
                let mut execution = PaperPipeline.start(shape, &mut scheduler, &opts).unwrap();
                loop {
                    // Poll the upcoming round every step, as a fault
                    // driver does (the O(1) accessor, not a full status).
                    black_box(execution.next_round());
                    if let StepOutcome::Finished(report) = execution.step_round().unwrap() {
                        break black_box(report.total_rounds);
                    }
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_elect_vs_stepping);
criterion_main!(benches);
