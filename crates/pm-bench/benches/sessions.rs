//! Criterion benchmark of the multi-tenant session scheduler: N concurrent
//! small elections driven to completion through `SessionScheduler` sweeps
//! with a fair 16-step slice (sequential and sharded), against the same N
//! scenarios at an unbounded slice (`eager-seq`), which finishes each run
//! in one slice as the experiment sweeps do. The eager path is the
//! throughput ceiling — one slice per session, no interleaving — so the gap
//! is the price of fair round-robin interleaving, which the server pays to
//! keep thousands of sessions live at once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_core::api::{LeaderElection, PaperPipeline, RunOptions};
use pm_core::session::{no_hook, Goal, SessionScheduler};
use pm_core::SchedulerSpec;
use pm_grid::builder::hexagon;
use std::hint::black_box;
use std::time::Duration;

const SLICE_STEPS: u64 = 16;

fn sessions_total_rounds(n_sessions: u64, slice_steps: u64, threads: usize) -> u64 {
    let shape = hexagon(3);
    let opts = RunOptions::default();
    let mut scheduler: SessionScheduler = SessionScheduler::with_threads(slice_steps, threads);
    for seed in 0..n_sessions {
        let execution = PaperPipeline
            .start_owned(&shape, SchedulerSpec::SeededRandom(seed).build(), &opts)
            .expect("valid configuration");
        let id = scheduler.admit(execution, ());
        scheduler.set_goal(id, Goal::Complete);
    }
    while scheduler.sweep(&no_hook) > 0 {}
    scheduler
        .ids()
        .into_iter()
        .map(|id| {
            scheduler
                .outcome(id)
                .expect("swept to completion")
                .as_ref()
                .expect("hexagon elects")
                .total_rounds
        })
        .sum()
}

fn bench_fair_vs_eager(c: &mut Criterion) {
    let mut group = c.benchmark_group("sessions");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n_sessions in [16u64, 64] {
        group.bench_with_input(
            BenchmarkId::new("eager-seq", n_sessions),
            &n_sessions,
            |b, &n| b.iter(|| black_box(sessions_total_rounds(n, u64::MAX, 1))),
        );
        group.bench_with_input(
            BenchmarkId::new("scheduler-seq", n_sessions),
            &n_sessions,
            |b, &n| b.iter(|| black_box(sessions_total_rounds(n, SLICE_STEPS, 1))),
        );
        group.bench_with_input(
            BenchmarkId::new("scheduler-4t", n_sessions),
            &n_sessions,
            |b, &n| b.iter(|| black_box(sessions_total_rounds(n, SLICE_STEPS, 4))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fair_vs_eager);
criterion_main!(benches);
