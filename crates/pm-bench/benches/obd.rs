//! Criterion benchmarks of the OBD primitive and its unpipelined baseline
//! (experiment F6's engine).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_amoebot::scheduler::RoundRobin;
use pm_baselines::QuadraticBoundary;
use pm_core::api::{LeaderElection, RunOptions};
use pm_core::obd::run_obd;
use pm_grid::builder::{comb, hexagon, line, swiss_cheese};
use pm_grid::random::caterpillar;
use pm_grid::Shape;
use std::hint::black_box;
use std::time::Duration;

/// Thin shapes whose outer boundary is long relative to `n`: the segment
/// competition's event count grows with the boundary length `L`.
fn long_boundaries() -> [(&'static str, u32, Shape); 3] {
    [
        ("caterpillar", 1000, caterpillar(1000, 8, 7)),
        ("comb", 200, comb(200, 8)),
        ("line", 2000, line(2000)),
    ]
}

fn bench_obd(c: &mut Criterion) {
    let mut group = c.benchmark_group("obd-pipelined");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for radius in [6u32, 10, 14] {
        let shape = hexagon(radius);
        group.bench_with_input(BenchmarkId::new("hexagon", radius), &shape, |b, s| {
            b.iter(|| black_box(run_obd(s).rounds));
        });
    }
    let holey = swiss_cheese(10, 3);
    group.bench_with_input(BenchmarkId::new("swiss", 10u32), &holey, |b, s| {
        b.iter(|| black_box(run_obd(s).rounds));
    });
    for (name, size, shape) in long_boundaries() {
        group.bench_with_input(BenchmarkId::new(name, size), &shape, |b, s| {
            b.iter(|| black_box(run_obd(s).rounds));
        });
    }
    group.finish();
}

fn bench_quadratic_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("obd-unpipelined-baseline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let shapes = [6u32, 10]
        .map(|radius| ("hexagon", radius, hexagon(radius)))
        .into_iter()
        .chain(long_boundaries());
    for (name, size, shape) in shapes {
        group.bench_with_input(BenchmarkId::new(name, size), &shape, |b, s| {
            b.iter(|| {
                let report = QuadraticBoundary
                    .elect(s, &mut RoundRobin, &RunOptions::default())
                    .expect("runs");
                black_box(report.total_rounds)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_obd, bench_quadratic_baseline);
criterion_main!(benches);
