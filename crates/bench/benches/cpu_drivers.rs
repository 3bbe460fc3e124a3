//! Wall-clock benchmarks of whole-graph CPU passes (the real multicore
//! backend) on the dataset analogues.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cnc_cpu::{BmpMode, CpuKernel, ParConfig};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::reorder;
use cnc_intersect::{MpsConfig, NullMeter};
use cnc_workload::WorkloadKind::Cnc;

fn bench_drivers(c: &mut Criterion) {
    for d in [Dataset::TwS, Dataset::FrS] {
        let g = reorder::degree_descending(&d.build(Scale::Tiny)).graph;
        let edges = g.num_directed_edges() as u64;
        let mut group = c.benchmark_group(format!("drivers_{}", d.name()));
        group.throughput(Throughput::Elements(edges));
        group.sample_size(20);

        group.bench_function("seq_mps", |b| {
            b.iter(|| CpuKernel::Mps(MpsConfig::default()).run_seq_kind(&g, Cnc, &mut NullMeter))
        });
        group.bench_function("seq_bmp_rf", |b| {
            b.iter(|| {
                CpuKernel::Bmp(BmpMode::rf_scaled(g.num_vertices())).run_seq_kind(
                    &g,
                    Cnc,
                    &mut NullMeter,
                )
            })
        });
        let par = ParConfig::default();
        group.bench_function("par_baseline_m", |b| {
            b.iter(|| CpuKernel::Merge.run_par_kind(&g, &par, Cnc))
        });
        group.bench_function("par_mps", |b| {
            b.iter(|| CpuKernel::Mps(MpsConfig::default()).run_par_kind(&g, &par, Cnc))
        });
        group.bench_function("par_bmp", |b| {
            b.iter(|| CpuKernel::Bmp(BmpMode::Plain).run_par_kind(&g, &par, Cnc))
        });
        group.bench_function("par_bmp_rf", |b| {
            b.iter(|| {
                CpuKernel::Bmp(BmpMode::rf_scaled(g.num_vertices())).run_par_kind(&g, &par, Cnc)
            })
        });
        group.finish();
    }
}

fn bench_simd_levels(c: &mut Criterion) {
    use cnc_intersect::SimdLevel;
    let g = Dataset::FrS.build(Scale::Tiny);
    let mut group = c.benchmark_group("mps_simd_levels_fr");
    group.sample_size(20);
    for level in [
        SimdLevel::Scalar,
        SimdLevel::Sse4,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(level.label()),
            &level,
            |b, &level| {
                let cfg = MpsConfig::with_simd(level);
                b.iter(|| CpuKernel::Mps(cfg).run_seq_kind(&g, Cnc, &mut NullMeter))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_drivers, bench_simd_levels
}
criterion_main!(benches);
