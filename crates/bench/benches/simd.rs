//! Wall-clock benchmarks of the SIMD dispatch surface: the same kernels at
//! every forced [`SimdTier`], per lane width, from isolated probe loops up
//! to end-to-end single-thread BMP/MPS runs on the scaled paper graphs.
//!
//! Benches run in one sequential process, so `SimdTier::force` between
//! groups is safe here (tests must not do this — they run in parallel).
//! The acceptance target for the vectorized probes is ≥1.2x single-thread
//! BMP on tw-s or lj-s versus the same run forced to `scalar`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cnc_cpu::{BmpMode, CpuKernel};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_intersect::{
    bmp_count_tier, gallop_lower_bound_tier, rf_count_tier, scaled_rf_ratio, Bitmap, MpsConfig,
    NullMeter, RfBitmap, SimdTier,
};
use cnc_workload::WorkloadKind::Cnc;

fn sorted_set(rng: &mut StdRng, len: usize, universe: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..universe)).collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(len);
    v
}

/// Tiers this host can actually execute, widest last.
fn host_tiers() -> Vec<SimdTier> {
    SimdTier::ALL
        .into_iter()
        .filter(|t| t.supported())
        .collect()
}

/// Isolated BMP word-probe loop: one bitmap, one 4096-element probe array,
/// each tier. The AVX2 row answers "what did the 8-lane gather buy"; the
/// AVX-512 row the 16-lane version; `portable` isolates the block-shaped
/// scalar rewrite from the intrinsics themselves.
fn bench_bmp_probe(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let n = 1_000_000usize;
    let indexed = sorted_set(&mut rng, 20_000, n as u32);
    let probe = sorted_set(&mut rng, 4096, n as u32);
    let mut bm = Bitmap::new(n);
    bm.set_list(&indexed, &mut NullMeter);
    let mut group = c.benchmark_group("simd_bmp_probe_4096");
    group.throughput(Throughput::Elements(probe.len() as u64));
    for tier in host_tiers() {
        group.bench_with_input(
            BenchmarkId::new("bmp_count", tier.label()),
            &tier,
            |bench, &tier| bench.iter(|| bmp_count_tier(&bm, &probe, tier, &mut NullMeter)),
        );
    }
    group.finish();
}

/// Isolated range-filtered probe loop: one 4096-element probe array
/// against a dense filter (20,000 ids scattered over 1M, most ranges set:
/// the wide tiers gather) and a sparse one (2,000 ids in the first 32
/// ranges: every tier runs the per-key loop), each tier.
fn bench_rf_probe(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let n = 1_000_000usize;
    let ratio = scaled_rf_ratio(n);
    let dense = sorted_set(&mut rng, 20_000, n as u32);
    let sparse = sorted_set(&mut rng, 2_000, 32 * ratio as u32);
    let probe = sorted_set(&mut rng, 4096, n as u32);
    for (label, indexed) in [("dense", &dense), ("sparse", &sparse)] {
        let mut rf = RfBitmap::with_ratio(n, ratio);
        rf.set_list(indexed, &mut NullMeter);
        let mut group = c.benchmark_group(format!("simd_rf_probe_4096_{label}"));
        group.throughput(Throughput::Elements(probe.len() as u64));
        for tier in host_tiers() {
            group.bench_with_input(
                BenchmarkId::new("rf_count", tier.label()),
                &tier,
                |bench, &tier| bench.iter(|| rf_count_tier(&rf, &probe, tier, &mut NullMeter)),
            );
        }
        group.finish();
    }
}

/// Isolated galloping search: lower bounds of scattered targets, each tier.
/// Every tier runs the same scalar exponential loop, so the rows differ
/// only in the 16-element linear prefix and the last ≤16 candidates of the
/// final window (one masked vector compare each at the AVX2/AVX-512 tiers).
/// Far targets make the exponential loop dominate, so the rows should sit
/// close together. Two haystack sizes separate compute from memory: a 4MB
/// (1M-element) array is cache-resident, a 128MB (32M-element) array is
/// DRAM-resident, where each dependent probe waits on a miss.
fn bench_gallop(c: &mut Criterion) {
    for (label, len) in [("1m", 1_000_000usize), ("32m", 32_000_000)] {
        let mut rng = StdRng::seed_from_u64(12);
        let hay: Vec<u32> = sorted_set(&mut rng, len, u32::MAX);
        let targets: Vec<u32> = (0..512).map(|_| rng.gen_range(0..u32::MAX)).collect();
        let mut group = c.benchmark_group(format!("simd_gallop_{label}"));
        group.throughput(Throughput::Elements(targets.len() as u64));
        for tier in host_tiers() {
            group.bench_with_input(
                BenchmarkId::new("gallop_lower_bound", tier.label()),
                &tier,
                |bench, &tier| {
                    bench.iter(|| {
                        let mut acc = 0usize;
                        for &t in &targets {
                            acc += gallop_lower_bound_tier(&hay, 0, t, tier, &mut NullMeter);
                        }
                        acc
                    })
                },
            );
        }
        group.finish();
    }
}

/// End-to-end single-thread runs on the scaled paper graphs: the whole BMP
/// and MPS pipelines with the process tier forced, so every dispatch site
/// (bitmap probes, gallop, VB blocks, linear prefix) switches together.
fn bench_end_to_end(c: &mut Criterion) {
    for dataset in [Dataset::TwS, Dataset::LjS] {
        let g = dataset.build(Scale::Small);
        let mut group = c.benchmark_group(format!("simd_e2e_{}", dataset.name()));
        group.sample_size(10);
        group.throughput(Throughput::Elements(g.num_directed_edges() as u64));
        for tier in host_tiers() {
            SimdTier::force(tier).expect("host_tiers returns supported tiers only");
            group.bench_with_input(
                BenchmarkId::new("seq_bmp", tier.label()),
                &tier,
                |bench, _| {
                    bench.iter(|| {
                        CpuKernel::Bmp(BmpMode::Plain).run_seq_kind(&g, Cnc, &mut NullMeter)
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("seq_mps", tier.label()),
                &tier,
                |bench, _| {
                    bench.iter(|| {
                        CpuKernel::Mps(MpsConfig::default()).run_seq_kind(&g, Cnc, &mut NullMeter)
                    })
                },
            );
        }
        group.finish();
    }
    // Leave the process at the host's best tier for anything that follows.
    let _ = SimdTier::force(SimdTier::detect_host());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_bmp_probe, bench_rf_probe, bench_gallop, bench_end_to_end
}
criterion_main!(benches);
