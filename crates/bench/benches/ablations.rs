//! Ablation benches for the design choices DESIGN.md calls out:
//! the MPS skew threshold `t`, the parallel task size `|T|`, the RF ratio,
//! the staged lower-bound search, VB lane widths, and the degree-descending
//! reordering for BMP.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cnc_cpu::{BmpMode, CpuKernel, ParConfig};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::reorder;
use cnc_graph::CsrGraph;
use cnc_intersect::{
    gallop_lower_bound, gallop_lower_bound_no_prefix, vb_count_lanes, MpsConfig, NullMeter,
    SimdLevel,
};
use cnc_workload::WorkloadKind::Cnc;

/// The hybrid threshold sweep: pure merge (t=∞) ↔ pure pivot-skip (t=0).
fn ablation_threshold(c: &mut Criterion) {
    let g = Dataset::TwS.build(Scale::Tiny);
    let mut group = c.benchmark_group("ablation_threshold_tw");
    group.sample_size(15);
    for t in [0u32, 2, 10, 50, 200, u32::MAX] {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            let cfg = MpsConfig {
                skew_threshold: t,
                simd: SimdLevel::detect(),
            };
            b.iter(|| CpuKernel::Mps(cfg).run_seq_kind(&g, Cnc, &mut NullMeter))
        });
    }
    group.finish();
}

/// Task size |T| for the rayon skeleton: scheduling overhead vs balance.
fn ablation_task_size(c: &mut Criterion) {
    let g = Dataset::TwS.build(Scale::Tiny);
    let mut group = c.benchmark_group("ablation_task_size_tw");
    group.sample_size(15);
    for t in [64usize, 1024, 8192, 65_536] {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            let cfg = ParConfig::with_task_size(t);
            b.iter(|| CpuKernel::Mps(MpsConfig::default()).run_par_kind(&g, &cfg, Cnc))
        });
    }
    group.finish();
}

/// RF ratio sweep on the uniform analogue (RF's win case).
fn ablation_rf_ratio(c: &mut Criterion) {
    let g = reorder::degree_descending(&Dataset::FrS.build(Scale::Tiny)).graph;
    let mut group = c.benchmark_group("ablation_rf_ratio_fr");
    group.sample_size(15);
    group.bench_function("off", |b| {
        b.iter(|| CpuKernel::Bmp(BmpMode::Plain).run_seq_kind(&g, Cnc, &mut NullMeter))
    });
    for ratio in [2usize, 8, 64, 512, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(ratio), &ratio, |b, &ratio| {
            b.iter(|| {
                CpuKernel::Bmp(BmpMode::RangeFiltered { ratio }).run_seq_kind(
                    &g,
                    Cnc,
                    &mut NullMeter,
                )
            })
        });
    }
    group.finish();
}

/// The staged lower bound (vectorized linear prefix + gallop) vs pure gallop.
fn ablation_gallop(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let hay: Vec<u32> = {
        let mut v: Vec<u32> = (0..400_000).map(|_| rng.gen_range(0..4_000_000)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    // Near targets: the linear prefix's win case (matches a few slots away).
    let near: Vec<(usize, u32)> = (0..1000)
        .map(|i| {
            let start = i * 397 % (hay.len() - 20);
            (start, hay[start + 7])
        })
        .collect();
    // Far targets: galloping's win case.
    let far: Vec<(usize, u32)> = (0..1000)
        .map(|i| {
            let start = i * 13 % (hay.len() / 2);
            (start, hay[(start + hay.len() / 3) % hay.len()])
        })
        .collect();
    let mut group = c.benchmark_group("ablation_gallop");
    group.sample_size(30);
    for (name, targets) in [("near", &near), ("far", &far)] {
        group.bench_function(format!("staged_{name}"), |b| {
            b.iter(|| {
                targets
                    .iter()
                    .map(|&(s, t)| gallop_lower_bound(&hay, s, t, &mut NullMeter))
                    .sum::<usize>()
            })
        });
        group.bench_function(format!("pure_gallop_{name}"), |b| {
            b.iter(|| {
                targets
                    .iter()
                    .map(|&(s, t)| gallop_lower_bound_no_prefix(&hay, s, t, &mut NullMeter))
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

/// Emulated VB lane widths on identical inputs.
fn ablation_lanes(c: &mut Criterion) {
    let a: Vec<u32> = (0..8192).map(|x| x * 3).collect();
    let b: Vec<u32> = (0..8192).map(|x| x * 2 + 1).collect();
    let mut group = c.benchmark_group("ablation_vb_lanes");
    group.sample_size(30);
    group.bench_function("lanes_4", |bench| {
        bench.iter(|| vb_count_lanes::<4, _>(&a, &b, &mut NullMeter))
    });
    group.bench_function("lanes_8", |bench| {
        bench.iter(|| vb_count_lanes::<8, _>(&a, &b, &mut NullMeter))
    });
    group.bench_function("lanes_16", |bench| {
        bench.iter(|| vb_count_lanes::<16, _>(&a, &b, &mut NullMeter))
    });
    group.finish();
}

/// Index-structure choice: the paper's dynamic bitmap vs a hash index vs
/// the BSR sparse bitmap vs plain merge — Section 2.2.1's three families on
/// one realistic probe workload (index one hub list, probe many small
/// lists).
fn ablation_index(c: &mut Criterion) {
    use cnc_bench::ablation::{bsr_count, hash_count, BsrSet, HashIndex};
    use cnc_intersect::{bmp_count, merge_count, Bitmap};
    let g = reorder::degree_descending(&Dataset::TwS.build(Scale::Tiny)).graph;
    // Index the largest-degree vertex's neighbors, probe with the neighbor
    // lists of its neighbors (exactly BMP's access pattern for one block).
    let hub = 0u32;
    let hub_list = g.neighbors(hub).to_vec();
    let probes: Vec<Vec<u32>> = g
        .neighbors(hub)
        .iter()
        .take(256)
        .map(|&v| g.neighbors(v).to_vec())
        .collect();
    let mut group = c.benchmark_group("ablation_index_structures");
    group.sample_size(20);
    group.bench_function("bitmap", |b| {
        let mut bm = Bitmap::new(g.num_vertices());
        bm.set_list(&hub_list, &mut NullMeter);
        b.iter(|| {
            probes
                .iter()
                .map(|p| bmp_count(&bm, p, &mut NullMeter))
                .sum::<u32>()
        })
    });
    group.bench_function("hash_index", |b| {
        let mut h = HashIndex::with_capacity(hub_list.len());
        h.build(&hub_list, &mut NullMeter);
        b.iter(|| {
            probes
                .iter()
                .map(|p| hash_count(&h, p, &mut NullMeter))
                .sum::<u32>()
        })
    });
    group.bench_function("bsr", |b| {
        let hub_bsr = BsrSet::from_sorted(&hub_list);
        let probe_bsrs: Vec<BsrSet> = probes.iter().map(|p| BsrSet::from_sorted(p)).collect();
        b.iter(|| {
            probe_bsrs
                .iter()
                .map(|p| bsr_count(&hub_bsr, p, &mut NullMeter))
                .sum::<u32>()
        })
    });
    group.bench_function("merge", |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|p| merge_count(&hub_list, p, &mut NullMeter))
                .sum::<u32>()
        })
    });
    group.finish();
}

/// BMP with and without the degree-descending relabeling.
fn ablation_reorder(c: &mut Criterion) {
    let raw = Dataset::WiS.build(Scale::Tiny);
    let degree_ordered = reorder::degree_descending(&raw).graph;
    let core_ordered = reorder::core_descending(&raw).graph;
    // A hub-first-by-construction graph where the raw ids are already close
    // to degree order.
    let ba = CsrGraph::from_edge_list(&cnc_graph::generators::barabasi_albert(2000, 8, 9));
    let mut group = c.benchmark_group("ablation_reorder");
    group.sample_size(15);
    group.bench_function("wi_raw_ids", |b| {
        b.iter(|| CpuKernel::Bmp(BmpMode::Plain).run_seq_kind(&raw, Cnc, &mut NullMeter))
    });
    group.bench_function("wi_degree_descending", |b| {
        b.iter(|| CpuKernel::Bmp(BmpMode::Plain).run_seq_kind(&degree_ordered, Cnc, &mut NullMeter))
    });
    group.bench_function("wi_core_descending", |b| {
        b.iter(|| CpuKernel::Bmp(BmpMode::Plain).run_seq_kind(&core_ordered, Cnc, &mut NullMeter))
    });
    group.bench_function("ba_raw_ids", |b| {
        b.iter(|| CpuKernel::Bmp(BmpMode::Plain).run_seq_kind(&ba, Cnc, &mut NullMeter))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = ablation_threshold, ablation_task_size, ablation_rf_ratio,
              ablation_gallop, ablation_lanes, ablation_index, ablation_reorder
}
criterion_main!(benches);
