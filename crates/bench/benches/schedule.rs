//! The single-thread effect of the prepared reverse-edge index: a
//! sequential pass with the O(1) `rev[eid]` load versus the per-edge binary
//! search over `N(v)`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use cnc_cpu::{BmpMode, CpuKernel};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::reorder;
use cnc_intersect::NullMeter;
use cnc_workload::WorkloadKind::Cnc;

fn bench_reverse_index(c: &mut Criterion) {
    // Single-thread whole-range BMP run at Small scale (the graph no
    // longer fits in cache, so the search's random probes cost real
    // memory traffic): the mirror lookup is the only thing that differs
    // between the two graphs. The skewed analogue shows a ~1.25x win.
    let searched = reorder::degree_descending(&Dataset::TwS.build(Scale::Small)).graph;
    let mut indexed = searched.clone();
    indexed.build_reverse_index();
    let kernel = CpuKernel::Bmp(BmpMode::Plain);
    let mut group = c.benchmark_group("reverse_lookup_tw");
    group.throughput(Throughput::Elements(searched.num_directed_edges() as u64));
    group.sample_size(10);
    group.bench_function("binary_search", |b| {
        b.iter(|| kernel.run_seq_kind(&searched, Cnc, &mut NullMeter))
    });
    group.bench_function("rev_index", |b| {
        b.iter(|| kernel.run_seq_kind(&indexed, Cnc, &mut NullMeter))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_reverse_index
}
criterion_main!(benches);
