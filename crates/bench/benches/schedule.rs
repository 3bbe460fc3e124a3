//! The single-thread effect of the reverse-edge index: a sequential pass
//! whose mirror store loads `rev[eid]` (`CncWorkload`) versus one that
//! binary-searches `N(v)` for the mirror slot, as the paper's symmetric
//! assignment does (the bench-local `SearchedMirror`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use cnc_cpu::{execute, BmpMode, CpuKernel, KernelPool, WorkList};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::{reorder, CsrGraph};
use cnc_intersect::{Meter, NullMeter, PairKernel};
use cnc_workload::{CncWorkload, ScatterVec, Workload};

/// CNC with the mirror slot `e(v, u)` found by a binary search of `u` in
/// `N(v)` instead of the reverse-edge index: the ablation's searched side.
struct SearchedMirror;

impl Workload for SearchedMirror {
    type Shared = ScatterVec;
    type Accum = ();
    type Output = Vec<u32>;

    fn new_shared(&self, g: &CsrGraph) -> ScatterVec {
        ScatterVec::new(g.num_directed_edges())
    }

    fn new_accum(&self, _g: &CsrGraph) {}

    fn visit<K: PairKernel, M: Meter>(
        &self,
        g: &CsrGraph,
        shared: &ScatterVec,
        _acc: &mut (),
        eid: usize,
        u: u32,
        v: u32,
        kernel: &mut K,
        meter: &mut M,
    ) {
        let c = kernel.count(g.neighbors(u), g.neighbors(v), meter);
        shared.set(eid, c);
        shared.set(g.edge_offset(v, u).expect("CSR is symmetric"), c);
    }

    fn merge(&self, _into: &mut (), _from: ()) {}

    fn finish(&self, _g: &CsrGraph, shared: ScatterVec, _acc: ()) -> Vec<u32> {
        shared.into_vec()
    }
}

/// One whole-range task of `workload` over `g`.
fn pass<W: Workload>(g: &CsrGraph, kernels: &KernelPool, workload: &W) -> W::Output {
    let whole = 0..g.num_directed_edges();
    let work = WorkList::Edges(std::slice::from_ref(&whole));
    execute(g, work, kernels, workload, &mut NullMeter, None).0
}

fn bench_reverse_index(c: &mut Criterion) {
    // Single-thread whole-range BMP run at Small scale (the graph no
    // longer fits in cache, so the search's random probes cost real
    // memory traffic): the mirror lookup is the only thing that differs
    // between the two workloads.
    let g = reorder::degree_descending(&Dataset::TwS.build(Scale::Small)).graph;
    let kernels = KernelPool::new(CpuKernel::Bmp(BmpMode::Plain), g.num_vertices());
    assert_eq!(
        pass(&g, &kernels, &SearchedMirror),
        pass(&g, &kernels, &CncWorkload)
    );
    let mut group = c.benchmark_group("reverse_lookup_tw");
    group.throughput(Throughput::Elements(g.num_directed_edges() as u64));
    group.sample_size(10);
    group.bench_function("binary_search", |b| {
        b.iter(|| pass(&g, &kernels, &SearchedMirror))
    });
    group.bench_function("rev_index", |b| b.iter(|| pass(&g, &kernels, &CncWorkload)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_reverse_index
}
criterion_main!(benches);
