//! Wall-clock benchmarks of the graph substrate: CSR construction, the
//! degree-descending relabeling (the paper notes it costs < 3 s on the
//! billion-edge graphs), generators, I/O, and the cold-vs-warm preparation
//! gap the zero-copy cache buys.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::prepare::{self, map_prepared, write_prepared, PreparedGraph, ReorderPolicy};
use cnc_graph::{generators, io, reorder, CsrGraph};

fn bench_build(c: &mut Criterion) {
    let el = generators::chung_lu(20_000, 16.0, 2.3, 5);
    let edges = el.len() as u64;
    let mut group = c.benchmark_group("graph_build");
    group.throughput(Throughput::Elements(edges));
    group.sample_size(20);
    group.bench_function("edge_list_to_csr", |b| {
        b.iter(|| CsrGraph::from_edge_list(&el))
    });
    let g = CsrGraph::from_edge_list(&el);
    group.bench_function("degree_descending_relabel", |b| {
        b.iter(|| reorder::degree_descending(&g))
    });
    group.bench_function("validate", |b| b.iter(|| g.validate().unwrap()));
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators_10k_vertices");
    group.sample_size(10);
    group.bench_function("gnm", |b| b.iter(|| generators::gnm(10_000, 80_000, 1)));
    group.bench_function("chung_lu", |b| {
        b.iter(|| generators::chung_lu(10_000, 16.0, 2.3, 2))
    });
    group.bench_function("rmat", |b| {
        b.iter(|| generators::rmat(13, 10, 0.57, 0.19, 0.19, 3))
    });
    group.bench_function("hub_web", |b| {
        b.iter(|| generators::hub_web(10_000, 12.0, 3, 0.4, 4))
    });
    group.finish();
}

fn bench_io(c: &mut Criterion) {
    let g = Dataset::LjS.build(Scale::Tiny);
    let mut buf = Vec::new();
    io::write_csr(&g, &mut buf).unwrap();
    let mut group = c.benchmark_group("io");
    group.throughput(Throughput::Bytes(buf.len() as u64));
    group.sample_size(20);
    group.bench_function("write_csr", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            io::write_csr(&g, &mut out).unwrap();
            out
        })
    });
    group.bench_function("read_csr", |b| {
        b.iter(|| io::read_csr(buf.as_slice()).unwrap())
    });
    group.finish();
}

/// Cold preparation (edge list → one cursor scatter → per-row relabel →
/// reverse-index walks) against a warm zero-copy load of the same
/// preparation from its `CNCPREP5` cache file. The warm path must win by a wide margin — that gap is the whole
/// point of the mmap-backed cache.
fn bench_prepare_cold_vs_warm(c: &mut Criterion) {
    let el = Dataset::OrS.edge_list(Scale::Small);
    let dir = std::env::temp_dir().join(format!("cnc-bench-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("or-s-small-degdesc.prep");
    let pg = PreparedGraph::from_edge_list(&el, ReorderPolicy::DegreeDescending);
    write_prepared(&pg, std::fs::File::create(&path).unwrap()).unwrap();

    let mut group = c.benchmark_group("prepare_cold_vs_warm");
    group.throughput(Throughput::Bytes(std::fs::metadata(&path).unwrap().len()));
    group.sample_size(10);
    group.bench_function("cold_build", |b| {
        b.iter(|| PreparedGraph::from_edge_list(&el, ReorderPolicy::DegreeDescending))
    });
    let before = prepare::metrics();
    group.bench_function("warm_mmap", |b| {
        b.iter(|| map_prepared(&path).expect("cache file must map"))
    });
    let warm_work = prepare::metrics().since(&before);
    assert!(
        warm_work.mmap_hits > 0 && warm_work.graph_builds == 0,
        "warm path must be zero-copy: {warm_work}"
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_build, bench_generators, bench_io, bench_prepare_cold_vs_warm
}
criterion_main!(benches);
