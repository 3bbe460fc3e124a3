//! Differential test of every way into the execution core.
//!
//! One table of graphs, run through every kernel and every entry — the
//! sequential one-task pass (unmetered and metered), the parallel pass and
//! the metered parallel pass over each schedule and thread count — against
//! a brute-force oracle. The work-accounting assertions that only hold on
//! particular graphs follow the table.

use cnc_cpu::{BmpMode, CpuKernel, ParConfig, SchedulePolicy};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::{generators, reorder, CsrGraph, EdgeList};
use cnc_intersect::{CountingMeter, MpsConfig, NullMeter, SimdLevel, WorkCounts};
use cnc_workload::{WorkloadKind, WorkloadOutput};

const CNC: WorkloadKind = WorkloadKind::Cnc;

fn counts(out: WorkloadOutput) -> Vec<u32> {
    out.into_edge_counts().expect("cnc output")
}

fn oracle(g: &CsrGraph) -> Vec<u32> {
    let mut cnt = vec![0u32; g.num_directed_edges()];
    for (eid, u, v) in g.iter_edges() {
        cnt[eid] = cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v));
    }
    cnt
}

fn seq_work(kernel: CpuKernel, g: &CsrGraph) -> (Vec<u32>, WorkCounts) {
    let mut meter = CountingMeter::new();
    let out = counts(kernel.run_seq_kind(g, CNC, &mut meter));
    (out, meter.counts)
}

fn par_work(kernel: CpuKernel, g: &CsrGraph, cfg: &ParConfig) -> (Vec<u32>, WorkCounts) {
    let (out, work) = kernel.run_par_metered_kind(g, cfg, CNC);
    (counts(out), work)
}

/// Every kernel configuration: M, MPS at the scalar, AVX2 and host tiers,
/// BMP, and RF at the default, scaled and ratio-64 settings.
fn kernels(num_vertices: usize) -> Vec<CpuKernel> {
    vec![
        CpuKernel::Merge,
        CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)),
        CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx2)),
        CpuKernel::Mps(MpsConfig::default()),
        CpuKernel::Bmp(BmpMode::Plain),
        CpuKernel::Bmp(BmpMode::rf_default()),
        CpuKernel::Bmp(BmpMode::rf_scaled(num_vertices)),
        CpuKernel::Bmp(BmpMode::RangeFiltered { ratio: 64 }),
    ]
}

/// Uniform task sizes from one edge per task (0 clamps to 1) to one task
/// far larger than `|E|`, balanced task counts, and explicit thread counts.
fn schedules() -> Vec<ParConfig> {
    let sizes = [
        0usize,
        1,
        3,
        17,
        53,
        61,
        64,
        97,
        100,
        4096,
        10_000,
        usize::MAX,
    ];
    let mut cfgs: Vec<ParConfig> = sizes.into_iter().map(ParConfig::with_task_size).collect();
    cfgs.extend([1usize, 2, 7, 8, 9].map(ParConfig::balanced));
    cfgs.extend([1usize, 2, 4].map(|threads| ParConfig {
        schedule: SchedulePolicy::uniform(37),
        threads: Some(threads),
    }));
    cfgs
}

fn graph(el: EdgeList) -> CsrGraph {
    CsrGraph::from_edge_list(&el)
}

/// Check every kernel on every entry against the oracle.
fn check(name: &str, g: &CsrGraph, cfgs: &[ParConfig]) {
    let want = oracle(g);
    for kernel in kernels(g.num_vertices()) {
        let ctx = format!("{name} {kernel:?}");
        assert_eq!(
            counts(kernel.run_seq_kind(g, CNC, &mut NullMeter)),
            want,
            "{ctx} seq"
        );
        let (seq, seq_work) = seq_work(kernel, g);
        assert_eq!(seq, want, "{ctx} seq metered");
        for cfg in cfgs {
            assert_eq!(
                counts(kernel.run_par_kind(g, cfg, CNC)),
                want,
                "{ctx} par {cfg:?}"
            );
            let (par, work) = par_work(kernel, g, cfg);
            assert_eq!(par, want, "{ctx} par metered {cfg:?}");
            if g.num_directed_edges() == 0 {
                continue;
            }
            assert!(work.total_ops() > 0, "{ctx} {cfg:?} reported no work");
            match kernel {
                // No per-source state: any split of the edge range does
                // exactly the sequential work, tally for tally.
                CpuKernel::Merge | CpuKernel::Mps(_) => {
                    assert_eq!(work, seq_work, "{ctx} {cfg:?} work")
                }
                CpuKernel::Bmp(_) => assert!(work.rand_accesses > 0, "{ctx} {cfg:?}"),
            }
        }
    }
}

#[test]
fn every_entry_matches_the_oracle() {
    let hub = graph(generators::hub_web(300, 6.0, 2, 0.5, 1));
    let mut table: Vec<(String, CsrGraph, Vec<ParConfig>)> = vec![
        (
            "triangle+tail".into(),
            graph(EdgeList::from_pairs([(0, 1), (0, 2), (1, 2), (2, 3)])),
            schedules(),
        ),
        ("empty".into(), graph(EdgeList::new(0)), schedules()),
        ("edgeless".into(), graph(EdgeList::new(5)), schedules()),
        ("K8".into(), graph(generators::complete(8)), schedules()),
        ("path".into(), graph(generators::path(20)), schedules()),
        ("star".into(), graph(generators::star(20)), schedules()),
    ];
    for seed in 0..4u64 {
        let g = graph(generators::gnm(120, 600, seed));
        table.push((format!("gnm seed {seed}"), g, schedules()));
    }
    for (n, m, seed) in [(100, 500, 3), (80, 300, 5), (20, 40, 6)] {
        table.push((
            format!("gnm({n}, {m}, {seed})"),
            graph(generators::gnm(n, m, seed)),
            schedules(),
        ));
    }
    for (n, deg, gamma, seed) in [(200, 10.0, 2.1, 5), (200, 9.0, 2.2, 6), (300, 10.0, 2.2, 4)] {
        let g = graph(generators::chung_lu(n, deg, gamma, seed));
        table.push((format!("chung_lu seed {seed}"), g, schedules()));
    }
    for (n, deg, hubs, cover, seed) in [
        (150, 6.0, 2, 0.5, 6),
        (250, 5.0, 2, 0.5, 2),
        (400, 6.0, 2, 0.4, 7),
    ] {
        let g = graph(generators::hub_web(n, deg, hubs, cover, seed));
        table.push((format!("hub_web seed {seed}"), g, schedules()));
    }
    let reordered = [
        reorder::degree_descending(&graph(generators::chung_lu(150, 8.0, 2.2, 9))).graph,
        reorder::degree_descending(&hub).graph,
    ];
    for (i, g) in reordered.into_iter().enumerate() {
        table.push((format!("degree-reordered {i}"), g, schedules()));
    }
    // Far more balanced tasks than sources: every source its own task.
    let mut hub_cfgs = schedules();
    hub_cfgs.push(ParConfig::balanced(1_000_000));
    table.push(("hub_web seed 1".into(), hub, hub_cfgs));
    for d in Dataset::ALL {
        let cfgs = vec![ParConfig::with_task_size(257), ParConfig::balanced(8)];
        table.push((d.name().into(), d.build(Scale::Tiny), cfgs));
    }
    for (name, g, cfgs) in &table {
        check(name, g, cfgs);
    }
}

#[test]
fn known_counts_on_small_graphs() {
    // Triangle 0-1-2 plus tail 2-3: each triangle edge has one common
    // neighbor, the tail has none.
    let g = graph(EdgeList::from_pairs([(0, 1), (0, 2), (1, 2), (2, 3)]));
    let got = counts(CpuKernel::Merge.run_seq_kind(&g, CNC, &mut NullMeter));
    assert_eq!(got[g.edge_offset(0, 1).unwrap()], 1);
    assert_eq!(got[g.edge_offset(2, 3).unwrap()], 0);
    // In K_8 every edge has exactly n-2 = 6 common neighbors.
    let k8 = graph(generators::complete(8));
    let got = counts(CpuKernel::Bmp(BmpMode::Plain).run_seq_kind(&k8, CNC, &mut NullMeter));
    assert!(got.iter().all(|&c| c == 6));
    for el in [generators::path(20), generators::star(20)] {
        let g = graph(el);
        let got =
            counts(CpuKernel::Mps(MpsConfig::default()).run_seq_kind(&g, CNC, &mut NullMeter));
        assert!(got.iter().all(|&c| c == 0));
    }
    assert_eq!(
        ParConfig::with_task_size(0).schedule,
        SchedulePolicy::Uniform { task_size: 1 }
    );
}

#[test]
fn bmp_task_boundaries_cost_bounded_reindexing() {
    let g = graph(generators::gnm(200, 2000, 3));
    let kernel = CpuKernel::Bmp(BmpMode::Plain);
    let (_, seq) = seq_work(kernel, &g);
    let (_, big_tasks) = par_work(kernel, &g, &ParConfig::with_task_size(100_000));
    let (_, tiny_tasks) = par_work(kernel, &g, &ParConfig::with_task_size(8));
    // Tiny tasks re-index the same u many times: strictly more writes.
    assert!(tiny_tasks.write_bytes > big_tasks.write_bytes);
    // A single whole-range task does exactly the sequential work.
    let (_, one_task) = par_work(kernel, &g, &ParConfig::with_task_size(usize::MAX));
    assert_eq!(one_task, seq);
    // Balanced cuts land on source boundaries, so no source is ever
    // re-indexed: the bitmap writes equal the sequential run's exactly.
    let (_, balanced) = par_work(kernel, &g, &ParConfig::balanced(8));
    assert_eq!(balanced.write_bytes, seq.write_bytes);
}

#[test]
fn reverse_index_removes_random_probe_metering() {
    // On a graph carrying the prepared reverse-edge index the mirror store
    // is a streamed O(1) load — the merge kernel does no other random
    // accesses, so the whole tally must show zero.
    let mut g = graph(generators::hub_web(200, 5.0, 2, 0.5, 4));
    let (_, searched) = seq_work(CpuKernel::Merge, &g);
    g.build_reverse_index();
    let (counts, indexed) = seq_work(CpuKernel::Merge, &g);
    assert_eq!(counts, oracle(&g));
    assert!(
        searched.rand_accesses > 0,
        "binary-search fallback must meter random probes"
    );
    assert_eq!(
        indexed.rand_accesses, 0,
        "reverse index must eliminate every random probe"
    );
    assert!(indexed.seq_bytes > searched.seq_bytes);
}

#[test]
fn skew_handling_reduces_metered_work() {
    // A hub-heavy graph: MPS (with pivot-skip) must do far less work than
    // the baseline merge — the essence of Figure 3 — and BMP must beat the
    // baseline once the graph is degree-descending reordered.
    let g = graph(generators::hub_web(2000, 4.0, 2, 0.6, 3));
    let (_, base) = seq_work(CpuKernel::Merge, &g);
    let (_, mps) = seq_work(CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)), &g);
    assert!(
        mps.total_ops() < base.total_ops() / 2,
        "MPS {} vs M {}",
        mps.total_ops(),
        base.total_ops()
    );
    let r = reorder::degree_descending(&g).graph;
    let (_, bmp) = seq_work(CpuKernel::Bmp(BmpMode::Plain), &r);
    let (_, base) = seq_work(CpuKernel::Merge, &r);
    assert!(
        bmp.total_ops() < base.total_ops(),
        "BMP must beat baseline on skewed graphs"
    );
}

#[test]
fn rf_reduces_big_bitmap_traffic_on_uniform_graph() {
    // FR-like regime: near-uniform sparse graph — RF's win case (Figure 6's
    // FR panel). The paper reports 1.9–2.1× on FR; construction and
    // reverse-offset accesses are incompressible, so require at least 1.5×.
    let r = reorder::degree_descending(&graph(generators::gnm(4000, 12_000, 8))).graph;
    let (_, plain) = seq_work(CpuKernel::Bmp(BmpMode::Plain), &r);
    let (_, rf) = seq_work(CpuKernel::Bmp(BmpMode::rf_scaled(r.num_vertices())), &r);
    assert!(
        rf.rand_accesses * 3 < plain.rand_accesses * 2,
        "RF {} vs plain {}",
        rf.rand_accesses,
        plain.rand_accesses
    );
}

#[test]
fn validate_rejects_bad_rf_ratios() {
    assert!(CpuKernel::Bmp(BmpMode::RangeFiltered { ratio: 0 })
        .validate()
        .is_err());
    assert!(CpuKernel::Bmp(BmpMode::RangeFiltered { ratio: 48 })
        .validate()
        .is_err());
    assert!(CpuKernel::Bmp(BmpMode::rf_default()).validate().is_ok());
    assert!(CpuKernel::Merge.validate().is_ok());
    assert!(BmpMode::range_filtered(100).is_err());
    assert_eq!(
        BmpMode::range_filtered(64),
        Ok(BmpMode::RangeFiltered { ratio: 64 })
    );
}

#[test]
#[should_panic(expected = "power of two")]
fn run_with_bad_ratio_panics_with_clear_message() {
    // Invalid ratios are a plan-construction bug (Plan::validate rejects
    // them); the kernel constructor still refuses to build a broken filter
    // if one slips through.
    let g = graph(generators::gnm(20, 40, 1));
    let kernel = CpuKernel::Bmp(BmpMode::RangeFiltered { ratio: 3 });
    let _ = kernel.run_par_kind(&g, &ParConfig::default(), CNC);
}
