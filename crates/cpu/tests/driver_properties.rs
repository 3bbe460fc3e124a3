//! Property-based tests for the execution core: the task
//! decomposition and the meter choice must never change the answer.
//!
//! For any random graph, any task size (including degenerate ones: a task
//! per edge, or one task far larger than `|E|`), and every kernel, the
//! parallel driver with a [`NullMeter`] and the metered parallel driver
//! with a [`CountingMeter`] must both produce counts byte-identical to the
//! sequential whole-range run. The shard coordinator's source-aligned cut
//! ([`cut_source_blocks`]) must tile the range on source boundaries and
//! account for its whole price.

use cnc_cpu::{cut_source_blocks, BmpMode, CpuKernel, ParConfig, Schedule};
use cnc_graph::{generators, CsrGraph, EdgeList};
use cnc_intersect::{CostModel, MpsConfig, NullMeter, WorkCounts};
use cnc_workload::{CncWorkload, TriangleWorkload, Workload, WorkloadKind, WorkloadOutput};
use proptest::prelude::*;

fn counts(out: WorkloadOutput) -> Vec<u32> {
    out.into_edge_counts().expect("cnc output")
}

fn seq_counts(kernel: CpuKernel, g: &CsrGraph) -> Vec<u32> {
    counts(kernel.run_seq_kind(g, WorkloadKind::Cnc, &mut NullMeter))
}

fn par_counts(kernel: CpuKernel, g: &CsrGraph, cfg: &ParConfig) -> Vec<u32> {
    counts(kernel.run_par_kind(g, cfg, WorkloadKind::Cnc))
}

fn metered_counts(kernel: CpuKernel, g: &CsrGraph, cfg: &ParConfig) -> (Vec<u32>, WorkCounts) {
    let (out, work) = kernel.run_par_metered_kind(g, cfg, WorkloadKind::Cnc);
    (counts(out), work)
}

fn kernels(num_vertices: usize) -> Vec<CpuKernel> {
    vec![
        CpuKernel::Merge,
        CpuKernel::Mps(MpsConfig::default()),
        CpuKernel::Bmp(BmpMode::Plain),
        CpuKernel::Bmp(BmpMode::rf_scaled(num_vertices)),
    ]
}

/// Strategy: chunk sizes spanning the degenerate and the ordinary, from
/// one edge per task up to one task far larger than any test graph's `|E|`.
fn config() -> impl Strategy<Value = ParConfig> {
    prop::sample::select(
        [1usize, 2, 7, 61, 256, 1023, 4096, usize::MAX]
            .map(ParConfig::with_task_size)
            .to_vec(),
    )
}

/// Strategy: shard block counts from one block to far more blocks than any
/// test graph has sources.
fn block_count() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 3, 5, 8, 17, 64, 257, 1000, 100_000])
}

/// The shard cut's invariants for one graph, pricing and block count: the
/// blocks tile `0..m` in order, number at most `blocks`, start every
/// interior block on a source boundary, and their estimates sum to the
/// one-task schedule's price of the whole range.
fn check_source_blocks<W: Workload>(
    g: &CsrGraph,
    model: &CostModel,
    workload: &W,
    blocks: usize,
) -> Result<(), TestCaseError> {
    let m = g.num_directed_edges();
    let cut = cut_source_blocks(g, model, workload, blocks);
    if m == 0 {
        prop_assert!(cut.is_empty(), "an empty graph gives no blocks");
        return Ok(());
    }
    prop_assert!(
        cut.len() <= blocks,
        "{} blocks for {blocks} requested",
        cut.len()
    );
    let mut next = 0usize;
    for b in &cut {
        prop_assert_eq!(b.range.start, next);
        prop_assert!(b.range.end > b.range.start, "empty block at {}", next);
        prop_assert!(
            g.offsets().binary_search(&b.range.start).is_ok(),
            "block starts at edge {}, not on a source boundary",
            b.range.start
        );
        next = b.range.end;
    }
    prop_assert_eq!(next, m);
    let whole = Schedule::compute(
        g,
        ParConfig::with_task_size(usize::MAX).schedule,
        model,
        workload,
        true,
    );
    let priced: u64 = cut.iter().map(|b| b.est_cost).sum();
    prop_assert_eq!(
        priced,
        whole.est_cost_max(),
        "block estimates must sum to the whole price"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decomposition_and_metering_never_change_counts(
        n in 2usize..120,
        edge_factor in 1usize..6,
        seed in 0u64..1_000,
        cfg in config(),
    ) {
        let g = CsrGraph::from_edge_list(&generators::gnm(n, n * edge_factor, seed));
        for kernel in kernels(g.num_vertices()) {
            let seq = seq_counts(kernel, &g);
            let par = par_counts(kernel, &g, &cfg);
            let (metered, work) = metered_counts(kernel, &g, &cfg);
            prop_assert_eq!(&par, &seq, "NullMeter par diverged: {:?} {:?}", kernel, cfg);
            prop_assert_eq!(&metered, &seq, "CountingMeter par diverged: {:?} {:?}", kernel, cfg);
            // Any split of the range does the same intersections.
            prop_assert!(work.total_ops() > 0 || g.num_directed_edges() == 0);
        }
    }

    #[test]
    fn skewed_graphs_agree_across_schedules(
        hubs in 1usize..4,
        seed in 0u64..100,
        cfg in config(),
    ) {
        // Hub-heavy graphs exercise the pivot-skip path and uneven
        // source-run lengths across task boundaries.
        let g = CsrGraph::from_edge_list(&generators::hub_web(80, 4.0, hubs, 0.5, seed));
        for kernel in kernels(g.num_vertices()) {
            let seq = seq_counts(kernel, &g);
            let (metered, _) = metered_counts(kernel, &g, &cfg);
            prop_assert_eq!(&par_counts(kernel, &g, &cfg), &seq);
            prop_assert_eq!(&metered, &seq);
        }
    }

    #[test]
    fn schedules_tile_the_edge_range(
        n in 2usize..150,
        edge_factor in 1usize..6,
        seed in 0u64..1_000,
        cfg in config(),
    ) {
        // Schedule invariants, independent of any kernel run: tasks are
        // disjoint, in order and cover 0..m exactly.
        let g = CsrGraph::from_edge_list(&generators::gnm(n, n * edge_factor, seed));
        let m = g.num_directed_edges();
        for kernel in kernels(g.num_vertices()) {
            let s = Schedule::compute(&g, cfg.schedule, &kernel.cost_model(), &CncWorkload, true);
            let mut next = 0usize;
            for r in s.tasks() {
                prop_assert_eq!(r.start, next);
                prop_assert!(r.end > r.start);
                next = r.end;
            }
            prop_assert_eq!(next, m);
        }
    }

    #[test]
    fn source_blocks_tile_the_edge_range_on_source_boundaries(
        n in 2usize..150,
        edge_factor in 0usize..6,
        hubs in 1usize..4,
        seed in 0u64..1_000,
        blocks in block_count(),
    ) {
        // Random and hub-skewed graphs (edge_factor 0 gives an edgeless
        // one), every kernel's cost model, CNC and triangle pricing.
        let graphs = [
            CsrGraph::from_edge_list(&generators::gnm(n, n * edge_factor, seed)),
            CsrGraph::from_edge_list(&generators::hub_web(n.max(hubs + 1), 4.0, hubs, 0.5, seed)),
            CsrGraph::from_edge_list(&EdgeList::new(0)),
        ];
        for g in &graphs {
            for kernel in kernels(g.num_vertices()) {
                let model = kernel.cost_model();
                check_source_blocks(g, &model, &CncWorkload, blocks)?;
                check_source_blocks(g, &model, &TriangleWorkload, blocks)?;
            }
        }
    }
}
