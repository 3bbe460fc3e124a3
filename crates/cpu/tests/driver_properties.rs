//! Property-based tests for the execution core: the task
//! decomposition and the meter choice must never change the answer.
//!
//! For any random graph, any task size (including degenerate ones: a task
//! per edge, or one task far larger than `|E|`), and every kernel, the
//! parallel driver with a [`NullMeter`] and the metered parallel driver
//! with a [`CountingMeter`] must both produce counts byte-identical to the
//! sequential whole-range run.

use cnc_cpu::{BmpMode, CpuKernel, ParConfig, Schedule, SchedulePolicy};
use cnc_graph::{generators, CsrGraph};
use cnc_intersect::{MpsConfig, NullMeter, WorkCounts};
use cnc_workload::{WorkloadKind, WorkloadOutput};
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

/// Strategy: any schedule policy — uniform chunks spanning the degenerate
/// and the ordinary (one edge per task up to one task far larger than any
/// test graph's `|E|`), and balanced decompositions from one task to far
/// more tasks than any test graph has sources.
fn policy() -> impl Strategy<Value = SchedulePolicy> {
    let mut policies: Vec<SchedulePolicy> = vec![1usize, 2, 7, 61, 256, 1023, 4096, usize::MAX]
        .into_iter()
        .map(SchedulePolicy::uniform)
        .collect();
    policies.extend(
        vec![1usize, 2, 3, 8, 17, 64, 100_000]
            .into_iter()
            .map(SchedulePolicy::balanced),
    );
    prop::sample::select(policies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decomposition_and_metering_never_change_counts(
        n in 2usize..120,
        edge_factor in 1usize..6,
        seed in 0u64..1_000,
        p in policy(),
    ) {
        let g = CsrGraph::from_edge_list(&generators::gnm(n, n * edge_factor, seed));
        let cfg = ParConfig { schedule: p, threads: None };
        for kernel in kernels(g.num_vertices()) {
            let seq = seq_counts(kernel, &g);
            let par = par_counts(kernel, &g, &cfg);
            let (metered, work) = metered_counts(kernel, &g, &cfg);
            prop_assert_eq!(&par, &seq, "NullMeter par diverged: {:?} {:?}", kernel, p);
            prop_assert_eq!(&metered, &seq, "CountingMeter par diverged: {:?} {:?}", kernel, p);
            // Any split of the range does the same intersections.
            prop_assert!(work.total_ops() > 0 || g.num_directed_edges() == 0);
        }
    }

    #[test]
    fn skewed_graphs_agree_across_schedules(
        hubs in 1usize..4,
        seed in 0u64..100,
        p in policy(),
    ) {
        // Hub-heavy graphs exercise the pivot-skip path and uneven
        // source-run lengths across task boundaries.
        let g = CsrGraph::from_edge_list(&generators::hub_web(80, 4.0, hubs, 0.5, seed));
        let cfg = ParConfig { schedule: p, threads: None };
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
        p in policy(),
    ) {
        // Schedule invariants, independent of any kernel run: tasks are
        // disjoint, in order, cover 0..m exactly, and the balanced policy
        // never exceeds the requested count and cuts only on source
        // boundaries.
        let g = CsrGraph::from_edge_list(&generators::gnm(n, n * edge_factor, seed));
        let m = g.num_directed_edges();
        for kernel in kernels(g.num_vertices()) {
            let s = Schedule::compute(&g, p, &kernel.cost_model(), &cnc_workload::CncWorkload, true);
            let mut next = 0usize;
            for r in s.tasks() {
                prop_assert_eq!(r.start, next);
                prop_assert!(r.end > r.start);
                next = r.end;
            }
            prop_assert_eq!(next, m);
            if let SchedulePolicy::Balanced { tasks } = p {
                prop_assert!(s.tasks().len() <= tasks);
                for r in s.tasks() {
                    prop_assert!(g.offsets().binary_search(&r.start).is_ok(),
                        "balanced cut at {} not on a source boundary", r.start);
                }
            }
        }
    }
}
