//! Observability-level checks of the task decomposition: the counters a
//! metered run emits must describe it — how many tasks it cut, their
//! estimated cost spread, and how often a per-source kernel re-indexed a
//! source because a task started inside it.

use std::sync::Arc;

use cnc_cpu::{BmpMode, CpuKernel, ParConfig};
use cnc_graph::generators;
use cnc_graph::CsrGraph;
use cnc_obs::{Counter, ObsContext};
use cnc_workload::WorkloadKind;

/// Run `kernel` under an installed context and return its counter snapshot.
fn observed_run(g: &CsrGraph, kernel: CpuKernel, cfg: &ParConfig) -> cnc_obs::CounterSnapshot {
    let ctx = Arc::new(ObsContext::new());
    let guard = ctx.install();
    let _ = kernel.run_par_kind(g, cfg, WorkloadKind::Cnc);
    drop(guard);
    ctx.counters()
}

#[test]
fn one_task_indexes_each_source_once_and_mid_source_tasks_more() {
    // A hub-web analogue: a few huge sources. 64-edge tasks cut straight
    // through the hubs, re-indexing the same source once per task; one
    // task over the whole range never splits a source.
    let g = CsrGraph::from_edge_list(&generators::hub_web(400, 6.0, 3, 0.6, 11));
    let kernel = CpuKernel::Bmp(BmpMode::Plain);

    let chunked = observed_run(&g, kernel, &ParConfig::with_task_size(64));
    let whole = observed_run(&g, kernel, &ParConfig::with_task_size(usize::MAX));

    // One rebuild per source that has at least one counted (u < v) pair —
    // the minimum possible.
    let sources_with_pairs = (0..g.num_vertices())
        .filter(|&u| g.neighbors(u as u32).iter().any(|&v| v > u as u32))
        .count() as u64;
    assert!(sources_with_pairs > 0);
    assert_eq!(whole.get(Counter::KernelSourceRebuilds), sources_with_pairs);
    let c = chunked.get(Counter::KernelSourceRebuilds);
    assert!(
        c > sources_with_pairs,
        "64-edge tasks must re-index strictly more: {c} vs {sources_with_pairs}"
    );
}

#[test]
fn schedule_counters_describe_the_decomposition() {
    let g = CsrGraph::from_edge_list(&generators::hub_web(300, 5.0, 2, 0.5, 3));
    let kernel = CpuKernel::Merge;

    for cfg in [
        ParConfig::with_task_size(97),
        ParConfig::with_task_size(usize::MAX),
    ] {
        let snap = observed_run(&g, kernel, &cfg);
        let tasks = snap.get(Counter::ScheduleTasks);
        assert!(tasks > 0, "{cfg:?}");
        assert_eq!(tasks, snap.get(Counter::DriverTasks), "{cfg:?}");
        let max = snap.get(Counter::ScheduleEstCostMax);
        let min = snap.get(Counter::ScheduleEstCostMin);
        assert!(max >= min && max > 0, "{cfg:?}: max={max}, min={min}");
    }
}
