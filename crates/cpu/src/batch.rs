//! Point-query batches: the serve layer's executor.
//!
//! An all-edge pass visits every `u < v` pair grouped by source, so
//! per-source kernel state (BMP's bitmap) is built once per source. Point
//! queries answered one at a time lose that amortization. A
//! [`BatchCounter`] restores it for an arbitrary *list* of pairs: the list
//! is cut into cost-balanced tasks on source-group boundaries (the cut
//! routine shard blocks use) and run through the same [`execute`]
//! as a bulk pass, with a [`KernelPool`] that outlives the batch — each of
//! a batch's workers takes one kernel from it, so at steady state it holds
//! one bitmap per worker, however many batches have been served.
//!
//! Pairs are counted as given: `count(u, v) = |N(u) ∩ N(v)|` with `u` as
//! the kernel's source vertex. The list only has to be *grouped* by
//! source; canonicalizing to `u < v` and sorting by `u` (the serve layer
//! does both) gives the bulk pass's cost profile.

use cnc_graph::CsrGraph;
use cnc_intersect::NullMeter;
use cnc_obs::ObsContext;
use cnc_workload::PairCountWorkload;

use crate::driver::{execute, CpuKernel, KernelPool, WorkList};
use crate::pool::PoolStats;
use crate::schedule::pair_task_ranges;

/// A resident batch executor: one kernel choice plus one long-lived
/// [`KernelPool`], shared by every batch it counts.
pub struct BatchCounter {
    kernel: CpuKernel,
    pool: KernelPool,
}

impl std::fmt::Debug for BatchCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchCounter")
            .field("kernel", &self.kernel)
            .finish()
    }
}

impl BatchCounter {
    /// An executor for `kernel` over graphs of `num_vertices` vertices.
    ///
    /// # Panics
    /// On an invalid RF ratio — validate the kernel at plan time.
    pub fn new(kernel: CpuKernel, num_vertices: usize) -> Self {
        Self {
            kernel,
            pool: KernelPool::new(kernel, num_vertices),
        }
    }

    /// Pool usage so far, for kernels with per-source state (`None` for
    /// the stateless merge family). `created` staying at the worker count
    /// across many batches is the reuse evidence.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.stats()
    }

    /// Count one source-grouped batch of pairs, decomposed into at most
    /// `tasks` cost-balanced source-aligned tasks claimed by the default
    /// worker count ([`default_workers`](crate::default_workers)). Returns
    /// one count per pair, in order; the reduced tally is recorded into the
    /// ambient observability context, if any (no spans are opened).
    pub fn count_pairs(&self, g: &CsrGraph, pairs: &[(u32, u32)], tasks: usize) -> Vec<u32> {
        let ranges = pair_task_ranges(g, pairs, &self.kernel.cost_model(), tasks);
        let work = WorkList::Pairs(pairs, &ranges);
        let workload = PairCountWorkload::new(pairs.len());
        let (counts, tally) = execute(g, work, &self.pool, &workload, &mut NullMeter, None);
        if let Some(ctx) = ObsContext::current() {
            tally.record_to(&*ctx);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_workers, BmpMode};
    use cnc_graph::generators;
    use cnc_intersect::MpsConfig;
    use cnc_obs::Counter;
    use rand::{Rng, SeedableRng, StdRng};
    use std::sync::Arc;

    fn test_graph() -> CsrGraph {
        CsrGraph::from_edge_list(&generators::hub_web(300, 6.0, 3, 0.5, 11))
    }

    /// Every canonical edge of `g` as a source-grouped pair list.
    fn all_pairs(g: &CsrGraph) -> Vec<(u32, u32)> {
        g.iter_edges()
            .filter(|&(_, u, v)| u < v)
            .map(|(_, u, v)| (u, v))
            .collect()
    }

    fn kernels(n: usize) -> [CpuKernel; 4] {
        [
            CpuKernel::Merge,
            CpuKernel::Mps(MpsConfig::default()),
            CpuKernel::Bmp(BmpMode::Plain),
            CpuKernel::Bmp(BmpMode::rf_scaled(n)),
        ]
    }

    #[test]
    fn count_pairs_matches_reference_for_every_kernel() {
        let g = test_graph();
        let pairs = all_pairs(&g);
        let want: Vec<u32> = pairs
            .iter()
            .map(|&(u, v)| cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v)))
            .collect();
        for kernel in kernels(g.num_vertices()) {
            let counter = BatchCounter::new(kernel, g.num_vertices());
            for tasks in [1usize, 4, 64] {
                assert_eq!(
                    counter.count_pairs(&g, &pairs, tasks),
                    want,
                    "{kernel:?} tasks={tasks}"
                );
            }
        }
    }

    #[test]
    fn unsorted_subset_batches_are_exact() {
        // The contract is grouping, not global order: a shuffled batch
        // regrouped by source still counts exactly.
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(7);
        let all = all_pairs(&g);
        let mut pairs: Vec<(u32, u32)> =
            (0..200).map(|_| all[rng.gen_range(0..all.len())]).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let want: Vec<u32> = pairs
            .iter()
            .map(|&(u, v)| cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v)))
            .collect();
        for kernel in kernels(g.num_vertices()) {
            let counter = BatchCounter::new(kernel, g.num_vertices());
            assert_eq!(counter.count_pairs(&g, &pairs, 8), want, "{kernel:?}");
        }
    }

    #[test]
    fn batched_execution_rebuilds_once_per_source_group() {
        let g = test_graph();
        let pairs = all_pairs(&g);
        let sources: std::collections::HashSet<u32> = pairs.iter().map(|&(u, _)| u).collect();
        let counter = BatchCounter::new(CpuKernel::Bmp(BmpMode::Plain), g.num_vertices());
        let ctx = Arc::new(ObsContext::new());
        {
            let _installed = ctx.install();
            counter.count_pairs(&g, &pairs, 1);
        }
        let snap = ctx.counters();
        assert_eq!(snap.get(Counter::DriverTasks), 1);
        assert_eq!(
            snap.get(Counter::KernelSourceRebuilds),
            sources.len() as u64
        );
        assert_eq!(snap.get(Counter::WorkloadEdgesVisited), pairs.len() as u64);
        // Pair lists open no spans (the serve daemon's tree stays bounded).
        assert!(ctx.recorder().tree().is_empty());
    }

    #[test]
    fn each_worker_acquires_one_kernel_per_batch() {
        // Near-uniform degrees, so the batch cuts into all 64 tasks.
        let g = CsrGraph::from_edge_list(&generators::gnm(2_000, 8_000, 5));
        let pairs = all_pairs(&g);
        let model = CpuKernel::Bmp(BmpMode::Plain).cost_model();
        assert_eq!(pair_task_ranges(&g, &pairs, &model, 64).len(), 64);
        let counter = BatchCounter::new(CpuKernel::Bmp(BmpMode::Plain), g.num_vertices());
        counter.count_pairs(&g, &pairs, 64);
        let stats = counter.pool_stats().expect("bmp pools report stats");
        assert_eq!(stats.created + stats.reused, default_workers().min(64));
    }

    #[test]
    fn pool_is_reused_across_batches() {
        // The serve-layer satellite: bitmaps are allocated once per worker,
        // not once per batch. 50 consecutive batches on one counter must
        // not grow `created` beyond the worker count.
        let g = test_graph();
        let pairs = all_pairs(&g);
        let counter = BatchCounter::new(CpuKernel::Bmp(BmpMode::Plain), g.num_vertices());
        for _ in 0..50 {
            counter.count_pairs(&g, &pairs[..100.min(pairs.len())], 4);
        }
        let stats = counter.pool_stats().expect("bmp pools report stats");
        let workers = default_workers();
        assert!(
            stats.created <= workers,
            "{} bitmaps created across 50 batches ({workers} workers)",
            stats.created
        );
        assert!(stats.reused > stats.created, "batches must recycle kernels");
        assert!(BatchCounter::new(CpuKernel::Merge, 8)
            .pool_stats()
            .is_none());
    }
}
