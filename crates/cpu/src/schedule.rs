//! Task decomposition of the edge range.
//!
//! A parallel pass splits the directed edge range `0..m` into fixed-size
//! chunks of `task_size` edges, and the run's workers claim them from one
//! cursor, as the paper's `schedule(dynamic, |T|)` hands out chunks.
//! Claiming balances the load, so the chunks ignore both the cost model and
//! source boundaries: a per-source kernel (BMP, BMP-RF) re-indexes a source
//! once per task that starts inside it.
//!
//! Two callers cut cost-balanced, source-aligned pieces instead: the shard
//! coordinator hands one block to each worker process
//! ([`cut_source_blocks`]), and processes cannot claim each other's work;
//! a serve batch cuts its source-grouped pair list, where an edge-chunk
//! size has no meaning ([`pair_task_ranges`]). Both price items with the
//! kernel's [`CostModel`], prefix-sum the costs, and binary-search
//! near-equal cut points that land on source boundaries, through one
//! routine.

use std::ops::Range;
use std::sync::OnceLock;
use std::thread;

use cnc_graph::CsrGraph;
use cnc_intersect::CostModel;
use cnc_workload::Workload;

/// How the parallel driver decomposes the edge range into tasks: contiguous
/// chunks of `task_size` edges, cut without regard to source boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePolicy {
    /// Edges per task; clamped to at least 1.
    pub task_size: usize,
}

/// The historical default chunk size.
pub const DEFAULT_TASK_SIZE: usize = 8192;

/// Parallel execution parameters for the Algorithm 3 skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParConfig {
    /// How the edge range is decomposed into tasks: the Section 4
    /// trade-off (large tasks amortize scheduling, small tasks balance
    /// load).
    pub schedule: SchedulePolicy,
    /// Worker threads; `None` uses [`default_workers`]. A run never uses
    /// more workers than it has tasks, nor fewer than one.
    pub threads: Option<usize>,
}

/// The worker count a run uses when none is given: one per CPU this
/// process may run on (`available_parallelism`, which honours the affinity
/// mask and cgroup quota), or one when that is unknown. Read once per
/// process.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

impl ParConfig {
    /// Chunks of an explicit task size (clamped to ≥ 1).
    pub fn with_task_size(task_size: usize) -> Self {
        Self {
            schedule: SchedulePolicy {
                task_size: task_size.max(1),
            },
            threads: None,
        }
    }
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy {
            task_size: DEFAULT_TASK_SIZE,
        }
    }
}

/// A concrete decomposition of `0..m` into contiguous tasks, plus the cost
/// model's estimate of the heaviest and lightest task (for observability;
/// zero when estimates were not requested).
#[derive(Debug, Clone)]
pub struct Schedule {
    pub(crate) tasks: Vec<Range<usize>>,
    est_cost_max: u64,
    est_cost_min: u64,
}

impl Schedule {
    /// Decompose `g`'s directed edge range under `policy`: task k covers
    /// `[k·t, min((k+1)·t, m))`, byte-for-byte the legacy `|T|` split.
    ///
    /// `with_estimates` prices every task through `workload` (CNC prices
    /// every pair with the raw kernel model; pruning workloads zero out
    /// uncovered pairs). Skipping the estimates keeps the unobserved path
    /// free of the O(E) costing pass.
    pub fn compute<W: Workload>(
        g: &CsrGraph,
        policy: SchedulePolicy,
        model: &CostModel,
        workload: &W,
        with_estimates: bool,
    ) -> Self {
        let m = g.num_directed_edges();
        let t = policy.task_size.max(1);
        // Saturating arithmetic keeps t = usize::MAX well-defined.
        let tasks: Vec<Range<usize>> = (0..m.div_ceil(t))
            .map(|k| {
                let start = k.saturating_mul(t);
                start..start.saturating_add(t).min(m)
            })
            .collect();
        let (est_cost_max, est_cost_min) = if with_estimates && m > 0 {
            let prefix = source_cost_prefix(g, model, workload);
            estimate_spread(g, &prefix, &tasks)
        } else {
            (0, 0)
        };
        Schedule {
            tasks,
            est_cost_max,
            est_cost_min,
        }
    }

    /// The task ranges, in edge order. Disjoint and covering `0..m`.
    pub fn tasks(&self) -> &[Range<usize>] {
        &self.tasks
    }

    /// Estimated cost of the most expensive task (0 when not computed).
    pub fn est_cost_max(&self) -> u64 {
        self.est_cost_max
    }

    /// Estimated cost of the cheapest task (0 when not computed).
    pub fn est_cost_min(&self) -> u64 {
        self.est_cost_min
    }
}

/// One contiguous, source-aligned block of the directed edge range, with
/// the cost model's estimate of its work. Cuts land on source boundaries,
/// so the estimate is exact under the model (no interpolation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeBlock {
    /// The directed-edge range this block covers.
    pub range: Range<usize>,
    /// The model's estimated kernel cost of the block.
    pub est_cost: u64,
}

/// Cut `g`'s directed edge range into at most `blocks` contiguous,
/// source-aligned blocks of near-equal estimated cost, for callers that
/// distribute ranges across processes rather than threads: the shard
/// coordinator assigns one block per worker and feeds the estimates into
/// its `shard.range_cost_*` counters. A process cannot claim another's
/// work, so these cuts are priced up front.
pub fn cut_source_blocks<W: Workload>(
    g: &CsrGraph,
    model: &CostModel,
    workload: &W,
    blocks: usize,
) -> Vec<RangeBlock> {
    let m = g.num_directed_edges();
    if m == 0 {
        return Vec::new();
    }
    let prefix = source_cost_prefix(g, model, workload);
    let offsets = g.offsets();
    let bounds = balanced_cuts(&prefix, blocks, m, |s| offsets[s]);
    bounds
        .windows(2)
        .map(|w| RangeBlock {
            range: w[0]..w[1],
            est_cost: prefix_at_edge(g, &prefix, w[1]) - prefix_at_edge(g, &prefix, w[0]),
        })
        .collect()
}

/// Cost-balanced, source-aligned decomposition of a source-grouped pair
/// list into at most `want` contiguous tasks — a serve batch's schedule.
///
/// Each pair costs one unit of loop overhead plus the model's
/// `pair_cost`, each group start adds the once-per-source `source_cost`,
/// and cuts snap forward to the next group boundary, so no task re-pays
/// `begin_source` for a source another task already indexed.
pub(crate) fn pair_task_ranges(
    g: &CsrGraph,
    pairs: &[(u32, u32)],
    model: &CostModel,
    want: usize,
) -> Vec<Range<usize>> {
    let n = pairs.len();
    if n == 0 {
        return Vec::new();
    }
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0u64);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let mut cost = 1 + model.pair_cost(g.degree(u), g.degree(v));
        if i == 0 || pairs[i - 1].0 != u {
            cost = cost.saturating_add(model.source_cost(g.degree(u)));
        }
        prefix.push(prefix[i].saturating_add(cost));
    }
    let snap = |mut cut: usize| {
        while cut > 0 && cut < n && pairs[cut].0 == pairs[cut - 1].0 {
            cut += 1;
        }
        cut
    };
    let bounds = balanced_cuts(&prefix, want, n, snap);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The one cost-balanced cut routine. `prefix` prefix-sums the cost of
/// consecutive items; the ideal cut at `k/want` of the total is found by
/// `partition_point`, and `snap` maps that item index forward to the next
/// group boundary in `0..=end`. Returns the bounds `0 < … < end`, with
/// degenerate (empty) pieces dropped.
fn balanced_cuts(
    prefix: &[u64],
    want: usize,
    end: usize,
    snap: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let items = prefix.len() - 1;
    let total = prefix[items];
    let want = want.max(1);
    let mut bounds: Vec<usize> = vec![0];
    for k in 1..want {
        let target = u64::try_from(u128::from(total) * k as u128 / want as u128)
            .expect("k < want, so the target is below the u64 total");
        let cut = snap(prefix.partition_point(|&c| c < target).min(items));
        if cut > *bounds.last().expect("bounds starts non-empty") && cut < end {
            bounds.push(cut);
        }
    }
    bounds.push(end);
    bounds
}

/// Per-source cost prefix sums: `prefix[u]` is the estimated cost of the
/// edge ranges of sources `0..u`, so a range cut on source boundaries
/// `offsets[a]..offsets[b]` costs exactly `prefix[b] - prefix[a]`.
///
/// A source's cost is one unit per directed edge (the range walk itself),
/// plus the workload's pair cost for every counted *covered* pair
/// (`v > u` and [`Workload::covers`]), plus the workload's per-source cost
/// when the source has at least one such pair (mirroring the driver, which
/// only runs `begin_source` for pairs it actually visits).
fn source_cost_prefix<W: Workload>(g: &CsrGraph, model: &CostModel, workload: &W) -> Vec<u64> {
    let n = g.num_vertices();
    let mut prefix = vec![0u64; n + 1];
    for s in 0..n {
        let u = u32::try_from(s).expect("a CSR's vertex ids are u32");
        let mut cost = g.degree(u) as u64;
        let mut counted = false;
        for &v in g.neighbors(u) {
            if v > u && workload.covers(g, u, v) {
                counted = true;
                cost = cost.saturating_add(workload.pair_cost(model, g, u, v));
            }
        }
        if counted {
            cost = cost.saturating_add(workload.source_cost(model, g, u));
        }
        prefix[s + 1] = prefix[s].saturating_add(cost);
    }
    prefix
}

/// Estimated cost prefix at an arbitrary edge offset: exact on source
/// boundaries, linearly interpolated inside a source's range (fixed-size
/// chunks can end mid-source).
fn prefix_at_edge(g: &CsrGraph, prefix: &[u64], e: usize) -> u64 {
    let m = g.num_directed_edges();
    if e >= m {
        return prefix[g.num_vertices()];
    }
    let offsets = g.offsets();
    let u = offsets.partition_point(|&o| o <= e) - 1;
    let (o0, o1) = (offsets[u], offsets[u + 1]);
    let within = prefix[u + 1] - prefix[u];
    prefix[u] + within.saturating_mul((e - o0) as u64) / (o1 - o0) as u64
}

/// (max, min) estimated task cost over `tasks` under the given prefix.
fn estimate_spread(g: &CsrGraph, prefix: &[u64], tasks: &[Range<usize>]) -> (u64, u64) {
    let mut max = 0u64;
    let mut min = u64::MAX;
    for r in tasks {
        let cost = prefix_at_edge(g, prefix, r.end) - prefix_at_edge(g, prefix, r.start);
        max = max.max(cost);
        min = min.min(cost);
    }
    if tasks.is_empty() {
        (0, 0)
    } else {
        (max, min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_graph::generators::hub_web;
    use cnc_graph::EdgeList;
    use cnc_workload::{CncWorkload, TriangleWorkload};

    fn hub_graph() -> CsrGraph {
        CsrGraph::from_edge_list(&hub_web(300, 6.0, 3, 0.5, 7))
    }

    fn path_graph(n: usize) -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeList::from_pairs(
            (0..n.saturating_sub(1)).map(|i| (i as u32, (i + 1) as u32)),
        ))
    }

    fn chunks(t: usize) -> SchedulePolicy {
        SchedulePolicy { task_size: t }
    }

    /// Every decomposition must tile `0..m` exactly: disjoint, covering, in
    /// order.
    fn assert_tiles<'a>(ranges: impl IntoIterator<Item = &'a Range<usize>>, m: usize) {
        let mut next = 0usize;
        for r in ranges {
            assert_eq!(r.start, next, "tasks must be contiguous and ordered");
            assert!(r.end > r.start, "no empty tasks");
            next = r.end;
        }
        assert_eq!(next, m, "tasks must cover the whole edge range");
    }

    fn block_ranges(blocks: &[RangeBlock]) -> Vec<Range<usize>> {
        blocks.iter().map(|b| b.range.clone()).collect()
    }

    #[test]
    fn uniform_reproduces_legacy_chunks() {
        let g = hub_graph();
        let m = g.num_directed_edges();
        for t in [1usize, 3, 17, 8192, usize::MAX] {
            let s = Schedule::compute(&g, chunks(t), &CostModel::Merge, &CncWorkload, false);
            assert_tiles(s.tasks(), m);
            let expect: Vec<Range<usize>> = (0..m.div_ceil(t))
                .map(|k| (k.saturating_mul(t))..(k.saturating_mul(t).saturating_add(t)).min(m))
                .collect();
            assert_eq!(s.tasks(), &expect[..]);
        }
    }

    #[test]
    fn balanced_cuts_are_source_aligned_and_bounded() {
        let g = hub_graph();
        let m = g.num_directed_edges();
        for (want, model) in [
            (0usize, CostModel::Merge),
            (1, CostModel::Merge),
            (2, CostModel::Bmp),
            (7, CostModel::Mps { skew_threshold: 50 }),
            (16, CostModel::Bmp),
            (10_000, CostModel::Merge),
        ] {
            let blocks = cut_source_blocks(&g, &model, &CncWorkload, want);
            assert_tiles(&block_ranges(&blocks), m);
            assert!(
                blocks.len() <= want.max(1),
                "requested {want}, got {}",
                blocks.len()
            );
            for b in &blocks {
                // Interior boundaries must be source boundaries.
                assert!(
                    g.offsets().binary_search(&b.range.start).is_ok(),
                    "cut at edge {} is not a source boundary",
                    b.range.start
                );
            }
        }
    }

    #[test]
    fn balanced_flattens_cost_spread_on_skewed_graphs() {
        let g = hub_graph();
        let model = CostModel::Bmp;
        let uniform = Schedule::compute(
            &g,
            chunks(g.num_directed_edges().div_ceil(8)),
            &model,
            &CncWorkload,
            true,
        );
        let blocks = cut_source_blocks(&g, &model, &CncWorkload, 8);
        let straggler = blocks.iter().map(|b| b.est_cost).max().unwrap();
        assert!(uniform.est_cost_max() > 0 && straggler > 0);
        // The balanced straggler must not be heavier than the uniform one
        // (on a hub-skewed graph it is strictly lighter).
        assert!(
            straggler <= uniform.est_cost_max(),
            "balanced straggler {straggler} vs uniform {}",
            uniform.est_cost_max()
        );
    }

    #[test]
    fn balanced_on_uniform_degrees_is_near_even() {
        let g = path_graph(2_000);
        let blocks = cut_source_blocks(&g, &CostModel::Merge, &CncWorkload, 8);
        assert_tiles(&block_ranges(&blocks), g.num_directed_edges());
        assert_eq!(blocks.len(), 8);
        // On a degree-uniform graph the spread collapses.
        let max = blocks.iter().map(|b| b.est_cost).max().unwrap();
        let min = blocks.iter().map(|b| b.est_cost).min().unwrap();
        assert!(max <= 2 * min.max(1));
    }

    #[test]
    fn empty_and_tiny_graphs_schedule_cleanly() {
        let empty = CsrGraph::from_edge_list(&EdgeList::from_pairs(std::iter::empty()));
        let s = Schedule::compute(&empty, chunks(8), &CostModel::Merge, &CncWorkload, true);
        assert!(s.tasks().is_empty());
        assert_eq!((s.est_cost_max(), s.est_cost_min()), (0, 0));
        assert!(cut_source_blocks(&empty, &CostModel::Merge, &CncWorkload, 8).is_empty());
        let two = path_graph(2);
        let s = Schedule::compute(&two, chunks(1), &CostModel::Merge, &CncWorkload, true);
        assert_tiles(s.tasks(), two.num_directed_edges());
        let blocks = cut_source_blocks(&two, &CostModel::Merge, &CncWorkload, 64);
        assert_tiles(&block_ranges(&blocks), two.num_directed_edges());
    }

    #[test]
    fn pruning_workload_reshapes_the_pricing() {
        // A star plus a short tail: a star edge (0, v) with v > 3 ends at a
        // leaf whose list stops below v, so the triangle workload covers
        // almost nothing and its priced total (one block's estimate is the
        // whole-range cost) drops strictly below CNC's on the same graph
        // and model.
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(
            (1u32..60).map(|v| (0, v)).chain([(1, 2), (2, 3)]),
        ));
        let cnc = cut_source_blocks(&g, &CostModel::Merge, &CncWorkload, 1);
        let tri = cut_source_blocks(&g, &CostModel::Merge, &TriangleWorkload, 1);
        assert!(
            tri[0].est_cost < cnc[0].est_cost,
            "triangle pricing {} must undercut cnc pricing {}",
            tri[0].est_cost,
            cnc[0].est_cost
        );
    }

    #[test]
    fn pair_task_ranges_tile_and_respect_groups() {
        let g = hub_graph();
        let pairs: Vec<(u32, u32)> = g
            .iter_edges()
            .filter(|&(_, u, v)| u < v)
            .map(|(_, u, v)| (u, v))
            .collect();
        for want in [1usize, 2, 7, 16, 10_000] {
            for model in [CostModel::Merge, CostModel::Bmp] {
                let ranges = pair_task_ranges(&g, &pairs, &model, want);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start, "no empty tasks");
                    // Interior cuts never split a source group.
                    if r.start > 0 {
                        assert_ne!(
                            pairs[r.start].0,
                            pairs[r.start - 1].0,
                            "cut at {} splits source {}",
                            r.start,
                            pairs[r.start].0
                        );
                    }
                    next = r.end;
                }
                assert_eq!(next, pairs.len());
                assert!(ranges.len() <= want);
            }
        }
        assert!(pair_task_ranges(&g, &[], &CostModel::Merge, 8).is_empty());
    }
}
