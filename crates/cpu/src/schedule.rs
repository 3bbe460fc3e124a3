//! Workload-aware task decomposition of the edge range.
//!
//! A parallel pass splits the directed edge range `0..m` into tasks.
//! How it splits matters twice over:
//!
//! * **Balance** — uniform edge counts are not uniform work. A hub source
//!   with degree 10⁴ makes its task an order of magnitude more expensive
//!   than a task of leaf edges, and the whole run waits on the straggler.
//! * **Source alignment** — per-source kernels (BMP, BMP-RF) rebuild their
//!   bitmap whenever a task starts mid-source: the same source is re-indexed
//!   once per task that touches it. Cutting only on source boundaries makes
//!   `begin_source` run once per (source, run) instead of once per
//!   (source, task).
//!
//! [`SchedulePolicy::Uniform`] reproduces the historical fixed-size chunks
//! byte-for-byte and stays the default. [`SchedulePolicy::Balanced`] prices
//! every source with the kernel's [`CostModel`], prefix-sums the costs, and
//! binary-searches near-equal cut points that always land on source
//! boundaries. Serve batches cut their source-grouped pair lists with the
//! same routine ([`pair_task_ranges`]).

use std::ops::Range;

use cnc_graph::CsrGraph;
use cnc_intersect::CostModel;
use cnc_workload::Workload;

/// How the parallel driver decomposes the edge range into tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Fixed-size contiguous chunks of `task_size` edges (the historical
    /// behavior, kept as the baseline). Cuts ignore source boundaries.
    Uniform {
        /// Edges per task; clamped to at least 1.
        task_size: usize,
    },
    /// Cost-balanced, source-aligned decomposition into at most `tasks`
    /// tasks. Cut points are chosen so every task carries a near-equal
    /// share of the kernel's estimated work, and always fall on source
    /// boundaries.
    Balanced {
        /// Upper bound on the number of tasks; clamped to at least 1.
        /// Degenerate cuts (empty tasks) are merged away, so the actual
        /// count may be lower.
        tasks: usize,
    },
}

/// The historical default chunk size of the uniform policy.
pub const DEFAULT_TASK_SIZE: usize = 8192;

/// Parallel execution parameters for the Algorithm 3 skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParConfig {
    /// How the edge range is decomposed into tasks. The uniform policy is
    /// the Section 4 trade-off (large tasks amortize scheduling, small
    /// tasks balance load); the balanced policy prices sources with the
    /// kernel's cost model and cuts on source boundaries.
    pub schedule: SchedulePolicy,
    /// Worker threads; `None` uses the ambient rayon pool.
    pub threads: Option<usize>,
}

impl ParConfig {
    /// Uniform chunks with an explicit task size (clamped to ≥ 1).
    pub fn with_task_size(task_size: usize) -> Self {
        Self {
            schedule: SchedulePolicy::uniform(task_size),
            threads: None,
        }
    }

    /// Cost-balanced, source-aligned decomposition into at most `tasks`
    /// tasks (clamped to ≥ 1).
    pub fn balanced(tasks: usize) -> Self {
        Self {
            schedule: SchedulePolicy::balanced(tasks),
            threads: None,
        }
    }
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy::Uniform {
            task_size: DEFAULT_TASK_SIZE,
        }
    }
}

impl SchedulePolicy {
    /// Uniform chunks of `task_size` edges (clamped to ≥ 1).
    pub fn uniform(task_size: usize) -> Self {
        SchedulePolicy::Uniform {
            task_size: task_size.max(1),
        }
    }

    /// Cost-balanced decomposition into at most `tasks` tasks (clamped
    /// to ≥ 1).
    pub fn balanced(tasks: usize) -> Self {
        SchedulePolicy::Balanced {
            tasks: tasks.max(1),
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
    /// Decompose `g`'s directed edge range under `policy`, pricing pairs
    /// and sources through `workload` (CNC prices every pair with the raw
    /// kernel model; pruning workloads zero out uncovered pairs, so their
    /// balanced cuts visibly differ on the same graph).
    ///
    /// `with_estimates` controls whether per-task cost estimates are
    /// computed for the uniform policy (the balanced policy prices every
    /// source anyway, so its estimates are free). Skipping them keeps the
    /// unobserved uniform path free of the O(E) costing pass.
    pub fn compute<W: Workload>(
        g: &CsrGraph,
        policy: SchedulePolicy,
        model: &CostModel,
        workload: &W,
        with_estimates: bool,
    ) -> Self {
        let m = g.num_directed_edges();
        if m == 0 {
            return Schedule {
                tasks: Vec::new(),
                est_cost_max: 0,
                est_cost_min: 0,
            };
        }
        match policy {
            SchedulePolicy::Uniform { task_size } => {
                let t = task_size.max(1);
                // Reproduce the legacy chunks exactly: task k covers
                // [k*t, min((k+1)*t, m)). Saturating arithmetic keeps
                // t = usize::MAX well-defined.
                let tasks: Vec<Range<usize>> = (0..m.div_ceil(t))
                    .map(|k| {
                        let start = k.saturating_mul(t);
                        start..start.saturating_add(t).min(m)
                    })
                    .collect();
                let (est_cost_max, est_cost_min) = if with_estimates {
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
            SchedulePolicy::Balanced { tasks: want } => {
                let prefix = source_cost_prefix(g, model, workload);
                let bounds = balanced_bounds(g, &prefix, want);
                let tasks: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
                let (est_cost_max, est_cost_min) = estimate_spread(g, &prefix, &tasks);
                Schedule {
                    tasks,
                    est_cost_max,
                    est_cost_min,
                }
            }
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
/// source-aligned blocks of near-equal estimated cost — the exact cuts
/// [`SchedulePolicy::Balanced`] would pick for the same inputs, exposed
/// for callers that distribute ranges across processes rather than
/// threads (the shard coordinator assigns one block per worker and feeds
/// the estimates into its `shard.range_cost_*` counters).
pub fn cut_source_blocks<W: Workload>(
    g: &CsrGraph,
    model: &CostModel,
    workload: &W,
    blocks: usize,
) -> Vec<RangeBlock> {
    if g.num_directed_edges() == 0 {
        return Vec::new();
    }
    let prefix = source_cost_prefix(g, model, workload);
    let bounds = balanced_bounds(g, &prefix, blocks);
    bounds
        .windows(2)
        .map(|w| RangeBlock {
            range: w[0]..w[1],
            est_cost: prefix_at_edge(g, &prefix, w[1]) - prefix_at_edge(g, &prefix, w[0]),
        })
        .collect()
}

/// Source-aligned cut points of `g`'s edge range for a cost-balanced
/// decomposition into at most `want` pieces. Shared by
/// [`SchedulePolicy::Balanced`] and [`cut_source_blocks`] so thread tasks
/// and process shards agree byte-for-byte.
fn balanced_bounds(g: &CsrGraph, prefix: &[u64], want: usize) -> Vec<usize> {
    let offsets = g.offsets();
    balanced_cuts(prefix, want, g.num_directed_edges(), |s| offsets[s])
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
        let target = ((total as u128 * k as u128) / want as u128) as u64;
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
    for u in 0..n {
        let u = u as u32;
        let du = g.degree(u);
        let mut cost = du as u64;
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
        prefix[u as usize + 1] = prefix[u as usize].saturating_add(cost);
    }
    prefix
}

/// Estimated cost prefix at an arbitrary edge offset: exact on source
/// boundaries, linearly interpolated inside a source's range (uniform cuts
/// can land mid-source).
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

    /// Every schedule must tile `0..m` exactly: disjoint, covering, in order.
    fn assert_tiles(s: &Schedule, m: usize) {
        let mut next = 0usize;
        for r in s.tasks() {
            assert_eq!(r.start, next, "tasks must be contiguous and ordered");
            assert!(r.end > r.start, "no empty tasks");
            next = r.end;
        }
        assert_eq!(next, m, "tasks must cover the whole edge range");
    }

    #[test]
    fn uniform_reproduces_legacy_chunks() {
        let g = hub_graph();
        let m = g.num_directed_edges();
        for t in [1usize, 3, 17, 8192, usize::MAX] {
            let s = Schedule::compute(
                &g,
                SchedulePolicy::uniform(t),
                &CostModel::Merge,
                &CncWorkload,
                false,
            );
            assert_tiles(&s, m);
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
            (1usize, CostModel::Merge),
            (2, CostModel::Bmp),
            (7, CostModel::Mps { skew_threshold: 50 }),
            (16, CostModel::Bmp),
            (10_000, CostModel::Merge),
        ] {
            let s = Schedule::compute(
                &g,
                SchedulePolicy::balanced(want),
                &model,
                &CncWorkload,
                false,
            );
            assert_tiles(&s, m);
            assert!(
                s.tasks().len() <= want,
                "requested {want}, got {}",
                s.tasks().len()
            );
            for r in s.tasks() {
                // Interior boundaries must be source boundaries.
                assert!(
                    g.offsets().binary_search(&r.start).is_ok(),
                    "cut at edge {} is not a source boundary",
                    r.start
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
            SchedulePolicy::uniform(g.num_directed_edges().div_ceil(8)),
            &model,
            &CncWorkload,
            true,
        );
        let balanced =
            Schedule::compute(&g, SchedulePolicy::balanced(8), &model, &CncWorkload, true);
        assert!(uniform.est_cost_max() > 0 && balanced.est_cost_max() > 0);
        // The balanced straggler must not be heavier than the uniform one
        // (on a hub-skewed graph it is strictly lighter).
        assert!(
            balanced.est_cost_max() <= uniform.est_cost_max(),
            "balanced straggler {} vs uniform {}",
            balanced.est_cost_max(),
            uniform.est_cost_max()
        );
    }

    #[test]
    fn balanced_on_uniform_degrees_is_near_even() {
        let g = path_graph(2_000);
        let s = Schedule::compute(
            &g,
            SchedulePolicy::balanced(8),
            &CostModel::Merge,
            &CncWorkload,
            true,
        );
        assert_tiles(&s, g.num_directed_edges());
        assert_eq!(s.tasks().len(), 8);
        // On a degree-uniform graph the spread collapses.
        assert!(s.est_cost_max() <= 2 * s.est_cost_min().max(1));
    }

    #[test]
    fn empty_and_tiny_graphs_schedule_cleanly() {
        let empty = CsrGraph::from_edge_list(&EdgeList::from_pairs(std::iter::empty()));
        for policy in [SchedulePolicy::uniform(8), SchedulePolicy::balanced(8)] {
            let s = Schedule::compute(&empty, policy, &CostModel::Merge, &CncWorkload, true);
            assert!(s.tasks().is_empty());
            assert_eq!((s.est_cost_max(), s.est_cost_min()), (0, 0));
        }
        let two = path_graph(2);
        for policy in [SchedulePolicy::uniform(1), SchedulePolicy::balanced(64)] {
            let s = Schedule::compute(&two, policy, &CostModel::Merge, &CncWorkload, true);
            assert_tiles(&s, two.num_directed_edges());
        }
    }

    #[test]
    fn pruning_workload_reshapes_the_pricing() {
        // A star plus a short tail: every star edge has a degree-1 endpoint,
        // so the triangle workload covers almost nothing and its priced
        // total (balanced(1) ⇒ est_cost_max = whole-range cost) drops
        // strictly below CNC's on the same graph and model.
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(
            (1u32..60).map(|v| (0, v)).chain([(1, 2), (2, 3)]),
        ));
        let cnc = Schedule::compute(
            &g,
            SchedulePolicy::balanced(1),
            &CostModel::Merge,
            &CncWorkload,
            true,
        );
        let tri = Schedule::compute(
            &g,
            SchedulePolicy::balanced(1),
            &CostModel::Merge,
            &TriangleWorkload,
            true,
        );
        assert!(
            tri.est_cost_max() < cnc.est_cost_max(),
            "triangle pricing {} must undercut cnc pricing {}",
            tri.est_cost_max(),
            cnc.est_cost_max()
        );
    }

    #[test]
    fn cut_source_blocks_matches_balanced_schedule() {
        let g = hub_graph();
        for (want, model) in [
            (1usize, CostModel::Merge),
            (4, CostModel::Bmp),
            (8, CostModel::Mps { skew_threshold: 50 }),
        ] {
            let s = Schedule::compute(
                &g,
                SchedulePolicy::balanced(want),
                &model,
                &CncWorkload,
                true,
            );
            let blocks = cut_source_blocks(&g, &model, &CncWorkload, want);
            let ranges: Vec<Range<usize>> = blocks.iter().map(|b| b.range.clone()).collect();
            assert_eq!(ranges, s.tasks(), "cuts must match Balanced exactly");
            let max = blocks.iter().map(|b| b.est_cost).max().unwrap();
            let min = blocks.iter().map(|b| b.est_cost).min().unwrap();
            assert_eq!((max, min), (s.est_cost_max(), s.est_cost_min()));
        }
        let empty = CsrGraph::from_edge_list(&EdgeList::from_pairs(std::iter::empty()));
        assert!(cut_source_blocks(&empty, &CostModel::Merge, &CncWorkload, 4).is_empty());
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

    #[test]
    fn policy_constructors_clamp_to_one() {
        assert_eq!(
            SchedulePolicy::uniform(0),
            SchedulePolicy::Uniform { task_size: 1 }
        );
        assert_eq!(
            SchedulePolicy::balanced(0),
            SchedulePolicy::Balanced { tasks: 1 }
        );
    }
}
