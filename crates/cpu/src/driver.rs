//! The execution core behind every CPU run: one source-grouped loop, one
//! [`CpuKernel`] → kernel dispatch and one [`execute`].
//!
//! The paper's Algorithm 3 runs the same skeleton for every workload: a
//! list of tasks, each walking its items in source order with the
//! amortized `FindSrc` stash, rebuilding the kernel's per-source state
//! (BMP's bitmap index) only when the source changes, and visiting every
//! covered pair through the active [`Workload`]. Here that skeleton is
//! written once and serves every entry:
//!
//! * a **bulk pass** (`cpu-seq`, `cpu`) is the whole edge range cut by a
//!   [`Schedule`] — a sequential run is the one-task list `[0..|E|]`;
//! * a **shard block** is the one-range list `[start..end]`;
//! * a **serve batch** is a source-grouped pair list ([`WorkList::Pairs`])
//!   cut on source-group boundaries by the same cost-balanced routine;
//! * the KNL / CPU machine model's profiling run is a metered sequential
//!   pass.
//!
//! Metering is the [`TaskMeter`] type parameter: every task owns a fresh
//! meter and the run folds them together, so [`NullMeter`] compiles to the
//! unmetered loop.

use std::ops::Range;

use cnc_graph::CsrGraph;
use cnc_intersect::{
    validate_rf_ratio, BmpKernel, CostModel, CountingMeter, MergeKernel, Meter, MpsConfig,
    MpsKernel, NullMeter, PairKernel, RfKernel, RfRatioError, WorkCounts,
};
use cnc_obs::{Counter as C, MetricsSink, ObsContext, SpanId};
use cnc_workload::{
    CncWorkload, KCliqueWorkload, TriangleWorkload, Workload, WorkloadKind, WorkloadOutput,
};
use rayon::prelude::*;

use crate::pool::{BitmapPool, PoolStats};
use crate::schedule::{ParConfig, Schedule};

/// BMP index flavor: plain `|V|`-bit bitmap or the range-filtered variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmpMode {
    /// Plain bitmap (Algorithm 2 as written).
    Plain,
    /// Range-filtered bitmap with the given big-to-small ratio
    /// (the paper's RF technique; default ratio 4096).
    RangeFiltered {
        /// Big-bitmap bits summarized per small-bitmap bit (power of two).
        ratio: usize,
    },
}

impl BmpMode {
    /// The paper's default RF configuration.
    pub fn rf_default() -> Self {
        BmpMode::RangeFiltered {
            ratio: cnc_intersect::DEFAULT_RF_RATIO,
        }
    }

    /// RF with the scale-aware ratio for a graph of `num_vertices` (see
    /// [`cnc_intersect::scaled_rf_ratio`]): the paper's L1-fitting rule
    /// applied at any graph size.
    pub fn rf_scaled(num_vertices: usize) -> Self {
        BmpMode::RangeFiltered {
            ratio: cnc_intersect::scaled_rf_ratio(num_vertices),
        }
    }

    /// A validated RF mode: rejects zero / one / non-power-of-two ratios
    /// with a descriptive error instead of panicking at run time.
    pub fn range_filtered(ratio: usize) -> Result<Self, RfRatioError> {
        validate_rf_ratio(ratio)?;
        Ok(BmpMode::RangeFiltered { ratio })
    }

    /// Check this mode's configuration (the RF ratio, if any).
    pub fn validate(&self) -> Result<(), RfRatioError> {
        match self {
            BmpMode::Plain => Ok(()),
            BmpMode::RangeFiltered { ratio } => validate_rf_ratio(*ratio),
        }
    }
}

/// Per-task bookkeeping of the loop, reduced over a run's tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeTally {
    /// `begin_source` transitions: one per distinct source under
    /// source-aligned tasks, more when cuts land mid-source and the same
    /// source is re-indexed by several tasks. Always zero for workloads
    /// that bypass the kernel's per-source state.
    pub rebuilds: u64,
    /// Covered pairs visited.
    pub visited: u64,
    /// Pairs skipped by the workload's cover predicate.
    pub skipped: u64,
}

impl RangeTally {
    /// Fold another task's tally into this one (parallel reduction).
    pub fn accumulate(&mut self, other: &RangeTally) {
        self.rebuilds += other.rebuilds;
        self.visited += other.visited;
        self.skipped += other.skipped;
    }

    /// Record this tally under `kernel.source_rebuilds` and `workload.*`.
    pub fn record_to(&self, sink: &dyn MetricsSink) {
        sink.add(C::KernelSourceRebuilds, self.rebuilds);
        sink.add(C::WorkloadEdgesVisited, self.visited);
        sink.add(C::WorkloadEdgesSkipped, self.skipped);
    }
}

/// What one execution walks, already cut into tasks.
#[derive(Debug, Clone, Copy)]
pub enum WorkList<'a> {
    /// Directed edge offsets, one range per task. Non-canonical (`u >= v`)
    /// slots are skipped; a visit's item is the edge offset.
    Edges(&'a [Range<usize>]),
    /// A source-grouped pair list and the index ranges of its tasks. Pairs
    /// are visited as given; a visit's item is the pair's index.
    Pairs(&'a [(u32, u32)], &'a [Range<usize>]),
}

impl<'a> WorkList<'a> {
    fn tasks(&self) -> &'a [Range<usize>] {
        match *self {
            WorkList::Edges(tasks) | WorkList::Pairs(_, tasks) => tasks,
        }
    }
}

/// **The** source-grouped loop (Algorithm 3 lines 6–24): visits each
/// covered `(item, u, v)` through the workload, driving the kernel's
/// per-source state with the `pu_tls` rebuild-on-change logic (skipped
/// entirely when the workload never probes the kernel).
fn run_items<W: Workload, K: PairKernel, M: Meter>(
    g: &CsrGraph,
    items: impl Iterator<Item = (usize, u32, u32)>,
    workload: &W,
    shared: &W::Shared,
    (acc, kernel, meter): (&mut W::Accum, &mut K, &mut M),
) -> RangeTally {
    let uses_kernel = workload.uses_kernel();
    let mut pu: Option<u32> = None; // pu_tls (Algorithm 3 line 19)
    let mut tally = RangeTally::default();
    for (item, u, v) in items {
        if !workload.covers(g, u, v) {
            tally.skipped += 1;
            continue;
        }
        if uses_kernel && pu != Some(u) {
            if let Some(p) = pu {
                kernel.end_source(g.neighbors(p), meter);
            }
            kernel.begin_source(g.neighbors(u), meter);
            tally.rebuilds += 1;
            pu = Some(u);
        }
        workload.visit(g, shared, acc, item, u, v, kernel, meter);
        tally.visited += 1;
    }
    if let Some(p) = pu {
        kernel.end_source(g.neighbors(p), meter);
    }
    tally
}

/// A meter one task owns: built fresh per task and folded into the run's
/// meter when the task ends.
pub trait TaskMeter: Meter + Default + Send {
    /// Fold a finished task's tallies into this meter.
    fn absorb(&mut self, task: Self);
}

impl TaskMeter for NullMeter {
    #[inline(always)]
    fn absorb(&mut self, _task: Self) {}
}

impl TaskMeter for CountingMeter {
    fn absorb(&mut self, task: Self) {
        self.counts.merge(&task.counts);
    }
}

/// Hands kernels to tasks and takes them back clean
/// ([`PairKernel::is_reset`]).
trait KernelFactory: Sync {
    type Kernel: PairKernel;
    fn acquire(&self) -> Self::Kernel;
    fn release(&self, kernel: Self::Kernel);
}

impl<K: PairKernel + Send> KernelFactory for BitmapPool<K> {
    type Kernel = K;

    fn acquire(&self) -> K {
        let k = BitmapPool::acquire(self);
        debug_assert!(k.is_reset(), "pool must hand out clean kernels");
        k
    }

    fn release(&self, kernel: K) {
        debug_assert!(kernel.is_reset(), "kernels must be returned clean");
        BitmapPool::release(self, kernel);
    }
}

/// Stateless kernels (the merge family): cloned per task, dropped after.
struct CloneFactory<K>(K);

impl<K: PairKernel + Clone + Sync> KernelFactory for CloneFactory<K> {
    type Kernel = K;

    fn acquire(&self) -> K {
        self.0.clone()
    }

    fn release(&self, _kernel: K) {}
}

/// The kernels a run's tasks borrow: the one dispatch from [`CpuKernel`]
/// to a kernel type. Stateful kernels (BMP's `|V|`-bit bitmap) are pooled,
/// so a pool kept across runs — the serve layer keeps one per session —
/// allocates one bitmap per worker however many runs it serves.
pub struct KernelPool(Pool);

enum Pool {
    Merge(CloneFactory<MergeKernel>),
    Mps(CloneFactory<MpsKernel>),
    Bmp(BitmapPool<BmpKernel>),
    Rf(BitmapPool<RfKernel>),
}

impl KernelPool {
    /// Kernels of type `kernel` over graphs of `num_vertices` vertices.
    ///
    /// # Panics
    /// On an invalid RF ratio (when the first kernel is built) — validate
    /// the kernel at plan time.
    pub fn new(kernel: CpuKernel, num_vertices: usize) -> Self {
        let n = num_vertices;
        KernelPool(match kernel {
            CpuKernel::Merge => Pool::Merge(CloneFactory(MergeKernel)),
            CpuKernel::Mps(cfg) => Pool::Mps(CloneFactory(MpsKernel::new(cfg))),
            CpuKernel::Bmp(BmpMode::Plain) => Pool::Bmp(BitmapPool::new(move || BmpKernel::new(n))),
            CpuKernel::Bmp(BmpMode::RangeFiltered { ratio }) => {
                Pool::Rf(BitmapPool::new(move || {
                    RfKernel::prevalidated(n.max(1), ratio)
                }))
            }
        })
    }

    /// Bitmap usage so far (`None` for the stateless merge family).
    pub(crate) fn stats(&self) -> Option<PoolStats> {
        match &self.0 {
            Pool::Merge(_) | Pool::Mps(_) => None,
            Pool::Bmp(p) => Some(p.stats()),
            Pool::Rf(p) => Some(p.stats()),
        }
    }
}

/// Run `work` with kernels from `kernels`, visiting through `workload`;
/// returns the workload's output and the reduced [`RangeTally`].
///
/// Tasks run in parallel on `threads` workers (`None`: the ambient rayon
/// pool; a one-task list runs on the calling thread). Each task's meter is
/// folded into `meter`. With an [`ObsContext`] installed, the run adds its
/// task count to `driver.tasks`, and each edge-range task opens a `task`
/// span under the caller's innermost span. Pair lists open no spans: they
/// are point-query batches inside a long-lived daemon, whose span tree
/// must not grow per batch. Recording the tally is the caller's choice.
pub fn execute<W: Workload, M: TaskMeter>(
    g: &CsrGraph,
    work: WorkList<'_>,
    kernels: &KernelPool,
    workload: &W,
    meter: &mut M,
    threads: Option<usize>,
) -> (W::Output, RangeTally) {
    let obs = ObsContext::current();
    let spans = match work {
        WorkList::Edges(_) => obs.as_deref().map(|ctx| (ctx, ctx.recorder().current())),
        WorkList::Pairs(..) => None,
    };
    let shared = workload.new_shared(g);
    let (acc, task_meters, tally) = with_threads(threads, || match &kernels.0 {
        Pool::Merge(f) => run_task_list(g, work, f, workload, &shared, spans),
        Pool::Mps(f) => run_task_list(g, work, f, workload, &shared, spans),
        Pool::Bmp(p) => run_task_list(g, work, p, workload, &shared, spans),
        Pool::Rf(p) => run_task_list(g, work, p, workload, &shared, spans),
    });
    meter.absorb(task_meters);
    if let Some(ctx) = &obs {
        ctx.add(C::DriverTasks, work.tasks().len() as u64);
    }
    (workload.finish(g, shared, acc), tally)
}

/// The one parallel task runner: acquire a kernel, feed the task's items
/// (edge offsets resolved to canonical pairs, or a slice of the pair list)
/// through the loop with a task-local accumulator and meter, release the
/// kernel. Accumulators, meters and tallies reduce pairwise — no lock on
/// the hot path.
fn run_task_list<W: Workload, F: KernelFactory, M: TaskMeter>(
    g: &CsrGraph,
    work: WorkList<'_>,
    factory: &F,
    workload: &W,
    shared: &W::Shared,
    spans: Option<(&ObsContext, Option<SpanId>)>,
) -> (W::Accum, M, RangeTally) {
    let tasks = work.tasks();
    (0..tasks.len())
        .into_par_iter()
        .map(|k| {
            let _task_span = spans.map(|(ctx, parent)| {
                let mut s = ctx.span_under("task", parent);
                s.set_items(tasks[k].len() as u64);
                s
            });
            let mut kernel = factory.acquire();
            let (mut acc, mut meter) = (workload.new_accum(g), M::default());
            let task = (&mut acc, &mut kernel, &mut meter);
            let range = tasks[k].clone();
            let tally = match work {
                WorkList::Edges(_) => {
                    let mut u_tls = 0u32; // FindSrc stash (Algorithm 3 line 8)
                    let items = range.filter_map(|eid| {
                        let u = g.find_src(eid, &mut u_tls);
                        let v = g.dst()[eid];
                        (u < v).then_some((eid, u, v))
                    });
                    run_items(g, items, workload, shared, task)
                }
                WorkList::Pairs(pairs, _) => {
                    let items = range
                        .clone()
                        .zip(&pairs[range])
                        .map(|(i, &(u, v))| (i, u, v));
                    run_items(g, items, workload, shared, task)
                }
            };
            factory.release(kernel);
            (acc, meter, tally)
        })
        .reduce(
            || (workload.new_accum(g), M::default(), RangeTally::default()),
            |mut a, b| {
                workload.merge(&mut a.0, b.0);
                a.1.absorb(b.1);
                a.2.accumulate(&b.2);
                a
            },
        )
}

/// Run `f` on a dedicated rayon pool of `threads` workers (`None`: the
/// ambient pool).
fn with_threads<R: Send>(threads: Option<usize>, f: impl FnOnce() -> R + Send) -> R {
    match threads {
        None => f(),
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("failed to build rayon pool")
            .install(f),
    }
}

/// The platform-side algorithm choice: one value selects the kernel for
/// every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuKernel {
    /// Baseline plain merge (**M**).
    Merge,
    /// Hybrid pivot-skip / vectorized block merge (**MPS**).
    Mps(MpsConfig),
    /// Dynamic bitmap index (**BMP**), optionally range-filtered.
    Bmp(BmpMode),
}

impl CpuKernel {
    /// Check configuration that the type system cannot (the RF ratio).
    pub fn validate(&self) -> Result<(), RfRatioError> {
        match self {
            CpuKernel::Bmp(mode) => mode.validate(),
            _ => Ok(()),
        }
    }

    /// The cost model the balanced scheduler prices this kernel with.
    pub fn cost_model(&self) -> CostModel {
        match self {
            CpuKernel::Merge => CostModel::Merge,
            CpuKernel::Mps(cfg) => CostModel::Mps {
                skew_threshold: cfg.skew_threshold,
            },
            CpuKernel::Bmp(_) => CostModel::Bmp,
        }
    }

    /// Sequential pass of the workload `kind` over `g` (one task), work
    /// reported to `meter`.
    pub fn run_seq_kind<M: TaskMeter>(
        &self,
        g: &CsrGraph,
        kind: WorkloadKind,
        meter: &mut M,
    ) -> WorkloadOutput {
        self.run_kind(g, kind, None, meter)
    }

    /// Parallel pass of the workload `kind` over `g` (Algorithm 3),
    /// unmetered.
    pub fn run_par_kind(
        &self,
        g: &CsrGraph,
        cfg: &ParConfig,
        kind: WorkloadKind,
    ) -> WorkloadOutput {
        self.run_kind(g, kind, Some(cfg), &mut NullMeter)
    }

    /// Parallel pass of the workload `kind` over `g` with merged per-task
    /// work tallies.
    pub fn run_par_metered_kind(
        &self,
        g: &CsrGraph,
        cfg: &ParConfig,
        kind: WorkloadKind,
    ) -> (WorkloadOutput, WorkCounts) {
        let mut meter = CountingMeter::new();
        let output = self.run_kind(g, kind, Some(cfg), &mut meter);
        (output, meter.counts)
    }

    /// The one dispatch from [`WorkloadKind`] to a workload.
    fn run_kind<M: TaskMeter>(
        &self,
        g: &CsrGraph,
        kind: WorkloadKind,
        cfg: Option<&ParConfig>,
        meter: &mut M,
    ) -> WorkloadOutput {
        match kind {
            WorkloadKind::Cnc => WorkloadOutput::EdgeCounts(self.pass(g, &CncWorkload, cfg, meter)),
            WorkloadKind::Triangle => {
                WorkloadOutput::Global(self.pass(g, &TriangleWorkload, cfg, meter))
            }
            WorkloadKind::KClique { k } => {
                let w = KCliqueWorkload::new(k).expect("clique size validated at plan time");
                WorkloadOutput::CliqueCounts {
                    k,
                    counts: self.pass(g, &w, cfg, meter),
                }
            }
        }
    }

    /// A bulk pass over every edge: one task when `cfg` is `None`, the
    /// config's schedule otherwise. Observed passes nest `workload` →
    /// `kernel` → `task` spans under the caller's span and record the
    /// tally (and, when scheduled, the `schedule.*` counters).
    fn pass<W: Workload, M: TaskMeter>(
        &self,
        g: &CsrGraph,
        workload: &W,
        cfg: Option<&ParConfig>,
        meter: &mut M,
    ) -> W::Output {
        let obs = ObsContext::current();
        let (tasks, threads) = match cfg {
            // A sequential run is a one-task list.
            None => (std::iter::once(0..g.num_directed_edges()).collect(), None),
            Some(cfg) => {
                // Estimates are only worth the uniform policy's O(E)
                // pricing pass when someone is watching.
                let s =
                    Schedule::compute(g, cfg.schedule, &self.cost_model(), workload, obs.is_some());
                if let Some(ctx) = &obs {
                    ctx.add(C::ScheduleTasks, s.tasks.len() as u64);
                    ctx.add(C::ScheduleEstCostMax, s.est_cost_max());
                    ctx.add(C::ScheduleEstCostMin, s.est_cost_min());
                }
                (s.tasks, cfg.threads)
            }
        };
        // A scheduled pass over no edges opens no spans.
        let spans = obs.as_deref().filter(|_| !tasks.is_empty());
        let _workload_span = spans.map(|ctx| ctx.span("workload"));
        let _kernel_span = spans.map(|ctx| ctx.span("kernel"));
        let kernels = KernelPool::new(*self, g.num_vertices());
        let (output, tally) = execute(
            g,
            WorkList::Edges(&tasks),
            &kernels,
            workload,
            meter,
            threads,
        );
        if let Some(ctx) = &obs {
            tally.record_to(&**ctx);
        }
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_runs_closure() {
        assert_eq!(with_threads(None, || 41 + 1), 42);
        assert_eq!(with_threads(Some(2), rayon::current_num_threads), 2);
    }
}
