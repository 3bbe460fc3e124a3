//! Bulk passes: set-up through `cnc-graph`, whole passes through
//! `cnc-core`'s runner, the same passes issued stage by stage for the
//! traced run, and the sharded pass through `cnc-shard`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cnc_core::remap::counts_to_original;
use cnc_core::{Algorithm, Plan, PlanError, Platform, Runner};
use cnc_cpu::Schedule;
use cnc_graph::stream::{prepare_pairs_to_file, StreamConfig, StreamSummary};
use cnc_graph::{prepare::map_prepared, EdgeList, PreparedGraph, ReorderPolicy};
use cnc_intersect::{NullMeter, WorkCounts};
use cnc_obs::{Counter, ObsContext};
use cnc_shard::{run_sharded, ShardConfig, ShardOutput};
use cnc_workload::{CncWorkload, TriangleWorkload, WorkloadKind, WorkloadOutput};

use crate::gate::{Ledger, Reference};
use crate::host::{timed, Timing};
use crate::trace::Recorder;

/// The three single-process passes of a round, in round-robin order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    BmpRf,
    Mps,
    Triangle,
}

impl Kernel {
    pub const ALL: [Kernel; 3] = [Kernel::BmpRf, Kernel::Mps, Kernel::Triangle];

    pub fn label(self) -> &'static str {
        match self {
            Kernel::BmpRf => "bmp_rf",
            Kernel::Mps => "mps",
            Kernel::Triangle => "triangle",
        }
    }

    /// The wall-clock sample set of this kernel's whole pass.
    pub fn pass_metric(self) -> &'static str {
        match self {
            Kernel::BmpRf => "bmp_rf_pass_ms",
            Kernel::Mps => "mps_pass_ms",
            Kernel::Triangle => "triangle_pass_ms",
        }
    }

    /// The end-to-end metric of this kernel's pass CPU time.
    pub fn cpu_metric(self) -> &'static str {
        match self {
            Kernel::BmpRf => "bmp_rf_pass_cpu_ms",
            Kernel::Mps => "mps_pass_cpu_ms",
            Kernel::Triangle => "triangle_pass_cpu_ms",
        }
    }

    /// Root span of one staged pass.
    pub fn pass_span(self) -> &'static str {
        match self {
            Kernel::BmpRf => "pass.bmp_rf",
            Kernel::Mps => "pass.mps",
            Kernel::Triangle => "pass.triangle",
        }
    }

    /// Root span of one round of layer probes.
    pub fn probe_span(self) -> &'static str {
        match self {
            Kernel::BmpRf => "probe.bmp_rf",
            Kernel::Mps => "probe.mps",
            Kernel::Triangle => "probe.triangle",
        }
    }

    /// `cnc count`'s defaults: the parallel CPU platform, BMP-RF unless
    /// MPS is asked for; the triangle pass runs on BMP-RF.
    pub fn runner(self) -> Runner {
        match self {
            Kernel::BmpRf => Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()),
            Kernel::Mps => Runner::new(Platform::cpu_parallel(), Algorithm::mps()),
            Kernel::Triangle => Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf())
                .workload(WorkloadKind::Triangle),
        }
    }
}

/// One streamed preparation mapped back in.
pub struct Prepared {
    pub graph: Arc<PreparedGraph>,
    pub path: PathBuf,
    pub summary: StreamSummary,
}

/// `stream::prepare_pairs_to_file` into a fresh `.prep` at `path`, then
/// `prepare::map_prepared`; both stages recorded under `parent`.
pub fn prepare(
    el: &EdgeList,
    mem_budget: Option<u64>,
    path: PathBuf,
    rec: &mut Recorder,
    parent: usize,
) -> std::io::Result<Prepared> {
    let config = StreamConfig {
        mem_budget,
        spill_dir: path.parent().map(Path::to_path_buf),
    };
    let summary = rec.time("prepare", Some(parent), || {
        prepare_pairs_to_file(
            el.num_vertices,
            el.iter(),
            ReorderPolicy::DegreeDescending,
            &path,
            &config,
        )
    })?;
    let graph = rec.time("map", Some(parent), || map_prepared(&path))?;
    Ok(Prepared {
        graph: Arc::new(graph),
        path,
        summary,
    })
}

/// One whole pass through `Runner::try_run_prepared`, timed.
pub fn run_pass(
    k: Kernel,
    pg: &PreparedGraph,
    reference: &Reference,
    ledger: &mut Ledger,
) -> Timing {
    let runner = k.runner();
    let (out, timing) = timed(|| runner.try_run_prepared(pg));
    match out {
        Ok(out) => ledger.check(k.pass_span(), reference.matches(&out.output)),
        Err(e) => ledger.fail(k.pass_span(), e),
    }
    timing
}

/// Counts an execution left in the executed graph's offsets, moved back to
/// the input graph's offsets with `remap::counts_to_original` (outputs of
/// unreordered plans and global tallies pass through).
fn to_input_offsets(pg: &PreparedGraph, plan: &Plan, out: WorkloadOutput) -> WorkloadOutput {
    if let (true, Some(r)) = (plan.reorder, pg.reordered()) {
        if let Some(c) = out.edge_counts() {
            return WorkloadOutput::EdgeCounts(counts_to_original(pg.graph(), r, c));
        }
    }
    out
}

/// The same pass issued as its public stages — `Runner::plan`,
/// `Backend::execute`, `remap::counts_to_original` — each under a span.
pub fn staged_pass(
    k: Kernel,
    pg: &PreparedGraph,
    reference: &Reference,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) {
    let runner = k.runner();
    let pass = rec.open(k.pass_span(), None);
    let plan = match rec.time("plan", Some(pass), || runner.plan(pg)) {
        Ok(plan) => plan,
        Err(e) => return ledger.fail(k.pass_span(), e),
    };
    let backend = runner.backend();
    let out = rec
        .time("execute", Some(pass), || backend.execute(pg, &plan))
        .output;
    let out = rec.time("remap", Some(pass), || to_input_offsets(pg, &plan, out));
    rec.close(pass);
    ledger.check(k.pass_span(), reference.matches(&out));
}

/// What one round of layer probes measured besides its spans.
pub struct Probe {
    pub work: WorkCounts,
    pub est_cost_max: u64,
    pub est_cost_min: u64,
}

/// Layer probes for `k` on its plan: `Schedule::compute` with estimates
/// on, the metered parallel kernel, and the sequential kernel, each under
/// a span; outputs are checked like passes.
pub fn probe(
    k: Kernel,
    pg: &PreparedGraph,
    reference: &Reference,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<Probe, PlanError> {
    let plan = k.runner().plan(pg)?;
    let g = pg.execution_graph(plan.reorder);
    let cfg = plan.partitioning.unwrap_or_default();
    let model = plan.cpu_kernel.cost_model();
    let root = rec.open(k.probe_span(), None);
    let schedule = rec.time("schedule", Some(root), || match plan.workload {
        WorkloadKind::Triangle => {
            Schedule::compute(g, cfg.schedule, &model, &TriangleWorkload, true)
        }
        _ => Schedule::compute(g, cfg.schedule, &model, &CncWorkload, true),
    });
    let (metered, work) = rec.time("metered", Some(root), || {
        plan.cpu_kernel.run_par_metered_kind(g, &cfg, plan.workload)
    });
    let seq = rec.time("kernel_seq", Some(root), || {
        plan.cpu_kernel
            .run_seq_kind(g, plan.workload, &mut NullMeter)
    });
    rec.close(root);
    for out in [metered, seq] {
        ledger.check(
            k.probe_span(),
            reference.matches(&to_input_offsets(pg, &plan, out)),
        );
    }
    Ok(Probe {
        work,
        est_cost_max: schedule.est_cost_max(),
        est_cost_min: schedule.est_cost_min(),
    })
}

/// `cnc_shard::run_sharded` with two BMP-RF workers (the release `cnc`
/// binary) over the set-up's `.prep` file, timed (the CPU time includes
/// the workers'), and its output.
pub fn shard_pass(
    pg: &PreparedGraph,
    prep_path: &Path,
    cnc: &Path,
    reference: &Reference,
    ledger: &mut Ledger,
) -> (Timing, Option<ShardOutput>) {
    let cfg = ShardConfig {
        workers: 2,
        algorithm: Algorithm::bmp_rf(),
        reorder: None,
        worker_exe: cnc.to_path_buf(),
        prep_path: prep_path.to_path_buf(),
        fail_spec: None,
    };
    let (out, timing) = timed(|| run_sharded(pg, &cfg));
    match out {
        Ok(out) => {
            ledger.check("shard", out.counts == reference.counts);
            (timing, Some(out))
        }
        Err(e) => {
            ledger.fail("shard", e);
            (timing, None)
        }
    }
}

/// `workload.edges_visited` / `workload.edges_skipped` of one triangle
/// pass run under an installed observability context.
pub fn triangle_counters(
    pg: &PreparedGraph,
    reference: &Reference,
    ledger: &mut Ledger,
) -> (u64, u64) {
    let ctx = Arc::new(ObsContext::new());
    let _installed = ctx.install();
    match Kernel::Triangle.runner().try_run_prepared(pg) {
        Ok(out) => {
            ledger.check("observed triangle pass", reference.matches(&out.output));
            (
                out.report.counter(Counter::WorkloadEdgesVisited),
                out.report.counter(Counter::WorkloadEdgesSkipped),
            )
        }
        Err(e) => {
            ledger.fail("observed triangle pass", e);
            (0, 0)
        }
    }
}
