//! The execute step of a run: one [`Backend`] per processor.
//!
//! A backend takes a validated [`Plan`] and a [`PreparedGraph`] and
//! produces counts plus whatever timing/work evidence its platform has —
//! measured wall clock for the real CPU, modeled seconds and exact
//! [`WorkCounts`] for the simulated processors. Backends never preprocess:
//! the preparation layer already built the CSR and (when the policy asked
//! for it) the degree-descending relabel, so
//! [`PreparedGraph::execution_graph`] just *selects* which of the two CSRs
//! to run on. The four implementations mirror the paper's processor
//! line-up:
//!
//! * [`CpuSeqBackend`] — the real host CPU, sequential;
//! * [`CpuParBackend`] — the real host CPU through the claim-loop skeleton;
//! * [`ModeledBackend`] — the modeled CPU server and KNL (one backend,
//!   two machine specs);
//! * [`GpuSimBackend`] — the simulated GPU.
//!
//! All CPU-side execution (including the modeled processors' functional
//! runs) goes through `cnc_cpu::execute`, i.e. the one source-grouped
//! loop.

use cnc_gpu::{GpuAlgo, GpuRunConfig, GpuRunner};
use cnc_graph::PreparedGraph;
use cnc_intersect::{CountingMeter, NullMeter, WorkCounts};
use cnc_knl::{counts_and_work_of, profile_from_work, ModeledProcessor};
use cnc_machine::MemMode;
use cnc_obs::ObsContext;
use cnc_workload::{WorkloadKind, WorkloadOutput};

use crate::plan::Plan;
use crate::runner::{Algorithm, RfChoice, RunDetail};

/// What a backend produced: the workload's output plus platform-specific
/// evidence.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The type-erased workload result (per-edge counts for CNC, in the
    /// offsets of the executed graph).
    pub output: WorkloadOutput,
    /// Modeled elapsed seconds (modeled platforms only).
    pub modeled_seconds: Option<f64>,
    /// Exact work tallies, when the platform collects them.
    pub work: Option<WorkCounts>,
    /// Platform-specific report detail.
    pub detail: RunDetail,
}

/// A processor that can execute a planned run.
pub trait Backend {
    /// Short platform label for reports (`cpu-seq`, `knl`, …).
    fn label(&self) -> String;

    /// Execute `plan` on a prepared graph. Counts are in the offsets of
    /// [`PreparedGraph::execution_graph`] for the plan's reorder flag; the
    /// caller handles remapping back to original ids.
    fn execute(&self, prepared: &PreparedGraph, plan: &Plan) -> Execution;
}

/// The real host CPU, sequential.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSeqBackend;

impl Backend for CpuSeqBackend {
    fn label(&self) -> String {
        "cpu-seq".into()
    }

    fn execute(&self, prepared: &PreparedGraph, plan: &Plan) -> Execution {
        let g = prepared.execution_graph(plan.reorder);
        // Observed runs meter (the metered specialization provably returns
        // identical counts) so the registry carries exact kernel tallies;
        // plain runs keep the zero-overhead NullMeter path.
        let (output, work) = match ObsContext::current() {
            Some(ctx) => {
                let mut meter = CountingMeter::new();
                let output = plan.cpu_kernel.run_seq_kind(g, plan.workload, &mut meter);
                meter.counts.record_to(&*ctx);
                (output, Some(meter.counts))
            }
            None => (
                plan.cpu_kernel
                    .run_seq_kind(g, plan.workload, &mut NullMeter),
                None,
            ),
        };
        Execution {
            output,
            modeled_seconds: None,
            work,
            detail: RunDetail::Measured,
        }
    }
}

/// The real host CPU through the Algorithm 3 skeleton: worker threads claim
/// tasks from one cursor, under the plan's partitioning.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuParBackend;

impl Backend for CpuParBackend {
    fn label(&self) -> String {
        "cpu-par".into()
    }

    fn execute(&self, prepared: &PreparedGraph, plan: &Plan) -> Execution {
        let g = prepared.execution_graph(plan.reorder);
        let cfg = plan.partitioning.unwrap_or_default();
        // Observed runs take the metered parallel path (identical counts by
        // construction — every run goes through the same `execute`) and
        // record the merged per-task tallies.
        let (output, work) = match ObsContext::current() {
            Some(ctx) => {
                let (output, work) = plan.cpu_kernel.run_par_metered_kind(g, &cfg, plan.workload);
                work.record_to(&*ctx);
                (output, Some(work))
            }
            None => (plan.cpu_kernel.run_par_kind(g, &cfg, plan.workload), None),
        };
        Execution {
            output,
            modeled_seconds: None,
            work,
            detail: RunDetail::Measured,
        }
    }
}

/// A modeled shared-memory processor (the paper's CPU server or KNL):
/// exact counts from a metered sequential pass through `cnc_cpu::execute`,
/// elapsed time from the machine model.
#[derive(Debug, Clone)]
pub struct ModeledBackend {
    /// Short label (`cpu-model` / `knl`).
    pub name: &'static str,
    /// The machine model (possibly capacity-scaled).
    pub processor: ModeledProcessor,
    /// Modeled thread count.
    pub threads: usize,
    /// Modeled memory mode.
    pub mode: MemMode,
}

impl Backend for ModeledBackend {
    fn label(&self) -> String {
        self.name.into()
    }

    fn execute(&self, prepared: &PreparedGraph, plan: &Plan) -> Execution {
        debug_assert_eq!(
            plan.workload,
            WorkloadKind::Cnc,
            "plan() rejects non-CNC workloads on modeled platforms"
        );
        let g = prepared.execution_graph(plan.reorder);
        let (counts, work) = counts_and_work_of(g, &plan.cpu_kernel);
        let profile = profile_from_work(g, &plan.cpu_kernel, &work);
        let report = self
            .processor
            .time_profile(&profile, self.threads, self.mode);
        Execution {
            output: WorkloadOutput::EdgeCounts(counts),
            modeled_seconds: Some(report.seconds),
            work: Some(work),
            detail: RunDetail::Modeled(report),
        }
    }
}

/// The simulated GPU.
#[derive(Debug, Clone)]
pub struct GpuSimBackend {
    /// Kernel launch and pass configuration.
    pub config: GpuRunConfig,
    /// Capacity-scaling factor (see `Dataset::capacity_scale`).
    pub capacity_scale: f64,
}

impl Backend for GpuSimBackend {
    fn label(&self) -> String {
        "gpu-sim".into()
    }

    fn execute(&self, prepared: &PreparedGraph, plan: &Plan) -> Execution {
        debug_assert_eq!(
            plan.workload,
            WorkloadKind::Cnc,
            "plan() rejects non-CNC workloads on the GPU simulator"
        );
        let g = prepared.execution_graph(plan.reorder);
        let gpu = GpuRunner::titan_xp_for(self.capacity_scale);
        let algo = match &plan.algorithm {
            Algorithm::MergeBaseline | Algorithm::Mps(_) => GpuAlgo::Mps,
            Algorithm::Bmp(rf) => GpuAlgo::Bmp {
                rf: !matches!(rf, RfChoice::Off),
            },
        };
        let mut cfg = self.config;
        if plan.substitution.is_some() {
            // The planned M → MPS(threshold = ∞) substitution: MKernel
            // never takes the pivot-skip path, which is exactly M.
            cfg.launch.skew_threshold = u32::MAX;
        }
        let run = gpu.run(g, algo, &cfg);
        Execution {
            output: WorkloadOutput::EdgeCounts(run.counts),
            modeled_seconds: Some(run.report.total_seconds),
            work: None,
            detail: RunDetail::Gpu(Box::new(run.report)),
        }
    }
}
