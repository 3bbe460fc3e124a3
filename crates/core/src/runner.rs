//! The unified platform × algorithm runner.
//!
//! A run is three explicit steps:
//!
//! 1. **Plan** ([`Runner::plan`], `crate::plan`) — resolve the reordering
//!    decision, select and validate the kernel, fix the partitioning, and
//!    record any platform-forced kernel substitution;
//! 2. **Execute** (`crate::backend`) — hand the plan to the platform's
//!    [`Backend`](crate::Backend) implementation;
//! 3. **Report** — assemble the unified [`RunStats`] (requested vs
//!    effective kernel, work tallies, wall and modeled time) alongside the
//!    platform-specific [`RunDetail`].
//!
//! Preprocessing lives *outside* the three steps: runs consume an
//! immutable [`PreparedGraph`] (CSR + optional degree-descending relabel +
//! statistics, computed once — see `cnc_graph::prepare`). Call
//! [`Runner::run_prepared`] to share one preparation across many runs;
//! [`Runner::run`] remains as a convenience that prepares a bare
//! [`CsrGraph`] on the spot.

use std::time::Instant;

use cnc_cpu::{BmpMode, ParConfig};
use cnc_gpu::{GpuReport, GpuRunConfig};
use cnc_graph::{CsrGraph, PreparedGraph, ReorderPolicy};
use cnc_intersect::{MpsConfig, WorkCounts};
use cnc_knl::ModeledProcessor;
use cnc_machine::{MemMode, ModelReport};
use cnc_obs::{ObsContext, RunReport};
use cnc_workload::{WorkloadKind, WorkloadOutput};

use crate::analytics::CncView;
use crate::backend::{Backend, CpuParBackend, CpuSeqBackend, GpuSimBackend, ModeledBackend};
use crate::plan::{KernelSubstitution, PlanError};
use crate::remap::counts_to_original;

/// Range-filter selection for BMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfChoice {
    /// No range filtering.
    Off,
    /// Scale-aware ratio (`cnc_intersect::scaled_rf_ratio`) — the paper's
    /// "fits in L1" rule at any graph size.
    Scaled,
    /// Explicit ratio (power of two).
    Ratio(usize),
}

impl RfChoice {
    pub(crate) fn mode(self, num_vertices: usize) -> BmpMode {
        match self {
            RfChoice::Off => BmpMode::Plain,
            RfChoice::Scaled => BmpMode::rf_scaled(num_vertices),
            RfChoice::Ratio(r) => BmpMode::RangeFiltered { ratio: r },
        }
    }
}

/// The algorithm to run (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The unoptimized merge baseline **M**.
    MergeBaseline,
    /// **MPS**: hybrid vectorized block merge + pivot skip.
    Mps(MpsConfig),
    /// **BMP**: dynamic bitmap index.
    Bmp(RfChoice),
}

impl Algorithm {
    /// MPS with auto-detected SIMD and the paper-default threshold.
    pub fn mps() -> Self {
        Algorithm::Mps(MpsConfig::default())
    }

    /// BMP with the scale-aware range filter.
    pub fn bmp_rf() -> Self {
        Algorithm::Bmp(RfChoice::Scaled)
    }

    /// BMP without range filtering.
    pub fn bmp() -> Self {
        Algorithm::Bmp(RfChoice::Off)
    }

    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::MergeBaseline => "M",
            Algorithm::Mps(_) => "MPS",
            Algorithm::Bmp(RfChoice::Off) => "BMP",
            Algorithm::Bmp(_) => "BMP-RF",
        }
    }
}

/// The processor to run on.
#[derive(Debug, Clone, PartialEq)]
pub enum Platform {
    /// The real host CPU, sequential (measured wall-clock).
    CpuSequential,
    /// The real host CPU with the rayon skeleton (measured wall-clock).
    CpuParallel(ParConfig),
    /// The modeled 28-core CPU server (exact counts, modeled time).
    CpuModel {
        /// Modeled thread count.
        threads: usize,
        /// Capacity-scaling factor (see `Dataset::capacity_scale`).
        capacity_scale: f64,
    },
    /// The modeled KNL (exact counts, modeled time).
    Knl {
        /// Modeled thread count (up to 256).
        threads: usize,
        /// MCDRAM mode.
        mode: MemMode,
        /// Capacity-scaling factor.
        capacity_scale: f64,
    },
    /// The simulated GPU (exact counts, modeled time).
    Gpu {
        /// Kernel launch and pass configuration.
        config: GpuRunConfig,
        /// Capacity-scaling factor.
        capacity_scale: f64,
    },
}

impl Platform {
    /// Real-CPU parallel execution with defaults.
    pub fn cpu_parallel() -> Self {
        Platform::CpuParallel(ParConfig::default())
    }

    /// Modeled KNL at its best configuration (256 threads, MCDRAM flat).
    pub fn knl_flat(capacity_scale: f64) -> Self {
        Platform::Knl {
            threads: 256,
            mode: MemMode::McdramFlat,
            capacity_scale,
        }
    }

    /// Simulated GPU with default launch parameters.
    pub fn gpu(capacity_scale: f64) -> Self {
        Platform::Gpu {
            config: GpuRunConfig::default(),
            capacity_scale,
        }
    }
}

/// Platform-specific detail attached to a result.
#[derive(Debug, Clone)]
pub enum RunDetail {
    /// Real execution: nothing beyond the wall clock.
    Measured,
    /// Modeled shared-memory processor report.
    Modeled(ModelReport),
    /// GPU simulator report.
    Gpu(Box<GpuReport>),
}

/// The unified report of a run: what was asked for, what actually ran,
/// and the timing/work evidence the platform produced.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Backend label (`cpu-seq`, `cpu-par`, `cpu-model`, `knl`, `gpu-sim`).
    pub platform: String,
    /// Label of the executed workload (`cnc`, `triangle`, `kclique(k=4)`).
    pub workload: String,
    /// Paper-style label of the requested algorithm.
    pub requested_algorithm: String,
    /// What actually ran: equals the requested label unless the platform
    /// substituted a kernel (see [`RunStats::substitution`]).
    pub effective_algorithm: String,
    /// Whether degree-descending reordering preprocessed the graph.
    pub reordered: bool,
    /// A platform-forced kernel substitution, explicit instead of silent
    /// (e.g. the GPU runs **M** as MPS with an infinite skew threshold).
    pub substitution: Option<KernelSubstitution>,
    /// Exact work tallies, for platforms that meter (the modeled CPU/KNL).
    pub work: Option<WorkCounts>,
    /// Host wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// Modeled elapsed seconds, for modeled platforms.
    pub modeled_seconds: Option<f64>,
    /// The SIMD instruction tier the host kernels dispatched to
    /// (`scalar`/`portable`/`avx2`/`avx512`), so measured numbers are
    /// attributable to the tier that actually ran. Modeled platforms emulate
    /// their own lane widths regardless of this tier.
    pub simd_tier: String,
}

/// The outcome of a counting run, for any workload.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The workload's result. CNC yields per-edge counts in the *input*
    /// graph's directed edge offsets; triangle and k-clique counting yield
    /// global tallies.
    pub output: WorkloadOutput,
    /// Host wall-clock seconds for the whole run (including simulation
    /// overhead — not a performance number for modeled platforms).
    pub wall_seconds: f64,
    /// Modeled elapsed seconds, for modeled platforms.
    pub modeled_seconds: Option<f64>,
    /// Platform-specific details.
    pub detail: RunDetail,
    /// The unified report of what ran.
    pub stats: RunStats,
    /// Structured observability snapshot: counters recorded during this run
    /// and the span tree. [`RunReport::disabled`] (empty, `enabled: false`)
    /// when no [`ObsContext`] was installed — observability is ambient and
    /// never perturbs an unobserved run.
    pub report: RunReport,
}

/// The historical name of a CNC run's outcome.
pub type CncResult = RunOutput;

impl RunOutput {
    /// The per-edge counts of a CNC run.
    ///
    /// # Panics
    /// If the run executed a non-CNC workload; use
    /// [`edge_counts`](RunOutput::edge_counts) to branch instead.
    pub fn counts(&self) -> &[u32] {
        self.output
            .edge_counts()
            .expect("per-edge counts exist only for the CNC workload")
    }

    /// The per-edge counts, when this run executed CNC.
    pub fn edge_counts(&self) -> Option<&[u32]> {
        self.output.edge_counts()
    }

    /// Consume into the per-edge counts of a CNC run.
    ///
    /// # Panics
    /// If the run executed a non-CNC workload.
    pub fn into_counts(self) -> Vec<u32> {
        self.output
            .into_edge_counts()
            .expect("per-edge counts exist only for the CNC workload")
    }

    /// Bind a CNC run's counts to their graph for derived analytics.
    ///
    /// # Panics
    /// If the run executed a non-CNC workload.
    pub fn view<'a>(&'a self, g: &'a CsrGraph) -> CncView<'a> {
        CncView::new(g, self.counts())
    }
}

/// A configured platform × algorithm × workload run.
#[derive(Debug, Clone)]
pub struct Runner {
    platform: Platform,
    algorithm: Algorithm,
    reorder: bool,
    workload: WorkloadKind,
}

impl Runner {
    /// A runner for the given platform and algorithm. Degree-descending
    /// reordering defaults to on for BMP (its complexity bound needs it)
    /// and off otherwise; the workload defaults to CNC.
    pub fn new(platform: Platform, algorithm: Algorithm) -> Self {
        let reorder = matches!(algorithm, Algorithm::Bmp(_));
        Self {
            platform,
            algorithm,
            reorder,
            workload: WorkloadKind::Cnc,
        }
    }

    /// Override the degree-descending reordering preprocessing. Counts are
    /// always returned in the *input* graph's edge offsets.
    pub fn reorder(mut self, yes: bool) -> Self {
        self.reorder = yes;
        self
    }

    /// Select the counting workload (CNC by default). Non-CNC workloads
    /// run on the real CPU backends only; other platforms are rejected at
    /// plan time.
    pub fn workload(mut self, kind: WorkloadKind) -> Self {
        self.workload = kind;
        self
    }

    /// The configured workload.
    pub fn workload_kind(&self) -> WorkloadKind {
        self.workload
    }

    /// The configured platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Whether the reordering preprocessing is enabled.
    pub fn reorder_enabled(&self) -> bool {
        self.reorder
    }

    /// The execute-step implementation for the configured platform.
    pub fn backend(&self) -> Box<dyn Backend> {
        match &self.platform {
            Platform::CpuSequential => Box::new(CpuSeqBackend),
            Platform::CpuParallel(cfg) => Box::new(CpuParBackend { cfg: *cfg }),
            Platform::CpuModel {
                threads,
                capacity_scale,
            } => Box::new(ModeledBackend {
                name: "cpu-model",
                processor: ModeledProcessor::cpu_for(*capacity_scale),
                threads: *threads,
                mode: MemMode::Ddr,
            }),
            Platform::Knl {
                threads,
                mode,
                capacity_scale,
            } => Box::new(ModeledBackend {
                name: "knl",
                processor: ModeledProcessor::knl_for(*capacity_scale),
                threads: *threads,
                mode: *mode,
            }),
            Platform::Gpu {
                config,
                capacity_scale,
            } => Box::new(GpuSimBackend {
                config: *config,
                capacity_scale: *capacity_scale,
            }),
        }
    }

    /// The reorder policy a preparation must carry for this runner to
    /// execute without re-deriving anything.
    pub fn reorder_policy(&self) -> ReorderPolicy {
        if self.reorder {
            ReorderPolicy::DegreeDescending
        } else {
            ReorderPolicy::None
        }
    }

    /// Execute on `g`, preparing it on the spot.
    ///
    /// # Panics
    /// On invalid kernel configuration (see [`Runner::try_run`] for the
    /// non-panicking form).
    pub fn run(&self, g: &CsrGraph) -> CncResult {
        self.try_run(g)
            .unwrap_or_else(|e| panic!("cannot run {:?}: {e}", self.algorithm.label()))
    }

    /// Execute on a shared prepared graph.
    ///
    /// # Panics
    /// On invalid kernel configuration (see [`Runner::try_run_prepared`]
    /// for the non-panicking form).
    pub fn run_prepared(&self, prepared: &PreparedGraph) -> CncResult {
        self.try_run_prepared(prepared)
            .unwrap_or_else(|e| panic!("cannot run {:?}: {e}", self.algorithm.label()))
    }

    /// Execute on `g`: prepare (one-shot, matching this runner's reorder
    /// flag), then delegate to [`Runner::try_run_prepared`]. Callers running
    /// the same graph more than once should prepare it themselves and share
    /// the `Arc` — this convenience path re-prepares per call.
    pub fn try_run(&self, g: &CsrGraph) -> Result<CncResult, PlanError> {
        let prepared = PreparedGraph::from_csr(g.clone(), self.reorder_policy());
        self.try_run_prepared(&prepared)
    }

    /// Execute on a prepared graph: plan, execute, report. No preprocessing
    /// happens here — the backend runs on the CSR the preparation already
    /// holds, and reordering only takes effect when the preparation
    /// computed the relabel (counts are then remapped back to the original
    /// graph's offsets).
    pub fn try_run_prepared(&self, prepared: &PreparedGraph) -> Result<CncResult, PlanError> {
        let t0 = Instant::now();
        // Ambient observability: when a context is installed on this thread,
        // the run's stages record spans and every layer below mirrors its
        // counters into the registry. `None` disables everything.
        let obs = ObsContext::current();
        let counters_at_start = obs.as_ref().map(|ctx| ctx.counters());
        // Plan.
        let plan = {
            let _s = obs.as_ref().map(|ctx| ctx.span("plan"));
            self.plan(prepared)?
        };
        let backend = self.backend();
        // Execute. The backend picks the prepared execution graph; counts
        // come back in that graph's offsets.
        let mut exec = {
            let _s = obs.as_ref().map(|ctx| ctx.span("execute"));
            backend.execute(prepared, &plan)
        };
        // The reorder is effective only if the preparation computed tables.
        // Only per-edge outputs live in the executed graph's offsets;
        // global tallies are offset-free and need no remap.
        let effective_reorder = plan.reorder && prepared.reordered().is_some();
        if effective_reorder {
            if let WorkloadOutput::EdgeCounts(counts) = &mut exec.output {
                let r = prepared.reordered().expect("checked above");
                *counts = counts_to_original(prepared.graph(), r, counts);
            }
        }
        if let (Some(ctx), Some(global)) = (&obs, exec.output.global_count()) {
            ctx.add(cnc_obs::Counter::WorkloadGlobalCount, global);
        }
        // Report.
        let wall_seconds = t0.elapsed().as_secs_f64();
        let effective_algorithm = plan
            .substitution
            .as_ref()
            .map(|s| s.effective.clone())
            .unwrap_or_else(|| plan.algorithm.label().to_string());
        let stats = RunStats {
            platform: backend.label(),
            workload: plan.workload.label(),
            requested_algorithm: plan.algorithm.label().to_string(),
            effective_algorithm,
            reordered: effective_reorder,
            substitution: plan.substitution,
            work: exec.work.take(),
            wall_seconds,
            modeled_seconds: exec.modeled_seconds,
            simd_tier: cnc_intersect::SimdTier::resolve().label().to_string(),
        };
        // Counters are diffed against the run's start so one long-lived
        // context (a CLI session, a bench sweep) still yields per-run
        // totals; the span tree is the context's whole recording.
        let report = match (&obs, counters_at_start) {
            (Some(ctx), Some(start)) => RunReport {
                enabled: true,
                counters: ctx.counters().since(&start),
                spans: ctx.recorder().tree(),
                spans_dropped: ctx.recorder().dropped(),
            },
            _ => RunReport::disabled(),
        };
        Ok(RunOutput {
            output: exec.output,
            wall_seconds,
            modeled_seconds: exec.modeled_seconds,
            detail: exec.detail,
            stats,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{reference_counts, verify_counts};
    use cnc_graph::datasets::{Dataset, Scale};
    use cnc_graph::generators;

    fn platforms(scale: f64) -> Vec<Platform> {
        vec![
            Platform::CpuSequential,
            Platform::cpu_parallel(),
            Platform::CpuModel {
                threads: 56,
                capacity_scale: scale,
            },
            Platform::knl_flat(scale),
            Platform::Knl {
                threads: 64,
                mode: MemMode::Ddr,
                capacity_scale: scale,
            },
            Platform::gpu(scale),
        ]
    }

    #[test]
    fn every_platform_algorithm_combination_is_exact() {
        let g = Dataset::LjS.build(Scale::Tiny);
        let scale = Dataset::LjS.capacity_scale(&g);
        let want = reference_counts(&g);
        for platform in platforms(scale) {
            for algorithm in [
                Algorithm::MergeBaseline,
                Algorithm::mps(),
                Algorithm::bmp(),
                Algorithm::bmp_rf(),
            ] {
                let r = Runner::new(platform.clone(), algorithm).run(&g);
                assert_eq!(
                    r.counts(),
                    want,
                    "platform={platform:?} algorithm={}",
                    algorithm.label()
                );
            }
        }
    }

    #[test]
    fn reorder_toggle_does_not_change_counts() {
        let g = CsrGraph::from_edge_list(&generators::hub_web(300, 6.0, 2, 0.4, 3));
        for reorder in [false, true] {
            let r = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf())
                .reorder(reorder)
                .run(&g);
            assert!(verify_counts(&g, r.counts()).is_ok(), "reorder={reorder}");
            assert_eq!(r.stats.reordered, reorder);
        }
    }

    #[test]
    fn modeled_platforms_report_modeled_time() {
        let g = Dataset::FrS.build(Scale::Tiny);
        let scale = Dataset::FrS.capacity_scale(&g);
        let knl = Runner::new(Platform::knl_flat(scale), Algorithm::mps()).run(&g);
        assert!(knl.modeled_seconds.unwrap() > 0.0);
        assert!(matches!(knl.detail, RunDetail::Modeled(_)));
        let gpu = Runner::new(Platform::gpu(scale), Algorithm::bmp_rf()).run(&g);
        assert!(gpu.modeled_seconds.unwrap() > 0.0);
        assert!(matches!(gpu.detail, RunDetail::Gpu(_)));
        let cpu = Runner::new(Platform::cpu_parallel(), Algorithm::mps()).run(&g);
        assert!(cpu.modeled_seconds.is_none());
        assert!(cpu.wall_seconds > 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(Algorithm::MergeBaseline.label(), "M");
        assert_eq!(Algorithm::mps().label(), "MPS");
        assert_eq!(Algorithm::bmp().label(), "BMP");
        assert_eq!(Algorithm::bmp_rf().label(), "BMP-RF");
    }

    #[test]
    fn view_round_trip() {
        let g = CsrGraph::from_edge_list(&generators::clique_chain(4, 8));
        let r = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).run(&g);
        assert_eq!(r.view(&g).triangle_count(), 4 * 56);
    }

    #[test]
    fn stats_carry_plan_and_evidence() {
        let g = Dataset::TwS.build(Scale::Tiny);
        let scale = Dataset::TwS.capacity_scale(&g);
        // Modeled platforms meter exactly.
        let knl = Runner::new(Platform::knl_flat(scale), Algorithm::mps()).run(&g);
        assert_eq!(knl.stats.platform, "knl");
        assert_eq!(knl.stats.requested_algorithm, "MPS");
        assert_eq!(knl.stats.effective_algorithm, "MPS");
        assert!(knl.stats.substitution.is_none());
        assert!(knl.stats.work.unwrap().total_ops() > 0);
        assert_eq!(knl.stats.modeled_seconds, knl.modeled_seconds);
        // Real platforms measure, not meter.
        let cpu = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).run(&g);
        assert_eq!(cpu.stats.platform, "cpu-par");
        assert!(cpu.stats.work.is_none());
        assert!(cpu.stats.reordered, "BMP defaults to reordering");
        assert!(cpu.stats.wall_seconds > 0.0);
    }

    #[test]
    fn gpu_merge_baseline_substitution_is_explicit() {
        // The GPU has no plain-merge baseline: the runner plans M as MPS
        // with an infinite skew threshold and must say so in the report.
        let g = Dataset::LjS.build(Scale::Tiny);
        let scale = Dataset::LjS.capacity_scale(&g);
        let r = Runner::new(Platform::gpu(scale), Algorithm::MergeBaseline).run(&g);
        assert_eq!(r.counts(), reference_counts(&g));
        let sub = r
            .stats
            .substitution
            .expect("M on GPU must report a substitution");
        assert_eq!(sub.requested, "M");
        assert!(
            sub.effective.contains("MPS"),
            "effective = {}",
            sub.effective
        );
        assert!(sub.effective.contains(&u32::MAX.to_string()));
        assert_eq!(r.stats.effective_algorithm, sub.effective);
        assert_eq!(r.stats.requested_algorithm, "M");
        // Natively supported requests report no substitution — on the GPU
        // and everywhere else.
        let native = Runner::new(Platform::gpu(scale), Algorithm::mps()).run(&g);
        assert!(native.stats.substitution.is_none());
        let cpu = Runner::new(Platform::CpuSequential, Algorithm::MergeBaseline).run(&g);
        assert!(cpu.stats.substitution.is_none());
        assert_eq!(cpu.stats.effective_algorithm, "M");
    }

    #[test]
    fn invalid_rf_ratio_is_rejected_at_plan_time() {
        let g = CsrGraph::from_edge_list(&generators::gnm(50, 200, 1));
        for bad in [0usize, 1, 100] {
            let runner = Runner::new(
                Platform::CpuSequential,
                Algorithm::Bmp(RfChoice::Ratio(bad)),
            );
            let err = runner.try_run(&g).expect_err("ratio must be rejected");
            let msg = err.to_string();
            assert!(
                msg.contains("power of two") || msg.contains("at least 2"),
                "unhelpful error: {msg}"
            );
            let pg = PreparedGraph::from_csr(g.clone(), runner.reorder_policy());
            assert!(runner.plan(&pg).is_err());
        }
        // A valid explicit ratio still runs.
        let ok = Runner::new(Platform::CpuSequential, Algorithm::Bmp(RfChoice::Ratio(64)))
            .try_run(&g)
            .unwrap();
        assert_eq!(ok.counts(), reference_counts(&g));
    }

    #[test]
    fn plan_resolves_scaled_rf_against_graph_size() {
        let g = CsrGraph::from_edge_list(&generators::gnm(40_000, 80_000, 2));
        let n = g.num_vertices();
        let bmp = Runner::new(Platform::CpuSequential, Algorithm::bmp_rf());
        let plan = bmp
            .plan(&PreparedGraph::from_csr(g.clone(), bmp.reorder_policy()))
            .unwrap();
        assert_eq!(
            plan.cpu_kernel,
            cnc_cpu::CpuKernel::Bmp(BmpMode::rf_scaled(n))
        );
        assert!(plan.reorder);
        assert!(plan.partitioning.is_none());
        let mps = Runner::new(Platform::cpu_parallel(), Algorithm::mps());
        let par_plan = mps
            .plan(&PreparedGraph::from_csr(g, mps.reorder_policy()))
            .unwrap();
        assert_eq!(par_plan.partitioning, Some(ParConfig::default()));
    }

    #[test]
    fn shared_preparation_reorders_exactly_once() {
        // The acceptance property of the preparation layer: two runs over
        // the same Arc<PreparedGraph> perform exactly one degree-descending
        // relabel — during prepare — and none during execution.
        let g = Dataset::WiS.build(Scale::Tiny);
        let runner = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf());
        let before = cnc_graph::prepare::metrics();
        let pg = PreparedGraph::from_csr(g.clone(), runner.reorder_policy());
        let after_prepare = cnc_graph::prepare::metrics();
        assert_eq!(after_prepare.since(&before).reorders, 1);
        let r1 = runner.run_prepared(&pg);
        let r2 = runner.run_prepared(&pg);
        let after_runs = cnc_graph::prepare::metrics();
        assert_eq!(
            after_runs.since(&after_prepare).reorders,
            0,
            "running must not re-reorder"
        );
        assert_eq!(after_runs.since(&after_prepare).graph_builds, 0);
        assert_eq!(r1.counts(), r2.counts());
        assert_eq!(r1.counts(), reference_counts(&g));
        assert!(r1.stats.reordered && r2.stats.reordered);
    }

    #[test]
    fn every_backend_matches_reference_on_every_dataset() {
        // All backends, all datasets, one shared preparation each: counts
        // must equal the sequential reference in original edge offsets.
        // Route the disk cache to a throwaway directory so the test leaves
        // no files in the repository tree.
        let dir = std::env::temp_dir().join(format!("cnc-core-prep-{}", std::process::id()));
        std::env::set_var("CNC_CACHE_DIR", &dir);
        for d in Dataset::ALL {
            let pg = d.prepare(Scale::Tiny, cnc_graph::ReorderPolicy::DegreeDescending);
            let want = reference_counts(pg.graph());
            for platform in platforms(pg.capacity_scale()) {
                for algorithm in [Algorithm::mps(), Algorithm::bmp_rf()] {
                    let r = Runner::new(platform.clone(), algorithm).run_prepared(&pg);
                    assert_eq!(
                        r.counts(),
                        want,
                        "dataset={} platform={platform:?} algorithm={}",
                        d.name(),
                        algorithm.label()
                    );
                }
            }
        }
        std::env::remove_var("CNC_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observed_run_reports_exact_kernel_counters_and_span_tree() {
        use cnc_obs::Counter as C;
        let g = Dataset::LjS.build(Scale::Tiny);
        let runner = Runner::new(Platform::cpu_parallel(), Algorithm::mps());
        // Ground truth: a plain metered run of the same plan.
        let pg = PreparedGraph::from_csr(g.clone(), runner.reorder_policy());
        let plan = runner.plan(&pg).unwrap();
        let (want, want_work) = plan.cpu_kernel.run_par_metered_kind(
            pg.graph(),
            &cnc_cpu::ParConfig::default(),
            WorkloadKind::Cnc,
        );
        let want_counts = want.into_edge_counts().expect("cnc output");
        // Observed run: counters must equal the meter totals, counts must be
        // untouched by the instrumentation.
        let ctx = std::sync::Arc::new(ObsContext::new());
        let r = {
            let _g = ctx.install();
            runner.run_prepared(&pg)
        };
        assert_eq!(r.counts(), want_counts, "observability must not perturb");
        assert!(r.report.enabled);
        assert_eq!(r.report.counter(C::KernelScalarOps), want_work.scalar_ops);
        assert_eq!(r.report.counter(C::KernelSeqBytes), want_work.seq_bytes);
        assert_eq!(
            r.report.counter(C::KernelIntersections),
            want_work.intersections
        );
        assert_eq!(r.stats.work, Some(want_work));
        assert!(r.report.counter(C::DriverTasks) > 0);
        // Span tree: plan and execute at the roots, then the workload span,
        // the parallel kernel, and its per-task spans nested beneath.
        let names: Vec<_> = r.report.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"plan"), "roots: {names:?}");
        let exec = r
            .report
            .spans
            .iter()
            .find(|s| s.name == "execute")
            .expect("execute span");
        let workload = exec
            .children
            .iter()
            .find(|s| s.name == "workload")
            .expect("workload span under execute");
        let kernel = workload
            .children
            .iter()
            .find(|s| s.name == "kernel")
            .expect("kernel span under workload");
        assert!(
            kernel.children.iter().all(|t| t.name == "task"),
            "kernel children must be task spans"
        );
        assert_eq!(
            kernel.children.len() as u64,
            r.report.counter(C::DriverTasks)
        );
        assert!(kernel.children.iter().all(|t| t.items > 0));
        // Second run on the same context: per-run counter diffing.
        let r2 = {
            let _g = ctx.install();
            runner.run_prepared(&pg)
        };
        assert_eq!(
            r2.report.counter(C::KernelIntersections),
            want_work.intersections,
            "counters must be per-run, not cumulative"
        );
        // Unobserved runs carry a disabled, empty report.
        let plain = runner.run_prepared(&pg);
        assert!(!plain.report.enabled);
        assert_eq!(plain.report.counter(C::KernelScalarOps), 0);
        assert!(plain.report.spans.is_empty());
        assert_eq!(plain.counts(), want_counts);
    }

    #[test]
    fn observed_modeled_and_gpu_runs_record_platform_counters() {
        use cnc_obs::Counter as C;
        let g = Dataset::FrS.build(Scale::Tiny);
        let scale = Dataset::FrS.capacity_scale(&g);
        let pg = PreparedGraph::from_csr(g, cnc_graph::ReorderPolicy::DegreeDescending);
        let knl_ctx = std::sync::Arc::new(ObsContext::new());
        let knl = {
            let _g = knl_ctx.install();
            Runner::new(Platform::knl_flat(scale), Algorithm::mps()).run_prepared(&pg)
        };
        assert_eq!(
            knl.report.counter(C::KernelIntersections),
            knl.stats.work.unwrap().intersections
        );
        assert!(knl.report.counter(C::ModelEstimates) >= 1);
        assert!(knl.report.counter(C::ModelElapsedNanos) > 0);
        let gpu_ctx = std::sync::Arc::new(ObsContext::new());
        let gpu = {
            let _g = gpu_ctx.install();
            Runner::new(Platform::gpu(scale), Algorithm::bmp_rf()).run_prepared(&pg)
        };
        assert!(gpu.report.counter(C::GpuWarpInstrs) > 0);
        assert!(gpu.report.counter(C::GpuBlocks) > 0);
        assert!(gpu.report.counter(C::GpuPasses) >= 1);
        if let RunDetail::Gpu(rep) = &gpu.detail {
            assert_eq!(gpu.report.counter(C::GpuFaults), rep.faults);
            assert_eq!(
                gpu.report.counter(C::GpuScatteredTrans),
                rep.stats.scattered_trans
            );
        } else {
            panic!("gpu detail expected");
        }
    }

    #[test]
    fn unreordered_preparation_downgrades_gracefully() {
        // A runner that wants reordering but receives a ReorderPolicy::None
        // preparation still produces exact counts and reports what happened.
        let g = Dataset::LjS.build(Scale::Tiny);
        let pg = PreparedGraph::from_csr(g.clone(), cnc_graph::ReorderPolicy::None);
        let r = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).run_prepared(&pg);
        assert_eq!(r.counts(), reference_counts(&g));
        assert!(
            !r.stats.reordered,
            "no tables → reorder cannot be effective"
        );
    }
}
