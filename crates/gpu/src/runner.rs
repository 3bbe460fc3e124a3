//! Top-level GPU runs: Algorithm 4's main program.

use cnc_graph::CsrGraph;
use cnc_machine::{cpu_server, estimate, MachineSpec, MemMode, WorkProfile};

use crate::coprocess::{
    assign_reverse_offsets, final_symmetric_assign, postprocess_without_coprocessing,
};
use crate::cost::{kernel_time, KernelStats, KernelTime};
use crate::kernels::{run_bmp_kernel, run_mkernel, run_pskernel, LaunchConfig};
use crate::mem::{ArrayId, UnifiedMemory};
use crate::multipass::{estimate_passes, pass_ranges, PassPlan};
use crate::pool::DeviceBitmapPool;
use crate::spec::GpuSpec;

/// Which counting algorithm runs on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuAlgo {
    /// MPS: the `MKernel` + `PSKernel` pair (Algorithm 5).
    Mps,
    /// BMP: the bitmap kernel (Algorithm 6), optionally range-filtered.
    Bmp {
        /// Enable the shared-memory range filter.
        rf: bool,
    },
}

impl GpuAlgo {
    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            GpuAlgo::Mps => "GPU-MPS",
            GpuAlgo::Bmp { rf: false } => "GPU-BMP",
            GpuAlgo::Bmp { rf: true } => "GPU-BMP-RF",
        }
    }
}

/// Execution options for a GPU run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuRunConfig {
    /// Kernel launch geometry and skew threshold.
    pub launch: LaunchConfig,
    /// Number of passes; `None` uses the paper's estimate.
    pub passes: Option<usize>,
    /// Overlap the reverse-offset assignment with the kernels (Table 5's
    /// CP technique). Disabling it exposes the full post-processing time.
    pub coprocess: bool,
}

impl Default for GpuRunConfig {
    fn default() -> Self {
        Self {
            launch: LaunchConfig::default(),
            passes: None,
            coprocess: true,
        }
    }
}

/// Timing and accounting of a GPU run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuReport {
    /// Modeled device time (all passes, all kernels).
    pub kernel: KernelTime,
    /// Aggregated kernel work tallies.
    pub stats: KernelStats,
    /// Unified-memory faults across the run.
    pub faults: u64,
    /// Bytes migrated host→device.
    pub migrated_bytes: u64,
    /// The pass plan used.
    pub plan: PassPlan,
    /// Passes actually executed.
    pub passes: usize,
    /// Host wall-clock of the reverse-offset assignment (hidden under the
    /// kernels when co-processing). Measured on *this* host — informational.
    pub assign_wall_s: f64,
    /// Host wall-clock of the final gather pass (informational).
    pub final_wall_s: f64,
    /// Modeled reverse-offset assignment time on the paper's CPU server.
    pub modeled_assign_s: f64,
    /// Modeled final-gather time on the paper's CPU server.
    pub modeled_final_s: f64,
    /// Post-processing time *visible* after the kernels finish — Table 5's
    /// metric (assignment + final without CP; final only with CP). Modeled
    /// on the paper's CPU server so it is commensurate with the kernel time.
    pub postprocess_visible_s: f64,
    /// End-to-end modeled seconds:
    /// `max(kernel, hidden CPU work) + visible post-processing`.
    pub total_seconds: f64,
}

/// A simulated GPU ready to run the counting algorithms.
#[derive(Debug, Clone)]
pub struct GpuRunner {
    /// The device model.
    pub spec: GpuSpec,
    /// The host CPU model used to price the co-processing phases
    /// (the paper's 28-core server, capacity-scaled like the device).
    pub host: MachineSpec,
}

/// Result of a run: exact counts plus the report.
#[derive(Debug, Clone)]
pub struct GpuRun {
    /// Per-edge-offset common neighbor counts (symmetric, complete).
    pub counts: Vec<u32>,
    /// Timing and accounting.
    pub report: GpuReport,
}

impl GpuRunner {
    /// A runner on the given device, hosted by the paper's (unscaled) CPU
    /// server.
    pub fn new(spec: GpuSpec) -> Self {
        Self {
            spec,
            host: cpu_server(),
        }
    }

    /// The paper's TITAN Xp with capacities scaled by `capacity_scale`; the
    /// host CPU model is scaled identically.
    pub fn titan_xp_for(capacity_scale: f64) -> Self {
        Self {
            spec: crate::spec::titan_xp().scaled(capacity_scale),
            host: cpu_server().scaled(capacity_scale),
        }
    }

    /// Modeled host seconds of the two post-processing phases on `g`:
    /// `(assign, final)`. The assignment performs a binary search per
    /// `u > v` edge into the (shared) neighbor array; the final pass is a
    /// random gather through the count array.
    fn modeled_postprocess(&self, g: &CsrGraph) -> (f64, f64) {
        let m = g.num_directed_edges() as f64;
        let half = m / 2.0;
        let avg_d = if g.num_vertices() == 0 {
            1.0
        } else {
            (m / g.num_vertices() as f64).max(2.0)
        };
        let probes = half * avg_d.log2().max(1.0);
        let assign = WorkProfile {
            scalar_ops: m + probes,
            vector_ops: 0.0,
            seq_bytes: 4.0 * m,
            rand_accesses: probes,
            rand_accesses_small: 0.0,
            write_bytes: 4.0 * half,
            ws_rand_bytes: g.dst().len() as f64 * 4.0,
            ws_replicated_per_thread: false,
        };
        let final_ = WorkProfile {
            scalar_ops: m,
            vector_ops: 0.0,
            seq_bytes: 4.0 * m,
            rand_accesses: half,
            rand_accesses_small: 0.0,
            write_bytes: 4.0 * half,
            ws_rand_bytes: m * 4.0,
            ws_replicated_per_thread: false,
        };
        let threads = self.host.max_threads();
        (
            estimate(&self.host, &assign, threads, MemMode::Ddr).seconds,
            estimate(&self.host, &final_, threads, MemMode::Ddr).seconds,
        )
    }

    /// The RF ratio that fits the per-block shared-memory slice, for this
    /// device and launch geometry (the paper's 4096 at TITAN Xp scale).
    pub fn rf_ratio(&self, launch: &LaunchConfig, num_vertices: usize) -> usize {
        let blocks = self.spec.blocks_per_sm(launch.warps_per_block).max(1);
        let budget_bits = (self.spec.shared_mem_per_sm / blocks).max(8) * 8;
        (num_vertices.div_ceil(budget_bits).max(2))
            .next_power_of_two()
            .max(2)
    }

    /// Run `algo` over `g` under `cfg`.
    pub fn run(&self, g: &CsrGraph, algo: GpuAlgo, cfg: &GpuRunConfig) -> GpuRun {
        let m = g.num_directed_edges();
        let mut counts = vec![0u32; m];
        let n = g.num_vertices();

        // Device-resident bitmap pool (BMP only) — pinned off the UM budget.
        let pool = match algo {
            GpuAlgo::Bmp { .. } => Some(DeviceBitmapPool::new(
                self.spec.bitmap_pool_size(cfg.launch.warps_per_block),
                n.max(1),
            )),
            GpuAlgo::Mps => None,
        };
        let bitmap_bytes = pool.as_ref().map_or(0, |p| p.device_bytes());
        let plan = estimate_passes(g, &self.spec, bitmap_bytes);
        let passes = cfg.passes.unwrap_or(plan.passes).max(1);

        // Unified memory: everything not pinned by the pool holds pages.
        let um_capacity = self
            .spec
            .global_mem_bytes
            .saturating_sub(bitmap_bytes)
            .max(self.spec.page_bytes);
        let mut um = UnifiedMemory::new(
            um_capacity,
            self.spec.page_bytes,
            &[
                (ArrayId::Offsets, (g.offsets().len() * 8) as u64),
                (ArrayId::Dst, (g.dst().len() * 4) as u64),
                (ArrayId::Counts, (m * 4) as u64),
            ],
        );

        // Phase 1 (host): reverse-offset assignment. With co-processing it
        // overlaps the kernels; without, it runs after them (and then also
        // performs the gather) — see below.
        let assign_wall_s = if cfg.coprocess {
            assign_reverse_offsets(g, &mut counts)
        } else {
            0.0
        };

        // Phase 2 (device): the kernels, one launch set per pass.
        let obs = cnc_obs::ObsContext::current();
        let device_span = obs.as_ref().map(|ctx| ctx.span("gpu_kernels"));
        let mut stats = KernelStats::default();
        for range in pass_ranges(n, passes) {
            match algo {
                GpuAlgo::Mps => {
                    let s1 = run_mkernel(
                        g,
                        &self.spec,
                        &cfg.launch,
                        range.clone(),
                        &mut counts,
                        &mut um,
                    );
                    let s2 = run_pskernel(g, &self.spec, &cfg.launch, range, &mut counts, &mut um);
                    stats.merge(&s1);
                    stats.merge(&s2);
                }
                GpuAlgo::Bmp { rf } => {
                    let ratio = rf.then(|| self.rf_ratio(&cfg.launch, n.max(1)));
                    let s = run_bmp_kernel(
                        g,
                        &self.spec,
                        &cfg.launch,
                        ratio,
                        pool.as_ref().expect("BMP pool"),
                        range,
                        &mut counts,
                        &mut um,
                    );
                    stats.merge(&s);
                }
            }
        }
        drop(device_span);
        let faults = um.faults();
        let migrated = um.migrated_bytes();
        // Mirror the simulator's evidence into the ambient observability
        // context (no-op when none is installed).
        if let Some(ctx) = &obs {
            use cnc_obs::Counter as C;
            ctx.add(C::GpuWarpInstrs, stats.warp_instrs);
            ctx.add(C::GpuCoalescedBytes, stats.coalesced_bytes);
            ctx.add(C::GpuScatteredTrans, stats.scattered_trans);
            ctx.add(C::GpuSharedOps, stats.shared_ops);
            ctx.add(C::GpuAtomics, stats.atomics);
            ctx.add(C::GpuBlocks, stats.blocks);
            ctx.add(C::GpuFaults, faults);
            ctx.add(C::GpuMigratedBytes, migrated);
            ctx.add(C::GpuPasses, passes as u64);
        }
        // The minimum any run must migrate: every page of the three arrays.
        let compulsory = ((g.offsets().len() * 8 + g.dst().len() * 4 + m * 4) as u64)
            .div_ceil(self.spec.page_bytes);
        let kernel = kernel_time(
            &self.spec,
            &stats,
            cfg.launch.warps_per_block,
            faults,
            compulsory,
        );

        // Phase 3 (host): the visible post-processing (functionally real;
        // timing modeled on the paper's CPU server).
        let final_wall_s = if cfg.coprocess {
            final_symmetric_assign(g, &mut counts)
        } else {
            postprocess_without_coprocessing(g, &mut counts)
        };
        let (modeled_assign_s, modeled_final_s) = self.modeled_postprocess(g);
        let (hidden_host, postprocess_visible_s) = if cfg.coprocess {
            (modeled_assign_s, modeled_final_s)
        } else {
            (0.0, modeled_assign_s + modeled_final_s)
        };
        let total_seconds = kernel.seconds.max(hidden_host) + postprocess_visible_s;
        GpuRun {
            counts,
            report: GpuReport {
                kernel,
                stats,
                faults,
                migrated_bytes: migrated,
                plan,
                passes,
                assign_wall_s,
                final_wall_s,
                modeled_assign_s,
                modeled_final_s,
                postprocess_visible_s,
                total_seconds,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_graph::datasets::{Dataset, Scale};
    use cnc_graph::generators;

    fn reference(g: &CsrGraph) -> Vec<u32> {
        g.iter_edges()
            .map(|(_, u, v)| cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v)))
            .collect()
    }

    fn runner_for(g: &CsrGraph, d: Dataset) -> GpuRunner {
        GpuRunner::titan_xp_for(d.capacity_scale(g))
    }

    #[test]
    fn all_algorithms_produce_exact_counts() {
        let g = Dataset::TwS.build(Scale::Tiny);
        let runner = runner_for(&g, Dataset::TwS);
        let want = reference(&g);
        for algo in [
            GpuAlgo::Mps,
            GpuAlgo::Bmp { rf: false },
            GpuAlgo::Bmp { rf: true },
        ] {
            let run = runner.run(&g, algo, &GpuRunConfig::default());
            assert_eq!(run.counts, want, "{}", algo.label());
            assert!(run.report.kernel.seconds > 0.0);
        }
    }

    #[test]
    fn no_coprocessing_same_counts_more_visible_postprocessing() {
        let g = Dataset::FrS.build(Scale::Tiny);
        let runner = runner_for(&g, Dataset::FrS);
        let with_cp = runner.run(&g, GpuAlgo::Bmp { rf: false }, &GpuRunConfig::default());
        let without = runner.run(
            &g,
            GpuAlgo::Bmp { rf: false },
            &GpuRunConfig {
                coprocess: false,
                ..GpuRunConfig::default()
            },
        );
        assert_eq!(with_cp.counts, without.counts);
        // Table 5's shape: visible post-processing shrinks with CP (the
        // reverse-offset searches are hidden under the kernels).
        assert!(
            with_cp.report.postprocess_visible_s < without.report.postprocess_visible_s,
            "cp {} vs no-cp {}",
            with_cp.report.postprocess_visible_s,
            without.report.postprocess_visible_s
        );
    }

    #[test]
    fn forced_extra_passes_keep_counts_and_add_time() {
        let g = Dataset::TwS.build(Scale::Tiny);
        let runner = runner_for(&g, Dataset::TwS);
        let want = reference(&g);
        let mut prev_seconds = 0.0;
        for passes in [1usize, 2, 4, 8] {
            let run = runner.run(
                &g,
                GpuAlgo::Mps,
                &GpuRunConfig {
                    passes: Some(passes),
                    ..GpuRunConfig::default()
                },
            );
            assert_eq!(run.counts, want, "passes={passes}");
            assert_eq!(run.report.passes, passes);
            if passes == 1 {
                prev_seconds = run.report.kernel.seconds;
            }
        }
        assert!(prev_seconds > 0.0);
    }

    #[test]
    fn rf_reduces_scattered_transactions() {
        let g = Dataset::FrS.build(Scale::Tiny);
        let runner = runner_for(&g, Dataset::FrS);
        let plain = runner.run(&g, GpuAlgo::Bmp { rf: false }, &GpuRunConfig::default());
        let rf = runner.run(&g, GpuAlgo::Bmp { rf: true }, &GpuRunConfig::default());
        assert!(
            rf.report.stats.scattered_trans < plain.report.stats.scattered_trans,
            "rf {} vs plain {}",
            rf.report.stats.scattered_trans,
            plain.report.stats.scattered_trans
        );
    }

    #[test]
    fn gpu_favors_bmp_over_mps() {
        // Figure 10's GPU finding: BMP beats MPS (which is the slowest
        // configuration overall).
        let g = Dataset::TwS.build(Scale::Tiny);
        let runner = runner_for(&g, Dataset::TwS);
        let mps = runner.run(&g, GpuAlgo::Mps, &GpuRunConfig::default());
        let bmp = runner.run(&g, GpuAlgo::Bmp { rf: true }, &GpuRunConfig::default());
        assert!(
            bmp.report.kernel.seconds < mps.report.kernel.seconds,
            "bmp {} vs mps {}",
            bmp.report.kernel.seconds,
            mps.report.kernel.seconds
        );
    }

    #[test]
    fn rf_ratio_tracks_shared_memory() {
        let runner = GpuRunner::new(crate::spec::titan_xp());
        // Paper scale: |V| = 41.6M, 4 warps/block → ratio ≈ 2048–4096.
        let r = runner.rf_ratio(&LaunchConfig::default(), 41_652_230);
        assert!((1024..=8192).contains(&r), "ratio {r}");
        // Fewer blocks per SM → more shared memory per block → finer filter.
        let r32 = runner.rf_ratio(
            &LaunchConfig {
                warps_per_block: 32,
                skew_threshold: 50,
            },
            41_652_230,
        );
        assert!(r32 <= r);
    }

    #[test]
    fn empty_graph_run() {
        let g = CsrGraph::from_edge_list(&cnc_graph::EdgeList::new(0));
        let runner = GpuRunner::new(crate::spec::titan_xp());
        let run = runner.run(&g, GpuAlgo::Mps, &GpuRunConfig::default());
        assert!(run.counts.is_empty());
    }

    #[test]
    fn star_graph_zero_counts() {
        let g = CsrGraph::from_edge_list(&generators::star(50));
        let runner = GpuRunner::new(crate::spec::titan_xp());
        for algo in [GpuAlgo::Mps, GpuAlgo::Bmp { rf: false }] {
            let run = runner.run(&g, algo, &GpuRunConfig::default());
            assert!(run.counts.iter().all(|&c| c == 0));
        }
    }
}

impl std::fmt::Display for GpuReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3e}s [kernel {:.1e} (c {:.1e}, m {:.1e}, l {:.1e}, faults {:.1e}), post {:.1e}] {} pass(es), {} UM faults",
            self.total_seconds,
            self.kernel.seconds,
            self.kernel.compute_s,
            self.kernel.mem_s,
            self.kernel.latency_s,
            self.kernel.fault_s,
            self.postprocess_visible_s,
            self.passes,
            self.faults,
        )
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use cnc_graph::generators;

    #[test]
    fn display_mentions_passes_and_faults() {
        let g = CsrGraph::from_edge_list(&generators::gnm(50, 200, 1));
        let run = GpuRunner::new(crate::spec::titan_xp()).run(
            &g,
            GpuAlgo::Bmp { rf: false },
            &GpuRunConfig::default(),
        );
        let s = run.report.to_string();
        assert!(s.contains("pass(es)"), "{s}");
        assert!(s.contains("UM faults"), "{s}");
    }
}
