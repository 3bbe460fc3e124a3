//! The modeled-processor runner.

use cnc_cpu::CpuKernel;
use cnc_graph::CsrGraph;
use cnc_machine::{cpu_server, estimate, knl, MachineSpec, MemMode, ModelReport, WorkProfile};

use crate::profiles::profile_of;

/// A processor whose elapsed time is modeled rather than measured.
#[derive(Debug, Clone)]
pub struct ModeledProcessor {
    /// The machine model specification (possibly capacity-scaled).
    pub spec: MachineSpec,
}

/// The outcome of a modeled run: exact counts, the measured work profile,
/// and the modeled timing report.
#[derive(Debug, Clone)]
pub struct ModeledRun {
    /// Exact per-edge-offset common neighbor counts.
    pub counts: Vec<u32>,
    /// The exact work the algorithm performed.
    pub profile: WorkProfile,
    /// Modeled elapsed time and its breakdown.
    pub report: ModelReport,
}

impl ModeledProcessor {
    /// The paper's KNL with capacities scaled by `capacity_scale` (use
    /// `Dataset::capacity_scale` so working-set ratios match the paper).
    pub fn knl_for(capacity_scale: f64) -> Self {
        Self {
            spec: knl().scaled(capacity_scale),
        }
    }

    /// The paper's CPU server, capacity-scaled likewise. Used for the
    /// modeled CPU scaling curves of Figure 5.
    pub fn cpu_for(capacity_scale: f64) -> Self {
        Self {
            spec: cpu_server().scaled(capacity_scale),
        }
    }

    /// An unscaled processor from an explicit spec.
    pub fn from_spec(spec: MachineSpec) -> Self {
        Self { spec }
    }

    /// Execute `kernel` on `g` functionally and model its elapsed time with
    /// `threads` threads in memory mode `mode`.
    pub fn run(
        &self,
        g: &CsrGraph,
        kernel: &CpuKernel,
        threads: usize,
        mode: MemMode,
    ) -> ModeledRun {
        let (counts, profile) = profile_of(g, kernel);
        let report = estimate(&self.spec, &profile, threads, mode);
        ModeledRun {
            counts,
            profile,
            report,
        }
    }

    /// [`ModeledProcessor::run`] over a shared preparation: BMP executes on
    /// the prepared degree-descending relabel, the merge family on the
    /// original graph — nothing is re-derived here.
    pub fn run_prepared(
        &self,
        prepared: &cnc_graph::PreparedGraph,
        kernel: &CpuKernel,
        threads: usize,
        mode: MemMode,
    ) -> ModeledRun {
        self.run(
            crate::profiles::execution_graph_of(prepared, kernel),
            kernel,
            threads,
            mode,
        )
    }

    /// Model timing only, reusing an existing profile (cheap: lets sweeps
    /// over threads / memory modes profile the algorithm once).
    pub fn time_profile(
        &self,
        profile: &WorkProfile,
        threads: usize,
        mode: MemMode,
    ) -> ModelReport {
        estimate(&self.spec, profile, threads, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_cpu::BmpMode;
    use cnc_graph::datasets::{Dataset, Scale};
    use cnc_intersect::{MpsConfig, SimdLevel};

    fn tw_tiny() -> (CsrGraph, f64) {
        let g = Dataset::TwS.build(Scale::Tiny);
        let f = Dataset::TwS.capacity_scale(&g);
        (g, f)
    }

    #[test]
    fn fig3_shape_dsh_speedups_on_skewed_graph() {
        // Figure 3 on the TW analogue: single-threaded M vs MPS vs BMP on
        // both modeled processors; MPS and BMP must beat M clearly, and the
        // BMP gain must exceed the MPS gain (paper: 20.1x/29.3x vs 3.6x/7.1x).
        let (g, f) = tw_tiny();
        for proc_ in [ModeledProcessor::cpu_for(f), ModeledProcessor::knl_for(f)] {
            let m = proc_.run(&g, &CpuKernel::Merge, 1, MemMode::Ddr);
            let mps = proc_.run(
                &g,
                &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)),
                1,
                MemMode::Ddr,
            );
            let bmp = proc_.run(&g, &CpuKernel::Bmp(BmpMode::Plain), 1, MemMode::Ddr);
            assert_eq!(m.counts, mps.counts);
            assert_eq!(m.counts, bmp.counts);
            let s_mps = m.report.seconds / mps.report.seconds;
            let s_bmp = m.report.seconds / bmp.report.seconds;
            assert!(
                s_mps > 1.5,
                "{}: MPS vs M only {s_mps:.2}x",
                proc_.spec.name
            );
            assert!(
                s_bmp > s_mps,
                "{}: BMP {s_bmp:.2}x vs MPS {s_mps:.2}x",
                proc_.spec.name
            );
        }
    }

    #[test]
    fn fig4_shape_vectorization_gains() {
        let (g, f) = tw_tiny();
        let knl_p = ModeledProcessor::knl_for(f);
        let cpu_p = ModeledProcessor::cpu_for(f);
        let knl_scalar = knl_p.run(
            &g,
            &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)),
            1,
            MemMode::Ddr,
        );
        let knl_v = knl_p.time_profile(
            &profile_of(&g, &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx512))).1,
            1,
            MemMode::Ddr,
        );
        let cpu_scalar = cpu_p.run(
            &g,
            &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)),
            1,
            MemMode::Ddr,
        );
        let cpu_v = cpu_p.time_profile(
            &profile_of(&g, &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx2))).1,
            1,
            MemMode::Ddr,
        );
        let gain_knl = knl_scalar.report.seconds / knl_v.seconds;
        let gain_cpu = cpu_scalar.report.seconds / cpu_v.seconds;
        assert!(gain_cpu > 1.2, "cpu V gain {gain_cpu:.2}");
        assert!(
            gain_knl > gain_cpu,
            "knl {gain_knl:.2} vs cpu {gain_cpu:.2}"
        );
    }

    #[test]
    fn knl_favors_mps_cpu_favors_bmp_at_full_threads() {
        // The paper's headline finding (Summary / Figure 10).
        let (g, f) = tw_tiny();
        let knl_p = ModeledProcessor::knl_for(f);
        let cpu_p = ModeledProcessor::cpu_for(f);
        let (_, mps_prof) =
            profile_of(&g, &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx512)));
        let (_, mps2_prof) = profile_of(&g, &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx2)));
        let (_, bmp_prof) = profile_of(&g, &CpuKernel::Bmp(BmpMode::rf_scaled(g.num_vertices())));
        let knl_mps = knl_p
            .time_profile(&mps_prof, 256, MemMode::McdramFlat)
            .seconds;
        let knl_bmp = knl_p
            .time_profile(&bmp_prof, 64, MemMode::McdramFlat)
            .seconds;
        let cpu_mps = cpu_p.time_profile(&mps2_prof, 56, MemMode::Ddr).seconds;
        let cpu_bmp = cpu_p.time_profile(&bmp_prof, 56, MemMode::Ddr).seconds;
        assert!(
            knl_mps < knl_bmp,
            "KNL must favor MPS: {knl_mps} vs {knl_bmp}"
        );
        assert!(
            cpu_bmp < cpu_mps,
            "CPU must favor BMP: {cpu_bmp} vs {cpu_mps}"
        );
    }

    #[test]
    fn time_profile_is_consistent_with_run() {
        let (g, f) = tw_tiny();
        let p = ModeledProcessor::knl_for(f);
        let run = p.run(
            &g,
            &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx512)),
            64,
            MemMode::McdramFlat,
        );
        let again = p.time_profile(&run.profile, 64, MemMode::McdramFlat);
        assert_eq!(run.report.seconds, again.seconds);
    }
}
