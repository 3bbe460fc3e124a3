//! The modeled-processor runner.

use cnc_machine::{cpu_server, estimate, knl, MachineSpec, MemMode, ModelReport, WorkProfile};

/// A processor whose elapsed time is modeled rather than measured.
#[derive(Debug, Clone)]
pub struct ModeledProcessor {
    /// The machine model specification (possibly capacity-scaled).
    pub spec: MachineSpec,
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

    /// Model the elapsed time of a measured work profile
    /// ([`crate::profile_of`]) with `threads` threads in memory mode `mode`
    /// (cheap: sweeps over threads / memory modes profile the algorithm
    /// once).
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
    use crate::profiles::profile_of;
    use cnc_cpu::{BmpMode, CpuKernel};
    use cnc_graph::datasets::{Dataset, Scale};
    use cnc_graph::CsrGraph;
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
        let (m_counts, m) = profile_of(&g, &CpuKernel::Merge);
        let (mps_counts, mps) =
            profile_of(&g, &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)));
        let (bmp_counts, bmp) = profile_of(&g, &CpuKernel::Bmp(BmpMode::Plain));
        assert_eq!(m_counts, mps_counts);
        assert_eq!(m_counts, bmp_counts);
        for proc_ in [ModeledProcessor::cpu_for(f), ModeledProcessor::knl_for(f)] {
            let seconds = |p| proc_.time_profile(p, 1, MemMode::Ddr).seconds;
            let s_mps = seconds(&m) / seconds(&mps);
            let s_bmp = seconds(&m) / seconds(&bmp);
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
        let mps = |simd| profile_of(&g, &CpuKernel::Mps(MpsConfig::with_simd(simd))).1;
        let scalar = mps(SimdLevel::Scalar);
        let gain = |p: ModeledProcessor, vector: &WorkProfile| {
            p.time_profile(&scalar, 1, MemMode::Ddr).seconds
                / p.time_profile(vector, 1, MemMode::Ddr).seconds
        };
        let gain_knl = gain(ModeledProcessor::knl_for(f), &mps(SimdLevel::Avx512));
        let gain_cpu = gain(ModeledProcessor::cpu_for(f), &mps(SimdLevel::Avx2));
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
}
