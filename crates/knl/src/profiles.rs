//! Exact work profiles of the counting algorithms on a concrete graph.

use cnc_cpu::{execute, BmpMode, CpuKernel, KernelPool, WorkList};
use cnc_graph::CsrGraph;
use cnc_intersect::{Bitmap, CountingMeter, RfBitmap, WorkCounts};
use cnc_machine::WorkProfile;
use cnc_obs::ObsContext;
use cnc_workload::CncWorkload;

/// The random-access working set of one execution context of `kernel` on `g`:
/// the thread-local bitmap for BMP (replicated per thread), the shared
/// neighbor array for the merge family.
pub fn working_set_of(g: &CsrGraph, kernel: &CpuKernel) -> (f64, bool) {
    match kernel {
        CpuKernel::Merge | CpuKernel::Mps(_) => {
            // Binary-search probes during pivot-skip land in the CSR
            // neighbor array, shared by all threads.
            (g.dst().len() as f64 * 4.0, false)
        }
        CpuKernel::Bmp(mode) => {
            let n = g.num_vertices().max(1);
            let bytes = match mode {
                BmpMode::Plain => Bitmap::new(n).bytes(),
                BmpMode::RangeFiltered { ratio } => {
                    // Only the *big* bitmap pressures the cache; the small
                    // filter is L1-resident by construction (its accesses
                    // are metered separately as `rand_accesses_small`).
                    RfBitmap::with_ratio(n, *ratio).bytes().0
                }
            };
            (bytes as f64, true)
        }
    }
}

/// Convert kernel work counts plus working-set information into the machine
/// model's input.
fn to_profile(counts: &WorkCounts, ws_bytes: f64, replicated: bool) -> WorkProfile {
    WorkProfile {
        scalar_ops: counts.scalar_ops as f64,
        vector_ops: counts.vector_ops as f64,
        seq_bytes: counts.seq_bytes as f64,
        rand_accesses: counts.rand_accesses as f64,
        rand_accesses_small: counts.rand_accesses_small as f64,
        write_bytes: counts.write_bytes as f64,
        ws_rand_bytes: ws_bytes,
        ws_replicated_per_thread: replicated,
    }
}

/// Execute `kernel` on `g` (sequentially, fully instrumented) and return the
/// exact counts plus the raw work tallies.
///
/// This is a one-task pass through `cnc_cpu::execute` — the same loop as
/// every real-CPU run — with a [`CountingMeter`], so profiles are
/// deterministic and exactly match the work of a single-task run.
pub fn counts_and_work_of(g: &CsrGraph, kernel: &CpuKernel) -> (Vec<u32>, WorkCounts) {
    let mut meter = CountingMeter::new();
    let kernels = KernelPool::new(*kernel, g.num_vertices());
    let whole = 0..g.num_directed_edges();
    let work = WorkList::Edges(std::slice::from_ref(&whole));
    let (counts, tally) = ObsContext::scoped("modeled_count", || {
        execute(g, work, &kernels, &CncWorkload, &mut meter, None)
    });
    // Modeled runs always meter; mirror the tallies into the ambient
    // observability context so `--metrics` reports agree with the profile.
    if let Some(ctx) = ObsContext::current() {
        tally.record_to(&*ctx);
        meter.counts.record_to(&*ctx);
    }
    (counts, meter.counts)
}

/// Turn raw work tallies of `kernel` on `g` into the machine model's input.
pub fn profile_from_work(g: &CsrGraph, kernel: &CpuKernel, work: &WorkCounts) -> WorkProfile {
    let (ws, repl) = working_set_of(g, kernel);
    to_profile(work, ws, repl)
}

/// Execute `kernel` on `g` (sequentially, fully instrumented) and return the
/// exact counts plus the machine-neutral work profile.
pub fn profile_of(g: &CsrGraph, kernel: &CpuKernel) -> (Vec<u32>, WorkProfile) {
    let (counts, work) = counts_and_work_of(g, kernel);
    (counts, profile_from_work(g, kernel, &work))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_graph::datasets::{Dataset, Scale};
    use cnc_graph::generators;
    use cnc_intersect::{MpsConfig, SimdLevel};

    #[test]
    fn profiles_carry_positive_work() {
        let g = CsrGraph::from_edge_list(&generators::gnm(200, 1000, 1));
        for kernel in [
            CpuKernel::Merge,
            CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx2)),
            CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx512)),
            CpuKernel::Bmp(BmpMode::Plain),
            CpuKernel::Bmp(BmpMode::rf_scaled(g.num_vertices())),
        ] {
            let (counts, p) = profile_of(&g, &kernel);
            assert_eq!(counts.len(), g.num_directed_edges());
            assert!(p.total_ops() > 0.0, "{kernel:?} did no work");
            assert!(p.seq_bytes > 0.0);
        }
    }

    #[test]
    fn all_profiled_algos_agree_on_counts() {
        let g = Dataset::TwS.build(Scale::Tiny);
        let (want, _) = profile_of(&g, &CpuKernel::Merge);
        for kernel in [
            CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)),
            CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx512)),
            CpuKernel::Bmp(BmpMode::Plain),
            CpuKernel::Bmp(BmpMode::rf_scaled(g.num_vertices())),
        ] {
            let (got, _) = profile_of(&g, &kernel);
            assert_eq!(got, want, "{kernel:?}");
        }
    }

    #[test]
    fn vectorized_mps_shifts_scalar_work_to_vector() {
        let g = Dataset::FrS.build(Scale::Tiny);
        let (_, scalar) = profile_of(&g, &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Scalar)));
        let (_, vec512) = profile_of(&g, &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx512)));
        assert!(vec512.vector_ops > 0.0);
        assert!(vec512.scalar_ops < scalar.scalar_ops);
        assert_eq!(scalar.vector_ops, 0.0);
    }

    #[test]
    fn bmp_working_set_is_bitmap_and_replicated() {
        let g = CsrGraph::from_edge_list(&generators::gnm(640, 2000, 2));
        let (ws, repl) = working_set_of(&g, &CpuKernel::Bmp(BmpMode::Plain));
        assert_eq!(ws, 640.0 / 8.0);
        assert!(repl);
        let (ws_m, repl_m) =
            working_set_of(&g, &CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx2)));
        assert_eq!(ws_m, g.dst().len() as f64 * 4.0);
        assert!(!repl_m);
    }

    #[test]
    fn mps_on_skewed_graph_does_less_work_than_baseline() {
        // The DSH effect (Figure 3) at the profile level.
        let g = Dataset::WiS.build(Scale::Tiny);
        let (_, base) = profile_of(&g, &CpuKernel::Merge);
        let (_, mps) = profile_of(
            &g,
            &CpuKernel::Mps(MpsConfig {
                skew_threshold: 50,
                simd: SimdLevel::Scalar,
            }),
        );
        assert!(mps.total_ops() < base.total_ops());
    }
}
