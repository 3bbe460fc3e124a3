//! Cached work profiles per dataset — every algorithm is profiled once and
//! the machine models price the same profile under many configurations.

use std::sync::Arc;

use cnc_cpu::{BmpMode, CpuKernel};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::{prepare, CsrGraph, PreparedGraph, ReorderPolicy};
use cnc_intersect::{MpsConfig, SimdLevel};
use cnc_knl::profile_of;
use cnc_machine::WorkProfile;

/// All the profiles the shared-memory experiments need for one dataset.
///
/// The graph itself comes from the process-wide prepared-graph cache
/// (`cnc_graph::prepare`): CSR construction and the degree-descending
/// relabel happen at most once per process — and not at all when the
/// on-disk cache is warm. BMP profiles are taken on the relabeled graph
/// (the paper's required preprocessing); merge-family profiles on the
/// graph as generated.
pub struct ProfileSet {
    /// The dataset.
    pub dataset: Dataset,
    /// The shared preparation (original + relabeled CSR, remap tables,
    /// statistics).
    pub prepared: Arc<PreparedGraph>,
    /// Capacity scale vs the paper's original dataset.
    pub capacity_scale: f64,
    /// Baseline M.
    pub m: WorkProfile,
    /// MPS without vectorization.
    pub mps_scalar: WorkProfile,
    /// MPS with 8-lane VB (the CPU's AVX2).
    pub mps_avx2: WorkProfile,
    /// MPS with 16-lane VB (the KNL's AVX-512).
    pub mps_avx512: WorkProfile,
    /// Plain BMP.
    pub bmp: WorkProfile,
    /// Range-filtered BMP.
    pub bmp_rf: WorkProfile,
}

impl ProfileSet {
    /// Fetch the shared prepared graph and profile all six algorithm
    /// configurations.
    pub fn build(dataset: Dataset, scale: Scale) -> Self {
        let prepared = prepare::prepared(dataset, scale, ReorderPolicy::DegreeDescending);
        let graph = prepared.graph();
        let reordered = &prepared
            .reordered()
            .expect("prepared with ReorderPolicy::DegreeDescending")
            .graph;
        let capacity_scale = prepared.capacity_scale();
        let prof = |g: &CsrGraph, kernel: CpuKernel| profile_of(g, &kernel).1;
        let mps = |simd| CpuKernel::Mps(MpsConfig::with_simd(simd));
        let n = graph.num_vertices();
        Self {
            capacity_scale,
            m: prof(graph, CpuKernel::Merge),
            mps_scalar: prof(graph, mps(SimdLevel::Scalar)),
            mps_avx2: prof(graph, mps(SimdLevel::Avx2)),
            mps_avx512: prof(graph, mps(SimdLevel::Avx512)),
            bmp: prof(reordered, CpuKernel::Bmp(BmpMode::Plain)),
            bmp_rf: prof(reordered, CpuKernel::Bmp(BmpMode::rf_scaled(n))),
            dataset,
            prepared,
        }
    }

    /// The generated graph (original vertex ids).
    pub fn graph(&self) -> &CsrGraph {
        self.prepared.graph()
    }

    /// The degree-descending relabeled graph (BMP's input).
    pub fn reordered(&self) -> &CsrGraph {
        &self
            .prepared
            .reordered()
            .expect("prepared with ReorderPolicy::DegreeDescending")
            .graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_set_builds_consistently() {
        let ps = ProfileSet::build(Dataset::LjS, Scale::Tiny);
        assert!(ps.m.total_ops() >= ps.mps_scalar.total_ops());
        assert!(ps.mps_avx512.vector_ops > 0.0);
        assert!(ps.bmp.ws_replicated_per_thread);
        assert!(!ps.m.ws_replicated_per_thread);
        assert!(ps.capacity_scale > 0.0 && ps.capacity_scale < 1.0);
        assert_eq!(
            ps.graph().num_directed_edges(),
            ps.reordered().num_directed_edges()
        );
    }

    #[test]
    fn profile_sets_share_one_preparation() {
        // Two sets for the same key must share the cached Arc rather than
        // rebuilding the graph.
        let a = ProfileSet::build(Dataset::OrS, Scale::Tiny);
        let before = cnc_graph::prepare::metrics();
        let b = ProfileSet::build(Dataset::OrS, Scale::Tiny);
        let d = cnc_graph::prepare::metrics().since(&before);
        assert!(Arc::ptr_eq(&a.prepared, &b.prepared));
        assert_eq!(d.graph_builds, 0);
        assert_eq!(d.reorders, 0);
        assert_eq!(d.mem_hits, 1);
    }
}
