//! k-clique counting by ordered recursion through the collect kernels.

use cnc_graph::CsrGraph;
use cnc_intersect::{merge_collect, merge_count, CostModel, Meter, PairKernel};

use crate::oriented::{above, closes_above, past_edge, upper_index};
use crate::{Workload, WorkloadError, WorkloadKind};

/// Count cliques of sizes `3..=k` (with `k` in `3..=5`).
///
/// Every k-clique `{v1 < v2 < … < vk}` is discovered exactly once, at the
/// canonical edge `(v1, v2)`: the visit intersects `N(u)` past `v` with
/// `N(v)` past `v` (the oriented suffixes the triangle workload counts
/// on, read from a per-pass upper-neighbour index), so every candidate is
/// above `v`, and expands in ascending order through
/// [`merge_collect`]/[`merge_count`] against `N(w)` past `w` — so each
/// level of the recursion pins the next-smallest vertex of the clique.
///
/// This workload never probes the driver-managed [`PairKernel`] per-source
/// state ([`uses_kernel`](Workload::uses_kernel) is `false`); it recurses
/// through the collect-flavored merge kernels directly, because it needs the
/// intersection *sets*, not just their sizes.
#[derive(Debug, Clone, Copy)]
pub struct KCliqueWorkload {
    k: u8,
}

impl KCliqueWorkload {
    /// A workload counting cliques of sizes `3..=k`.
    ///
    /// # Errors
    /// [`WorkloadError::CliqueSizeOutOfRange`] unless `3 <= k <= 5`.
    pub fn new(k: u8) -> Result<Self, WorkloadError> {
        WorkloadKind::KClique { k }.validate()?;
        Ok(Self { k })
    }

    /// The maximum clique size counted.
    pub fn k(&self) -> u8 {
        self.k
    }
}

/// Per-worker state for [`KCliqueWorkload`]: the per-size tallies plus the
/// recursion's scratch buffers (reused across visits; only the tallies
/// survive the merge).
#[derive(Debug, Default)]
pub struct KCliqueAccum {
    /// `counts[i]` tallies `(i + 3)`-cliques.
    counts: [u64; 3],
    scratch0: Vec<u32>,
    scratch1: Vec<u32>,
}

impl Workload for KCliqueWorkload {
    type Shared = Box<[usize]>;
    type Accum = KCliqueAccum;
    type Output = Vec<u64>;

    fn new_shared(&self, g: &CsrGraph) -> Box<[usize]> {
        upper_index(g)
    }

    fn new_accum(&self, _g: &CsrGraph) -> KCliqueAccum {
        KCliqueAccum::default()
    }

    #[inline]
    fn covers(&self, g: &CsrGraph, u: u32, v: u32) -> bool {
        // Every clique found at (u, v) has a third vertex above v.
        closes_above(g, u, v)
    }

    #[inline]
    fn uses_kernel(&self) -> bool {
        false
    }

    #[inline]
    fn visit<K: PairKernel, M: Meter>(
        &self,
        g: &CsrGraph,
        upper: &Box<[usize]>,
        acc: &mut KCliqueAccum,
        eid: usize,
        u: u32,
        v: u32,
        _kernel: &mut K,
        meter: &mut M,
    ) {
        let KCliqueAccum {
            counts,
            scratch0,
            scratch1,
        } = acc;
        // Both suffixes lie above v, so every candidate extends the clique
        // upward.
        merge_collect(past_edge(g, eid, u, v), above(g, upper, v), scratch0, meter);
        let cand: &[u32] = scratch0;
        counts[0] += cand.len() as u64;
        if self.k >= 4 {
            for (i, &w) in cand.iter().enumerate() {
                merge_collect(&cand[i + 1..], above(g, upper, w), scratch1, meter);
                counts[1] += scratch1.len() as u64;
                if self.k == 5 {
                    for (j, &x) in scratch1.iter().enumerate() {
                        counts[2] +=
                            merge_count(&scratch1[j + 1..], above(g, upper, x), meter) as u64;
                    }
                }
            }
        }
    }

    fn merge(&self, into: &mut KCliqueAccum, from: KCliqueAccum) {
        for (a, b) in into.counts.iter_mut().zip(from.counts) {
            *a += b;
        }
    }

    fn finish(&self, _g: &CsrGraph, _upper: Box<[usize]>, acc: KCliqueAccum) -> Vec<u64> {
        acc.counts[..=(self.k - 3) as usize].to_vec()
    }

    #[inline]
    fn pair_cost(&self, model: &CostModel, g: &CsrGraph, u: u32, v: u32) -> u64 {
        // Each extra clique level re-intersects the shrinking candidate set;
        // charge the base intersection once per recursion level.
        model
            .pair_cost(g.degree(u), g.degree(v))
            .saturating_mul((self.k - 2) as u64)
    }

    #[inline]
    fn source_cost(&self, _model: &CostModel, _g: &CsrGraph, _u: u32) -> u64 {
        // No per-source kernel state is ever built (uses_kernel = false).
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_intersect::{MergeKernel, NullMeter};

    fn run(g: &CsrGraph, k: u8) -> Vec<u64> {
        let w = KCliqueWorkload::new(k).unwrap();
        let upper = w.new_shared(g);
        let mut acc = w.new_accum(g);
        let mut kernel = MergeKernel;
        for (eid, u, v) in g.iter_edges() {
            if u < v && w.covers(g, u, v) {
                w.visit(g, &upper, &mut acc, eid, u, v, &mut kernel, &mut NullMeter);
            }
        }
        w.finish(g, upper, acc)
    }

    fn complete_graph(n: u32) -> CsrGraph {
        let mut pairs = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                pairs.push((u, v));
            }
        }
        CsrGraph::from_undirected_pairs(n as usize, pairs.into_iter())
    }

    #[test]
    fn validates_k_range() {
        assert!(KCliqueWorkload::new(2).is_err());
        assert!(KCliqueWorkload::new(6).is_err());
        assert_eq!(KCliqueWorkload::new(4).unwrap().k(), 4);
    }

    #[test]
    fn complete_graph_binomials() {
        // K6: C(6,3)=20 triangles, C(6,4)=15 4-cliques, C(6,5)=6 5-cliques.
        let g = complete_graph(6);
        assert_eq!(run(&g, 3), vec![20]);
        assert_eq!(run(&g, 4), vec![20, 15]);
        assert_eq!(run(&g, 5), vec![20, 15, 6]);
    }

    #[test]
    fn shared_edge_triangles_have_no_4_clique() {
        // Two triangles glued on edge (1,2): 2 triangles, no 4-clique
        // (vertices 0 and 3 are not adjacent).
        let g = CsrGraph::from_undirected_pairs(
            4,
            [(0u32, 1), (0, 2), (1, 2), (1, 3), (2, 3)].into_iter(),
        );
        assert_eq!(run(&g, 4), vec![2, 0]);
    }

    #[test]
    fn clique_free_graph_is_zero() {
        let g = CsrGraph::from_undirected_pairs(4, [(0u32, 1), (1, 2), (2, 3), (3, 0)].into_iter());
        assert_eq!(run(&g, 5), vec![0, 0, 0]);
    }
}
