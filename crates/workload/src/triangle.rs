//! Cover-edge triangle counting on the CNC traversal skeleton.

use cnc_graph::CsrGraph;
use cnc_intersect::{Meter, PairKernel};

use crate::Workload;

/// Global triangle counting over *cover edges* (Bader-style edge cover
/// pruning specialized to triangles): a canonical pair is visited only when
/// both endpoints have degree ≥ 2, because an edge with a degree-1 endpoint
/// cannot close a triangle. Skipped edges contribute zero to the sum *and*
/// zero to the balanced schedule's per-source pricing, so on leaf-heavy
/// power-law graphs the task decomposition visibly differs from CNC's.
///
/// Each visited pair contributes `|N(u) ∩ N(v)|` through the same
/// [`PairKernel`] CNC uses; every triangle has exactly three canonical
/// edges, all covered, so the global total is the sum divided by three.
#[derive(Debug, Clone, Copy, Default)]
pub struct TriangleWorkload;

/// The degree below which an endpoint disqualifies its edges from covering
/// any triangle.
const MIN_COVER_DEGREE: usize = 2;

impl Workload for TriangleWorkload {
    type Shared = ();
    type Accum = u64;
    type Output = u64;

    fn new_shared(&self, _g: &CsrGraph) {}

    fn new_accum(&self, _g: &CsrGraph) -> u64 {
        0
    }

    #[inline]
    fn covers(&self, g: &CsrGraph, u: u32, v: u32) -> bool {
        g.degree(u) >= MIN_COVER_DEGREE && g.degree(v) >= MIN_COVER_DEGREE
    }

    #[inline]
    fn visit<K: PairKernel, M: Meter>(
        &self,
        g: &CsrGraph,
        _shared: &(),
        acc: &mut u64,
        _eid: usize,
        u: u32,
        v: u32,
        kernel: &mut K,
        meter: &mut M,
    ) {
        *acc += kernel.count(g.neighbors(u), g.neighbors(v), meter) as u64;
    }

    fn merge(&self, into: &mut u64, from: u64) {
        *into += from;
    }

    fn finish(&self, _g: &CsrGraph, _shared: (), acc: u64) -> u64 {
        debug_assert_eq!(acc % 3, 0, "3T invariant: every triangle counted thrice");
        acc / 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_intersect::{MergeKernel, NullMeter};

    fn run(g: &CsrGraph) -> u64 {
        let w = TriangleWorkload;
        let mut acc = w.new_accum(g);
        let mut kernel = MergeKernel;
        for (eid, u, v) in g.iter_edges() {
            if u < v && w.covers(g, u, v) {
                w.visit(g, &(), &mut acc, eid, u, v, &mut kernel, &mut NullMeter);
            }
        }
        w.finish(g, (), acc)
    }

    #[test]
    fn triangle_with_pendant_edges() {
        // Triangle 0-1-2 plus pendants 3 and 4: pendant edges are not
        // covered, and the count is exactly 1.
        let g = CsrGraph::from_undirected_pairs(
            5,
            [(0u32, 1), (0, 2), (1, 2), (2, 3), (3, 4)].into_iter(),
        );
        let w = TriangleWorkload;
        assert!(!w.covers(&g, 3, 4), "degree-1 endpoint must prune");
        assert!(w.covers(&g, 0, 1));
        assert_eq!(run(&g), 1);
    }

    #[test]
    fn two_shared_triangles() {
        let g = CsrGraph::from_undirected_pairs(
            4,
            [(0u32, 1), (0, 2), (1, 2), (1, 3), (2, 3)].into_iter(),
        );
        assert_eq!(run(&g), 2);
    }

    #[test]
    fn triangle_free_is_zero() {
        let g = CsrGraph::from_undirected_pairs(4, [(0u32, 1), (1, 2), (2, 3), (3, 0)].into_iter());
        assert_eq!(run(&g), 0);
    }
}
