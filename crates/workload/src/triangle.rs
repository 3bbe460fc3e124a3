//! Triangle counting on oriented suffixes over the CNC traversal skeleton.

use cnc_graph::CsrGraph;
use cnc_intersect::{Meter, PairKernel};

use crate::oriented::{above, closes_above, past_edge, upper_index};
use crate::Workload;

/// Global triangle counting, each triangle counted once.
///
/// The canonical edge `(u, v)` intersects `N(u)` past `v` with `N(v)` past
/// `v` through the same [`PairKernel`] CNC uses, so the triangle
/// `u < v < w` is counted at `(u, v)` only and the sum is the total. The
/// per-pass shared state is the upper-neighbour index, which reads
/// `N(v)` past `v` without a search; `N(u)` past `v` starts right after
/// the edge's own slot. An edge is visited only when both lists reach past
/// `v` (an O(1) test of their last entries); skipped edges contribute
/// nothing to the sum *and* nothing to the per-source pricing, so its
/// shard cuts and cost estimates differ from CNC's.
#[derive(Debug, Clone, Copy, Default)]
pub struct TriangleWorkload;

impl Workload for TriangleWorkload {
    type Shared = Box<[usize]>;
    type Accum = u64;
    type Output = u64;

    fn new_shared(&self, g: &CsrGraph) -> Box<[usize]> {
        upper_index(g)
    }

    fn new_accum(&self, _g: &CsrGraph) -> u64 {
        0
    }

    #[inline]
    fn covers(&self, g: &CsrGraph, u: u32, v: u32) -> bool {
        closes_above(g, u, v)
    }

    /// `N(u)` past `u`: every probe is of `N(v)` past `v > u`, so it can
    /// only hit there, and the per-source bitmap covers that suffix alone.
    #[inline]
    fn source_list<'g>(&self, g: &'g CsrGraph, upper: &Box<[usize]>, u: u32) -> &'g [u32] {
        above(g, upper, u)
    }

    #[inline]
    fn visit<K: PairKernel, M: Meter>(
        &self,
        g: &CsrGraph,
        upper: &Box<[usize]>,
        acc: &mut u64,
        eid: usize,
        u: u32,
        v: u32,
        kernel: &mut K,
        meter: &mut M,
    ) {
        let (nu, nv) = (past_edge(g, eid, u, v), above(g, upper, v));
        *acc += kernel.count(nu, nv, meter) as u64;
    }

    fn merge(&self, into: &mut u64, from: u64) {
        *into += from;
    }

    fn finish(&self, _g: &CsrGraph, _upper: Box<[usize]>, acc: u64) -> u64 {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_intersect::{MergeKernel, NullMeter};

    fn run(g: &CsrGraph) -> u64 {
        let w = TriangleWorkload;
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

    #[test]
    fn triangle_with_pendant_edges() {
        // Triangle 0-1-2 plus the path 2-3-4: only (0, 1) has both lists
        // reaching past its upper endpoint, and the count is exactly 1.
        let g = CsrGraph::from_undirected_pairs(
            5,
            [(0u32, 1), (0, 2), (1, 2), (2, 3), (3, 4)].into_iter(),
        );
        let w = TriangleWorkload;
        assert!(!w.covers(&g, 3, 4), "N(4) ends below 4");
        assert!(!w.covers(&g, 1, 2), "N(1) ends at 2");
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
