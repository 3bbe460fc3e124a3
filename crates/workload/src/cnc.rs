//! The paper's workload: all-edge common neighbor counting.

use cnc_graph::CsrGraph;
use cnc_intersect::{Meter, PairKernel};

use crate::{ScatterVec, Workload};

/// All-edge common neighbor counting: `cnt[e(u,v)] = |N(u) ∩ N(v)|` for
/// every directed edge slot, with the symmetric-assignment mirror
/// (`cnt[e(v,u)] ← cnt[e(u,v)]`, computed once per canonical pair).
/// The mirror slot comes from the graph's reverse-edge index, metered as
/// one streamed 4-byte load beside the two 4-byte count stores.
///
/// Shared state is the full per-edge [`ScatterVec`]; the per-worker
/// accumulator is empty. Every canonical pair is covered, so the source
/// pricing is the kernel model's, unchanged — the refactor's
/// byte-identity guarantee rests on this implementation being the old
/// driver body verbatim.
#[derive(Debug, Clone, Copy, Default)]
pub struct CncWorkload;

impl Workload for CncWorkload {
    type Shared = ScatterVec;
    type Accum = ();
    type Output = Vec<u32>;

    fn new_shared(&self, g: &CsrGraph) -> ScatterVec {
        ScatterVec::new(g.num_directed_edges())
    }

    fn new_accum(&self, _g: &CsrGraph) {}

    #[inline]
    fn visit<K: PairKernel, M: Meter>(
        &self,
        g: &CsrGraph,
        shared: &ScatterVec,
        _acc: &mut (),
        eid: usize,
        u: u32,
        v: u32,
        kernel: &mut K,
        meter: &mut M,
    ) {
        let c = kernel.count(g.neighbors(u), g.neighbors(v), meter);
        shared.set(eid, c);
        shared.set(g.reverse_offset(eid), c);
        meter.seq_bytes(4); // the u32 rev[eid] load, streamed with the edge walk
        meter.write_bytes(8); // the two count stores
    }

    fn merge(&self, _into: &mut (), _from: ()) {}

    fn finish(&self, _g: &CsrGraph, shared: ScatterVec, _acc: ()) -> Vec<u32> {
        shared.into_vec()
    }
}

/// Common-neighbor counts of an explicit pair list — a point-query batch:
/// pair `i`'s `|N(u) ∩ N(v)|` lands in slot `i` of the output, counted as
/// given (no canonicalization, no mirror). The loop walks the list in its
/// source-grouped order, so per-source kernel state is built once per
/// group exactly as in a bulk pass.
#[derive(Debug, Clone, Copy)]
pub struct PairCountWorkload {
    len: usize,
}

impl PairCountWorkload {
    /// A workload over a list of `len` pairs.
    pub fn new(len: usize) -> Self {
        Self { len }
    }
}

impl Workload for PairCountWorkload {
    type Shared = ScatterVec;
    type Accum = ();
    type Output = Vec<u32>;

    fn new_shared(&self, _g: &CsrGraph) -> ScatterVec {
        ScatterVec::new(self.len)
    }

    fn new_accum(&self, _g: &CsrGraph) {}

    #[inline]
    fn visit<K: PairKernel, M: Meter>(
        &self,
        g: &CsrGraph,
        shared: &ScatterVec,
        _acc: &mut (),
        item: usize,
        u: u32,
        v: u32,
        kernel: &mut K,
        meter: &mut M,
    ) {
        shared.set(item, kernel.count(g.neighbors(u), g.neighbors(v), meter));
    }

    fn merge(&self, _into: &mut (), _from: ()) {}

    fn finish(&self, _g: &CsrGraph, shared: ScatterVec, _acc: ()) -> Vec<u32> {
        shared.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_intersect::{CountingMeter, MergeKernel, NullMeter};

    fn two_triangles() -> CsrGraph {
        // 0-1-2 triangle and 1-2-3 triangle sharing edge (1,2).
        CsrGraph::from_undirected_pairs(4, [(0u32, 1), (0, 2), (1, 2), (1, 3), (2, 3)].into_iter())
    }

    #[test]
    fn visit_mirrors_both_slots() {
        let g = two_triangles();
        let w = CncWorkload;
        let shared = w.new_shared(&g);
        // CNC's accumulator is (), but the test drives the generic API.
        #[allow(clippy::let_unit_value)]
        let mut acc = w.new_accum(&g);
        let mut kernel = MergeKernel;
        for (eid, u, v) in g.iter_edges() {
            if u < v {
                assert!(w.covers(&g, u, v));
                w.visit(
                    &g,
                    &shared,
                    &mut acc,
                    eid,
                    u,
                    v,
                    &mut kernel,
                    &mut NullMeter,
                );
            }
        }
        let counts = w.finish(&g, shared, acc);
        for (eid, ..) in g.iter_edges() {
            let rev = g.reverse_offset(eid);
            assert_eq!(counts[eid], counts[rev], "mirror slot must match");
        }
        // Edge (1,2) closes both triangles.
        let e12 = g.edge_offset(1, 2).unwrap();
        assert_eq!(counts[e12], 2);
    }

    #[test]
    fn visit_meters_the_kernel_plus_one_streamed_mirror_load() {
        let g = two_triangles();
        let e12 = g.edge_offset(1, 2).unwrap();
        let mut visited = CountingMeter::new();
        CncWorkload.visit(
            &g,
            &CncWorkload.new_shared(&g),
            &mut (),
            e12,
            1,
            2,
            &mut MergeKernel,
            &mut visited,
        );
        let mut want = CountingMeter::new();
        MergeKernel.count(g.neighbors(1), g.neighbors(2), &mut want);
        want.counts.seq_bytes += 4;
        want.counts.write_bytes += 8;
        assert_eq!(visited.counts, want.counts);
    }
}
