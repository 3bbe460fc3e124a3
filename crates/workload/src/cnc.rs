//! The paper's workload: all-edge common neighbor counting.

use cnc_graph::CsrGraph;
use cnc_intersect::{Meter, PairKernel};

use crate::{ScatterVec, Workload};

/// Cost of the `e(v,u)` mirror lookup (the symmetric-assignment technique),
/// reported to the meter.
///
/// Prepared graphs carry a reverse-edge index, making the lookup a single
/// streamed load; graphs without one fall back to a binary search over
/// `N(v)` whose probes hit random cache lines.
#[inline]
pub fn meter_reverse<M: Meter>(has_rev: bool, dv: usize, meter: &mut M) {
    if has_rev {
        meter.seq_bytes(8); // one rev[eid] load, streamed with the edge walk
    } else {
        let probes = (dv.max(1)).ilog2() as u64 + 1;
        meter.scalar_ops(probes);
        meter.rand_accesses(probes);
    }
    meter.write_bytes(8); // the two count stores
}

/// All-edge common neighbor counting: `cnt[e(u,v)] = |N(u) ∩ N(v)|` for
/// every directed edge slot, with the symmetric-assignment mirror
/// (`cnt[e(v,u)] ← cnt[e(u,v)]`, computed once per canonical pair).
///
/// Shared state is the full per-edge [`ScatterVec`]; the per-task
/// accumulator is empty. Every canonical pair is covered, so the balanced
/// schedule prices sources exactly as it always has — the refactor's
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
        shared.set(g.reverse_offset(u, eid), c);
        meter_reverse(g.has_reverse_index(), g.degree(v), meter);
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
        for (eid, u, _) in g.iter_edges() {
            let rev = g.reverse_offset(u, eid);
            assert_eq!(counts[eid], counts[rev], "mirror slot must match");
        }
        // Edge (1,2) closes both triangles.
        let e12 = g.edge_offset(1, 2).unwrap();
        assert_eq!(counts[e12], 2);
    }

    #[test]
    fn meter_reverse_paths() {
        let mut with_rev = CountingMeter::new();
        meter_reverse(true, 1024, &mut with_rev);
        assert_eq!(with_rev.counts.rand_accesses, 0);
        assert_eq!(with_rev.counts.seq_bytes, 8);
        let mut without = CountingMeter::new();
        meter_reverse(false, 1024, &mut without);
        assert_eq!(without.counts.rand_accesses, 11);
    }
}
