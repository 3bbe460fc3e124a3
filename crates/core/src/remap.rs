//! Translating count arrays across graph relabelings.
//!
//! BMP's complexity bound requires running on a degree-descending-relabeled
//! graph (Section 2.1), but callers want counts indexed by *their* graph's
//! edge offsets. This module maps a count array computed on the relabeled
//! graph back to the original CSR's offsets.

use cnc_graph::{reorder::Reordered, CsrGraph};

/// The panic message for a relabel that does not describe `g`.
const MISMATCH: &str = "relabeled graph lost an edge";

/// Translate counts computed on `reordered.graph` back to edge offsets of
/// the original graph `g`: `out[e(y, x)] = counts[e(φ(y), φ(x))]`, exactly,
/// for any per-slot array (symmetric or not).
///
/// One `O(|V| + |E|)` transpose walk, no searches. Input ids `x` are
/// visited in ascending order; each slot `f` of the relabeled row `φ(x)`,
/// holding neighbour `a = φ(y)`, hands `counts[rev[f]]` — the value at the
/// mirror slot `e(φ(y), φ(x))` — to the next free slot of input row `y`.
/// Every input row therefore receives its neighbours `x` in ascending
/// order, which is the order of its sorted run, so a cursor seeded at
/// `offsets[y]` lands on `e(y, x)` each time. The mirror slots come from
/// the relabeled graph's reverse index, which every `CsrGraph` carries.
///
/// Panics if the relabel does not match `g`: each write checks
/// `dst[slot] == x` and every row's cursor must end at its row's end, one
/// comparison per edge and per vertex.
pub fn counts_to_original(g: &CsrGraph, reordered: &Reordered, counts: &[u32]) -> Vec<u32> {
    let h = &reordered.graph;
    assert_eq!(counts.len(), g.num_directed_edges());
    assert!(
        h.num_vertices() == g.num_vertices() && h.num_directed_edges() == counts.len(),
        "{MISMATCH}"
    );
    let rev = h.reverse_index();
    let (dst_g, dst_h) = (g.dst(), h.dst());
    let mut cursor = g.offsets()[..g.num_vertices()].to_vec();
    let mut out = vec![0u32; counts.len()];
    for x in 0..g.num_vertices() as u32 {
        let p = reordered.to_new(x);
        assert_eq!(reordered.to_old(p), x, "relabel is not a permutation");
        for f in h.offset_range(p) {
            let y = reordered.to_old(dst_h[f]) as usize;
            let slot = cursor[y];
            assert!(dst_g.get(slot) == Some(&x), "{MISMATCH}");
            out[slot] = counts[rev[f] as usize];
            cursor[y] = slot + 1;
        }
    }
    assert!(cursor[..] == g.offsets()[1..], "{MISMATCH}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_counts;
    use cnc_graph::{generators, reorder};

    #[test]
    fn remapped_counts_match_direct_reference() {
        let g = CsrGraph::from_edge_list(&generators::chung_lu(200, 9.0, 2.2, 11));
        let r = reorder::degree_descending(&g);
        // Counts computed in relabeled space...
        let relabeled_counts = reference_counts(&r.graph);
        // ...translated back...
        let got = counts_to_original(&g, &r, &relabeled_counts);
        // ...must equal counts computed directly on the original graph
        // (common neighbor counts are label-invariant).
        assert_eq!(got, reference_counts(&g));
    }

    #[test]
    fn identity_relabel_is_identity_map() {
        // A graph already in degree-descending order relabels to itself.
        let g = CsrGraph::from_edge_list(&generators::star(10));
        let r = reorder::degree_descending(&g);
        let counts: Vec<u32> = (0..g.num_directed_edges() as u32).collect();
        assert_eq!(counts_to_original(&g, &r, &counts), counts);
    }

    #[test]
    #[should_panic(expected = "relabeled graph lost an edge")]
    fn relabel_of_another_graph_fails_loudly() {
        // Two different 4-cycles: every degree, and so every row length,
        // agrees, so only the per-edge neighbour check can notice.
        let cycle = |order: [u32; 4]| {
            let pairs = (0..4).map(|i| (order[i], order[(i + 1) % 4]));
            CsrGraph::from_edge_list(&cnc_graph::EdgeList::from_pairs(pairs))
        };
        let g = cycle([0, 1, 2, 3]);
        let r = reorder::degree_descending(&cycle([0, 2, 1, 3]));
        counts_to_original(&g, &r, &[0; 8]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edge_list(&cnc_graph::EdgeList::new(0));
        let r = reorder::degree_descending(&g);
        assert!(counts_to_original(&g, &r, &[]).is_empty());
    }
}
