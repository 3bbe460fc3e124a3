//! Oriented suffixes: the parts of neighbour lists above a vertex.
//!
//! The triangle and k-clique workloads intersect only these suffixes, so a
//! clique `v1 < v2 < … < vk` is found once, at its canonical edge
//! `(v1, v2)`, and never re-found from its other edges. Orientation is by
//! vertex id; under the degree-descending relabel (the default for BMP
//! runs) a higher id never has a higher degree, so the suffixes are the
//! short, low-degree ends of the lists.

use cnc_graph::CsrGraph;

/// For each vertex `w`, the CSR offset of its first neighbour above `w`,
/// so that `N(w)` past `w` is `dst[upper[w] .. offsets[w + 1]]`. One binary
/// search per vertex: O(|V| log d), built once per pass.
pub(crate) fn upper_index(g: &CsrGraph) -> Box<[usize]> {
    let dst = g.dst();
    g.offsets()
        .windows(2)
        .enumerate()
        .map(|(w, run)| run[0] + dst[run[0]..run[1]].partition_point(|&x| x as usize <= w))
        .collect()
}

/// `N(w)` past `w`, read from [`upper_index`].
#[inline]
pub(crate) fn above<'g>(g: &'g CsrGraph, upper: &[usize], w: u32) -> &'g [u32] {
    &g.dst()[upper[w as usize]..g.offsets()[w as usize + 1]]
}

/// `N(u)` past `v` for the canonical edge `(u, v)` at edge offset `eid`:
/// the rest of `u`'s ascending run after the edge's own slot. Both
/// workloads run only over the edge range, whose items are edge offsets.
#[inline]
pub(crate) fn past_edge(g: &CsrGraph, eid: usize, u: u32, v: u32) -> &[u32] {
    debug_assert!(
        g.dst()[eid] == v,
        "item {eid} is not the offset of edge ({u}, {v})"
    );
    &g.dst()[eid + 1..g.offsets()[u as usize + 1]]
}

/// Whether the canonical pair `(u, v)` can close a clique above `v`: both
/// `N(u)` and `N(v)` must reach past `v`. O(1): each run's last entry.
#[inline]
pub(crate) fn closes_above(g: &CsrGraph, u: u32, v: u32) -> bool {
    let reaches_past_v = |w: u32| g.neighbors(w).last().is_some_and(|&x| x > v);
    reaches_past_v(u) && reaches_past_v(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffixes_start_past_their_vertex() {
        // 0-1, 0-2, 0-3, 1-2, 2-3 plus isolated vertex 4.
        let g = CsrGraph::from_undirected_pairs(
            5,
            [(0u32, 1), (0, 2), (0, 3), (1, 2), (2, 3)].into_iter(),
        );
        let upper = upper_index(&g);
        assert_eq!(upper.len(), g.num_vertices());
        assert_eq!(above(&g, &upper, 0), &[1, 2, 3]);
        assert_eq!(above(&g, &upper, 2), &[3]);
        assert!(above(&g, &upper, 3).is_empty());
        assert!(above(&g, &upper, 4).is_empty());
        let e01 = g.edge_offset(0, 1).unwrap();
        assert_eq!(past_edge(&g, e01, 0, 1), &[2, 3]);
        let e23 = g.edge_offset(2, 3).unwrap();
        assert!(past_edge(&g, e23, 2, 3).is_empty());
        assert!(closes_above(&g, 0, 1), "0 and 1 both reach 2");
        assert!(!closes_above(&g, 1, 2), "N(1) ends at 2");
        assert!(!closes_above(&g, 2, 3), "N(3) ends at 2");
    }
}
