//! k-truss decomposition seeded by the all-edge common neighbor counts.
//!
//! The *support* of an edge is the number of triangles it participates in —
//! exactly `cnt[e(u,v)]` for adjacent pairs, i.e. the paper's output. The
//! k-truss is the maximal subgraph in which every edge has support ≥ k − 2;
//! the *trussness* of an edge is the largest k whose truss contains it.
//! This module implements the standard peeling algorithm (Wang & Cheng,
//! PVLDB 2012): repeatedly remove the edge of minimum support and decrement
//! the support of the edges completing triangles with it.
//!
//! A natural "future work" layer on the paper: once the counts exist, the
//! entire decomposition costs `O(Σ cnt)` extra.

use std::collections::BTreeSet;

use cnc_graph::CsrGraph;
use cnc_intersect::{merge_collect, NullMeter};

/// The truss decomposition of a graph.
#[derive(Debug, Clone)]
pub struct TrussResult {
    /// Trussness per *directed edge slot* (both slots of an undirected edge
    /// carry the same value). An edge in no triangle has trussness 2.
    pub trussness: Vec<u32>,
    /// The maximum trussness in the graph.
    pub max_k: u32,
}

impl TrussResult {
    /// Number of undirected edges with trussness ≥ k.
    pub fn truss_edge_count(&self, g: &CsrGraph, k: u32) -> usize {
        g.iter_edges()
            .filter(|&(eid, u, v)| u < v && self.trussness[eid] >= k)
            .count()
    }
}

/// Why a truss decomposition rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrussError {
    /// The counts slice does not align with the graph's directed edge slots.
    CountsLengthMismatch {
        /// `g.num_directed_edges()`.
        expected: usize,
        /// `counts.len()` as passed.
        got: usize,
    },
    /// A triangle discovered during peeling references an edge the CSR does
    /// not store — the graph's adjacency is internally inconsistent.
    MissingTriangleEdge {
        /// Source endpoint of the missing edge.
        u: u32,
        /// Destination endpoint of the missing edge.
        v: u32,
    },
}

impl std::fmt::Display for TrussError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrussError::CountsLengthMismatch { expected, got } => write!(
                f,
                "counts length {got} does not match {expected} directed edge slots"
            ),
            TrussError::MissingTriangleEdge { u, v } => write!(
                f,
                "triangle references edge ({u}, {v}) missing from the CSR adjacency"
            ),
        }
    }
}

impl std::error::Error for TrussError {}

/// Compute the truss decomposition, seeded with precomputed counts
/// (must be the common neighbor counts of `g`).
///
/// Fails with [`TrussError::CountsLengthMismatch`] when `counts` is not
/// aligned to `g`'s directed edge slots.
pub fn truss_decomposition(g: &CsrGraph, counts: &[u32]) -> Result<TrussResult, TrussError> {
    if counts.len() != g.num_directed_edges() {
        return Err(TrussError::CountsLengthMismatch {
            expected: g.num_directed_edges(),
            got: counts.len(),
        });
    }
    let m = g.num_directed_edges();
    // Work on canonical (u < v) edges; map both slots at the end.
    let mut support: Vec<i64> = counts.iter().map(|&c| c as i64).collect();
    let mut removed = vec![false; m];
    let mut trussness = vec![0u32; m];

    // Min-heap by support via an ordered set of (support, eid) for the
    // canonical slots. Lazy deletion is avoided by keeping the set exact.
    let mut queue: BTreeSet<(i64, usize)> = g
        .iter_edges()
        .filter(|&(_, u, v)| u < v)
        .map(|(eid, _, _)| (support[eid], eid))
        .collect();

    let mut scratch = Vec::new();
    let mut k = 2u32;
    while let Some(&(s, eid)) = queue.iter().next() {
        queue.remove(&(s, eid));
        // Peeling: the next edge's truss level is max(k, support + 2),
        // saturated so corrupt (e.g. u32::MAX) input supports cannot
        // overflow — garbage counts give garbage levels, never a panic.
        let level = (s.max(0) as u64 + 2).min(u32::MAX as u64) as u32;
        k = k.max(level);
        let mut hint = 0u32;
        let u = g.find_src(eid, &mut hint);
        let v = g.dst()[eid];
        trussness[eid] = k;
        removed[eid] = true;
        let rev = g.reverse_offset(eid);
        trussness[rev] = k;
        removed[rev] = true;

        // Every still-present triangle (u, v, w) loses this edge: decrement
        // the supports of (u, w) and (v, w).
        merge_collect(g.neighbors(u), g.neighbors(v), &mut scratch, &mut NullMeter);
        for &w in &scratch {
            let euw = g
                .edge_offset(u, w)
                .ok_or(TrussError::MissingTriangleEdge { u, v: w })?;
            let evw = g
                .edge_offset(v, w)
                .ok_or(TrussError::MissingTriangleEdge { u: v, v: w })?;
            if removed[euw] || removed[evw] {
                continue;
            }
            for e in [euw, evw] {
                let canon = canonical_slot(g, e);
                if queue.remove(&(support[canon], canon)) {
                    support[canon] -= 1;
                    queue.insert((support[canon], canon));
                }
            }
        }
    }
    let max_k = trussness.iter().copied().max().unwrap_or(2);
    Ok(TrussResult { trussness, max_k })
}

/// The canonical (u < v) slot of an edge given either slot.
fn canonical_slot(g: &CsrGraph, eid: usize) -> usize {
    let mut hint = 0u32;
    let u = g.find_src(eid, &mut hint);
    let v = g.dst()[eid];
    if u < v {
        eid
    } else {
        g.reverse_offset(eid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_counts;
    use cnc_graph::{generators, EdgeList};

    fn decompose(g: &CsrGraph) -> TrussResult {
        let counts = reference_counts(g);
        truss_decomposition(g, &counts).unwrap()
    }

    /// Oracle: iterative peeling at each k level, straightforward version.
    fn oracle_trussness(g: &CsrGraph) -> Vec<u32> {
        let m = g.num_directed_edges();
        let mut alive = vec![true; m];
        let mut truss = vec![0u32; m];
        let support = |alive: &[bool], eid: usize, g: &CsrGraph| -> u32 {
            let mut hint = 0u32;
            let u = g.find_src(eid, &mut hint);
            let v = g.dst()[eid];
            let mut c = 0;
            for &w in g.neighbors(u) {
                if let (Some(e1), Some(e2)) = (g.edge_offset(u, w), g.edge_offset(v, w)) {
                    if alive[e1] && alive[e2] && w != v {
                        c += 1;
                    }
                }
            }
            c
        };
        let mut k = 2u32;
        while alive.iter().any(|&a| a) {
            loop {
                let victims: Vec<usize> = (0..m)
                    .filter(|&e| alive[e] && support(&alive, e, g) + 2 <= k)
                    .collect();
                if victims.is_empty() {
                    break;
                }
                for e in victims {
                    alive[e] = false;
                    truss[e] = k;
                }
            }
            k += 1;
        }
        truss
    }

    #[test]
    fn complete_graph_trussness() {
        // Every edge of K_n has trussness n.
        for n in [3usize, 4, 5, 6] {
            let g = CsrGraph::from_edge_list(&generators::complete(n));
            let r = decompose(&g);
            assert!(
                r.trussness.iter().all(|&t| t == n as u32),
                "K{n}: {:?}",
                r.trussness
            );
            assert_eq!(r.max_k, n as u32);
        }
    }

    #[test]
    fn triangle_free_graphs_are_2_trusses() {
        for el in [generators::path(10), generators::star(10)] {
            let g = CsrGraph::from_edge_list(&el);
            let r = decompose(&g);
            assert!(r.trussness.iter().all(|&t| t == 2));
        }
    }

    #[test]
    fn clique_with_tail() {
        // K5 plus a pendant edge: clique edges trussness 5, pendant 2.
        let mut el = generators::complete(5);
        el.push(0, 5);
        let g = CsrGraph::from_edge_list(&el);
        let r = decompose(&g);
        let pendant = g.edge_offset(0, 5).unwrap();
        assert_eq!(r.trussness[pendant], 2);
        let clique_edge = g.edge_offset(1, 2).unwrap();
        assert_eq!(r.trussness[clique_edge], 5);
        assert_eq!(r.truss_edge_count(&g, 5), 10);
        assert_eq!(r.truss_edge_count(&g, 2), 11);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..5u64 {
            let g = CsrGraph::from_edge_list(&generators::gnm(40, 160, seed));
            let fast = decompose(&g);
            let slow = oracle_trussness(&g);
            assert_eq!(fast.trussness, slow, "seed={seed}");
        }
        let g = CsrGraph::from_edge_list(&generators::chung_lu(60, 8.0, 2.2, 9));
        assert_eq!(decompose(&g).trussness, oracle_trussness(&g));
    }

    #[test]
    fn both_slots_carry_same_trussness() {
        let g = CsrGraph::from_edge_list(&generators::gnm(50, 200, 3));
        let r = decompose(&g);
        for (eid, ..) in g.iter_edges() {
            let rev = g.reverse_offset(eid);
            assert_eq!(r.trussness[eid], r.trussness[rev]);
        }
    }

    #[test]
    fn inconsistent_counts_surface_typed_errors_not_panics() {
        let g = CsrGraph::from_edge_list(&generators::complete(5));
        let m = g.num_directed_edges();
        // Misaligned counts are rejected with the length mismatch.
        let err = truss_decomposition(&g, &vec![0u32; m + 3]).unwrap_err();
        assert_eq!(
            err,
            TrussError::CountsLengthMismatch {
                expected: m,
                got: m + 3
            }
        );
        assert!(err.to_string().contains("directed edge slots"));
        // Garbage counts of the right length are not detectable up front;
        // the peel must still terminate without panicking (supports only
        // seed the removal order, the triangles come from the adjacency).
        let garbage = vec![u32::MAX; m];
        let r = truss_decomposition(&g, &garbage).expect("well-formed CSR never loses a triangle");
        assert_eq!(r.trussness.len(), m);
        // The missing-edge variant renders both endpoints.
        let msg = TrussError::MissingTriangleEdge { u: 7, v: 9 }.to_string();
        assert!(msg.contains("(7, 9)"), "{msg}");
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        let r = decompose(&g);
        assert!(r.trussness.is_empty());
        assert_eq!(r.max_k, 2);
    }
}
