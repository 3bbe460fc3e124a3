//! Degree-descending graph reordering (Section 2.1).
//!
//! BMP's per-intersection complexity bound `O(min(d_u, d_v))` relies on the
//! invariant `u < v ⇒ d_u ≥ d_v`: the bitmap is always built for the
//! larger-degree endpoint and the smaller neighbor list is the probe side.
//! The relabeling sorts vertices by descending degree (ties broken by old
//! id, making it deterministic) and remaps every edge —
//! `O(|V| log |V| + |E|)` exactly as the paper states.

use crate::csr::CsrGraph;

/// The result of a degree-descending relabel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reordered {
    /// The relabeled graph (new ids).
    pub graph: CsrGraph,
    /// `old_to_new[old_id] = new_id`.
    pub old_to_new: Vec<u32>,
    /// `new_to_old[new_id] = old_id`.
    pub new_to_old: Vec<u32>,
}

impl Reordered {
    /// Translate an old vertex id to the relabeled id.
    pub fn to_new(&self, old: u32) -> u32 {
        self.old_to_new[old as usize]
    }

    /// Translate a relabeled id back to the original id.
    pub fn to_old(&self, new: u32) -> u32 {
        self.new_to_old[new as usize]
    }
}

/// The degree-descending relabel's `new → old` table: ids `0..n` by
/// descending `degree`, ascending old id on ties (deterministic). Both the
/// in-memory relabel and the streaming writer ([`crate::stream`]) take their
/// order from here.
pub(crate) fn degree_descending_order<D: Ord>(n: u32, degree: impl Fn(u32) -> D) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by(|&a, &b| degree(b).cmp(&degree(a)).then_with(|| a.cmp(&b)));
    order
}

/// The inverse of a relabel table: `old_to_new[new_to_old[i]] = i`.
pub(crate) fn invert(new_to_old: &[u32]) -> Vec<u32> {
    let mut old_to_new = vec![0u32; new_to_old.len()];
    for (new_id, &old_id) in (0u32..).zip(new_to_old) {
        old_to_new[old_id as usize] = new_id;
    }
    old_to_new
}

/// Relabel so vertex ids are in descending degree order.
pub fn degree_descending(g: &CsrGraph) -> Reordered {
    let n = g.num_vertices();
    let new_to_old = degree_descending_order(n as u32, |u| g.degree(u));
    let old_to_new = invert(&new_to_old);
    // Remap edges; build the CSR from undirected pairs (u < v once each).
    let pairs = g
        .iter_edges()
        .filter(|&(_, u, v)| u < v)
        .map(|(_, u, v)| (old_to_new[u as usize], old_to_new[v as usize]));
    let graph = CsrGraph::from_undirected_pairs(n, pairs);
    Reordered {
        graph,
        old_to_new,
        new_to_old,
    }
}

/// Check the BMP invariant on a graph: `u < v ⇒ d_u ≥ d_v`.
pub fn is_degree_descending(g: &CsrGraph) -> bool {
    (1..g.num_vertices() as u32).all(|u| g.degree(u - 1) >= g.degree(u))
}

/// Core numbers of every vertex (k-core decomposition) via the linear-time
/// bucket peeling of Batagelj–Zaveršnik: repeatedly remove the vertex of
/// minimum remaining degree; a vertex's core number is its degree at
/// removal time (made monotone).
pub fn core_numbers(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = (0..n as u32).map(|u| g.degree(u)).collect();
    let max_d = degree.iter().copied().max().unwrap_or(0);
    // Bucket sort vertices by degree.
    let mut bin = vec![0usize; max_d + 2];
    for &d in &degree {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut vert = vec![0u32; n];
    for u in 0..n {
        let p = bin[degree[u]];
        pos[u] = p;
        vert[p] = u as u32;
        bin[degree[u]] += 1;
    }
    // Restore bin starts.
    for d in (1..bin.len()).rev() {
        bin[d] = bin[d - 1];
    }
    bin[0] = 0;
    // Peel.
    let mut core = vec![0u32; n];
    for i in 0..n {
        let u = vert[i];
        core[u as usize] = degree[u as usize] as u32;
        for &v in g.neighbors(u) {
            let v = v as usize;
            if degree[v] > degree[u as usize] {
                // Move v one bucket down: swap with the first vertex of its
                // current bucket.
                let dv = degree[v];
                let pv = pos[v];
                let pw = bin[dv];
                let w = vert[pw];
                if v as u32 != w {
                    vert[pv] = w;
                    vert[pw] = v as u32;
                    pos[v] = pw;
                    pos[w as usize] = pv;
                }
                bin[dv] += 1;
                degree[v] -= 1;
            }
        }
    }
    core
}

/// The graph's degeneracy: the maximum core number.
pub fn degeneracy(g: &CsrGraph) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

/// Relabel by *descending core number* (ties by descending degree, then old
/// id) — an alternative preprocessing for BMP: core-descending order puts
/// the densest subgraph first, which clusters common-neighbor bit positions
/// even more tightly than plain degree order on some graphs. Compared in
/// the `ablation_reorder` bench.
pub fn core_descending(g: &CsrGraph) -> Reordered {
    let n = g.num_vertices();
    let core = core_numbers(g);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        core[b as usize]
            .cmp(&core[a as usize])
            .then_with(|| g.degree(b).cmp(&g.degree(a)))
            .then_with(|| a.cmp(&b))
    });
    let new_to_old = order;
    let old_to_new = invert(&new_to_old);
    let pairs = g
        .iter_edges()
        .filter(|&(_, u, v)| u < v)
        .map(|(_, u, v)| (old_to_new[u as usize], old_to_new[v as usize]));
    let graph = CsrGraph::from_undirected_pairs(n, pairs);
    Reordered {
        graph,
        old_to_new,
        new_to_old,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::generators;

    #[test]
    fn relabel_star_graph() {
        // Star centered at 4: vertex 4 has degree 4, others degree 1.
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs([(4, 0), (4, 1), (4, 2), (4, 3)]));
        assert!(!is_degree_descending(&g));
        let r = degree_descending(&g);
        assert!(is_degree_descending(&r.graph));
        assert_eq!(r.to_new(4), 0, "hub becomes vertex 0");
        assert_eq!(r.to_old(0), 4);
        r.graph.validate().unwrap();
    }

    #[test]
    fn permutation_is_bijective() {
        let el = generators::gnm(200, 800, 7);
        let g = CsrGraph::from_edge_list(&el);
        let r = degree_descending(&g);
        let mut seen = [false; 200];
        for old in 0..200u32 {
            let new = r.to_new(old);
            assert!(!seen[new as usize]);
            seen[new as usize] = true;
            assert_eq!(r.to_old(new), old);
        }
    }

    #[test]
    fn degrees_preserved_under_relabel() {
        let el = generators::chung_lu(300, 8.0, 2.3, 99);
        let g = CsrGraph::from_edge_list(&el);
        let r = degree_descending(&g);
        assert!(is_degree_descending(&r.graph));
        for old in 0..g.num_vertices() as u32 {
            assert_eq!(g.degree(old), r.graph.degree(r.to_new(old)));
        }
        assert_eq!(g.num_directed_edges(), r.graph.num_directed_edges());
    }

    #[test]
    fn adjacency_preserved_under_relabel() {
        let el = generators::gnm(50, 120, 3);
        let g = CsrGraph::from_edge_list(&el);
        let r = degree_descending(&g);
        for (_, u, v) in g.iter_edges() {
            assert!(
                r.graph.edge_offset(r.to_new(u), r.to_new(v)).is_some(),
                "edge ({u},{v}) lost"
            );
        }
    }

    #[test]
    fn already_ordered_graph_keeps_invariant() {
        // Path 0-1-2: degrees 1,2,1 → not descending; after relabel it is.
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs([(0, 1), (1, 2)]));
        let r = degree_descending(&g);
        assert!(is_degree_descending(&r.graph));
        // Relabeling an already-ordered graph is the identity.
        let r2 = degree_descending(&r.graph);
        assert_eq!(r2.graph, r.graph);
        assert!(r2
            .old_to_new
            .iter()
            .enumerate()
            .all(|(i, &x)| i as u32 == x));
    }

    #[test]
    fn empty_graph_relabel() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        let r = degree_descending(&g);
        assert_eq!(r.graph.num_vertices(), 0);
        assert!(core_numbers(&g).is_empty());
        assert_eq!(degeneracy(&g), 0);
    }

    #[test]
    fn core_numbers_on_known_graphs() {
        // K5: every vertex has core number 4.
        let g = CsrGraph::from_edge_list(&generators::complete(5));
        assert!(core_numbers(&g).iter().all(|&c| c == 4));
        assert_eq!(degeneracy(&g), 4);
        // Path: all cores 1.
        let p = CsrGraph::from_edge_list(&generators::path(10));
        assert!(core_numbers(&p).iter().all(|&c| c == 1));
        // Star: hub and leaves all core 1.
        let s = CsrGraph::from_edge_list(&generators::star(10));
        assert!(core_numbers(&s).iter().all(|&c| c == 1));
    }

    #[test]
    fn core_numbers_clique_with_tail() {
        // K4 {0..3} plus path 3-4-5: clique cores 3, tail cores 1.
        let mut el = generators::complete(4);
        el.push(3, 4);
        el.push(4, 5);
        let g = CsrGraph::from_edge_list(&el);
        let core = core_numbers(&g);
        assert_eq!(&core[0..4], &[3, 3, 3, 3]);
        assert_eq!(&core[4..6], &[1, 1]);
    }

    #[test]
    fn core_numbers_match_peeling_oracle() {
        // Oracle: iterative definition — the k-core is what survives
        // repeatedly deleting vertices of degree < k.
        let g = CsrGraph::from_edge_list(&generators::chung_lu(120, 8.0, 2.2, 6));
        let fast = core_numbers(&g);
        let n = g.num_vertices();
        for k in 1..=degeneracy(&g) {
            let mut alive = vec![true; n];
            loop {
                let mut changed = false;
                for u in 0..n as u32 {
                    if !alive[u as usize] {
                        continue;
                    }
                    let d = g
                        .neighbors(u)
                        .iter()
                        .filter(|&&v| alive[v as usize])
                        .count();
                    if d < k as usize {
                        alive[u as usize] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for u in 0..n {
                assert_eq!(alive[u], fast[u] >= k, "k={k} u={u}");
            }
        }
    }

    #[test]
    fn core_descending_is_valid_permutation() {
        let g = CsrGraph::from_edge_list(&generators::hub_web(200, 6.0, 2, 0.4, 7));
        let r = core_descending(&g);
        r.graph.validate().unwrap();
        // Degrees preserved as a multiset.
        let mut before: Vec<usize> = (0..g.num_vertices() as u32).map(|u| g.degree(u)).collect();
        let mut after: Vec<usize> = (0..g.num_vertices() as u32)
            .map(|u| r.graph.degree(u))
            .collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        // Core numbers are descending in the new id order.
        let new_core = core_numbers(&r.graph);
        assert!(new_core.windows(2).all(|w| w[0] >= w[1]));
    }
}
