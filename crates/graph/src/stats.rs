//! Graph statistics of the paper's evaluation setup.
//!
//! [`GraphStats`] reproduces the columns of **Table 1** (|V|, |E|, average
//! and maximum degree); [`skew_percentage`] reproduces **Table 2** — the
//! fraction of set intersections in the all-edge counting that are *highly
//! skewed* (`d_u / d_v > 50` supposing `d_u > d_v`), the statistic that
//! predicts whether pivot-skip pays off on a dataset.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use crate::csr::CsrGraph;

/// The skew-ratio threshold used by Table 2 and as the MPS default.
pub const SKEW_THRESHOLD: u32 = 50;

/// Table 1 row: basic size and degree statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Number of vertices `|V|`.
    pub num_vertices: usize,
    /// Number of directed edge slots `|E|` (2 × undirected; the paper's
    /// Table 1 counts the CSR entries of the symmetrized graph).
    pub num_edges: usize,
    /// Average degree.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
}

impl GraphStats {
    /// Compute the statistics of `g`.
    pub fn of(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let m = g.num_directed_edges();
        let max_degree = g.vertex_ids().map(|u| g.degree(u)).max().unwrap_or(0);
        Self {
            num_vertices: n,
            num_edges: m,
            avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            max_degree,
        }
    }
}

/// Table 2's running tally over the all-edge counting's intersections (one
/// per undirected edge, `u < v`): how many were seen and how many have a
/// degree ratio above the threshold. [`skew_percentage`] feeds it from a CSR
/// and the streaming writer ([`crate::stream`]) from its placement pass, so
/// both store the same percentage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SkewTally {
    threshold: usize,
    total: u64,
    skewed: u64,
}

impl SkewTally {
    pub(crate) fn new(threshold: u32) -> Self {
        Self {
            threshold: threshold as usize,
            total: 0,
            skewed: 0,
        }
    }

    /// Count the intersection of one canonical pair by its endpoints'
    /// degrees.
    #[inline]
    pub(crate) fn add(&mut self, du: usize, dv: usize) {
        self.total += 1;
        let (s, l) = if du < dv { (du, dv) } else { (dv, du) };
        if s > 0 && l > self.threshold * s {
            self.skewed += 1;
        }
    }

    /// The skewed share in percent (0 when no pair was counted).
    pub(crate) fn percentage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.skewed as f64 / self.total as f64
        }
    }
}

/// Table 2: percentage of the intersections performed by the all-edge
/// counting (one per undirected edge, `u < v`) whose degree ratio exceeds
/// `threshold`.
pub fn skew_percentage(g: &CsrGraph, threshold: u32) -> f64 {
    let mut tally = SkewTally::new(threshold);
    for u in g.vertex_ids() {
        let du = g.degree(u);
        for &v in g.neighbors(u) {
            if u < v {
                tally.add(du, g.degree(v));
            }
        }
    }
    tally.percentage()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::generators;

    #[test]
    fn stats_of_star() {
        let g = crate::CsrGraph::from_edge_list(&generators::star(11));
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 11);
        assert_eq!(s.num_edges, 20);
        assert_eq!(s.max_degree, 10);
        assert!((s.avg_degree - 20.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty() {
        let g = crate::CsrGraph::from_edge_list(&EdgeList::new(0));
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.max_degree, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn skew_zero_on_regular_graph() {
        let g = crate::CsrGraph::from_edge_list(&generators::complete(10));
        assert_eq!(skew_percentage(&g, 50), 0.0);
    }

    #[test]
    fn skew_full_on_extreme_star_union() {
        // A hub of degree 200 attached to degree-1 leaves: every edge is a
        // (200 vs 1) intersection — ratio 200 > 50.
        let g = crate::CsrGraph::from_edge_list(&generators::star(201));
        assert_eq!(skew_percentage(&g, 50), 100.0);
        // With a threshold of 200 the ratio is no longer *strictly* greater.
        assert_eq!(skew_percentage(&g, 200), 0.0);
    }

    #[test]
    fn hub_web_more_skewed_than_gnm() {
        let web = crate::CsrGraph::from_edge_list(&generators::hub_web(2000, 6.0, 2, 0.5, 9));
        let uni = crate::CsrGraph::from_edge_list(&generators::gnm(2000, 6000, 9));
        assert!(
            skew_percentage(&web, 50) > skew_percentage(&uni, 50),
            "web-like graphs must show more degree skew"
        );
    }
}
