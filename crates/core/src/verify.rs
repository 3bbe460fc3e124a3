//! Independent verification of count arrays.

use cnc_graph::CsrGraph;

/// Reference counts via an independent two-pointer implementation
/// (`cnc_intersect::reference_count`), computed for every directed edge slot
/// directly and sequentially — no symmetric assignment, no skew handling,
/// no index, and no task runner shared with the engine it checks.
pub fn reference_counts(g: &CsrGraph) -> Vec<u32> {
    g.iter_edges()
        .map(|(_, u, v)| cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v)))
        .collect()
}

/// A verification failure: the first mismatching edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Edge offset that disagrees.
    pub eid: usize,
    /// Source vertex.
    pub u: u32,
    /// Destination vertex.
    pub v: u32,
    /// Count under test.
    pub got: u32,
    /// Reference count.
    pub want: u32,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cnt[e({}, {})] (offset {}) = {}, reference says {}",
            self.u, self.v, self.eid, self.got, self.want
        )
    }
}

impl std::error::Error for VerifyError {}

/// Check `counts` against the reference; `Ok` or the first mismatch.
pub fn verify_counts(g: &CsrGraph, counts: &[u32]) -> Result<(), VerifyError> {
    if counts.len() != g.num_directed_edges() {
        return Err(VerifyError {
            eid: usize::MAX,
            u: 0,
            v: 0,
            got: counts.len() as u32,
            want: g.num_directed_edges() as u32,
        });
    }
    let want = reference_counts(g);
    for (eid, u, v) in g.iter_edges() {
        if counts[eid] != want[eid] {
            return Err(VerifyError {
                eid,
                u,
                v,
                got: counts[eid],
                want: want[eid],
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_graph::{generators, EdgeList};

    #[test]
    fn reference_on_triangle() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs([(0, 1), (1, 2), (0, 2)]));
        let c = reference_counts(&g);
        assert!(c.iter().all(|&x| x == 1));
        assert!(verify_counts(&g, &c).is_ok());
    }

    #[test]
    fn detects_mismatch() {
        let g = CsrGraph::from_edge_list(&generators::complete(5));
        let mut c = reference_counts(&g);
        c[3] += 1;
        let err = verify_counts(&g, &c).unwrap_err();
        assert_eq!(err.eid, 3);
        assert_eq!(err.got, err.want + 1);
        assert!(err.to_string().contains("offset 3"));
    }

    #[test]
    fn detects_length_mismatch() {
        let g = CsrGraph::from_edge_list(&generators::path(4));
        assert!(verify_counts(&g, &[0, 0]).is_err());
    }
}
