//! SCAN structural graph clustering (Xu et al., KDD 2007) on top of the
//! all-edge common neighbor counts.
//!
//! This is the application the paper's motivation and citations
//! ([8, 9, 21, 25–27]) compute the counts *for*: pSCAN, SCAN++, ppSCAN and
//! friends all reduce to (1) the per-edge structural similarities — which
//! are a direct function of `cnt[e(u,v)]` — and (2) a clustering sweep over
//! them. With the counts in hand, the sweep is linear in `|E|`.
//!
//! Definitions (with closed neighborhoods, as in the original paper):
//!
//! * structural similarity `σ(u,v) = (cnt[e(u,v)] + 2) / √((d_u+1)(d_v+1))`;
//! * `(ε, μ)`-core: a vertex with ≥ μ vertices in its closed ε-neighborhood
//!   (itself plus neighbors with σ ≥ ε);
//! * clusters: connected components of cores under σ ≥ ε edges, plus every
//!   non-core vertex ε-reachable from a core (a *border*);
//! * leftover vertices are **hubs** if they neighbor two or more different
//!   clusters, **outliers** otherwise.

use cnc_graph::CsrGraph;

use crate::analytics::CncView;

/// A vertex's role in the SCAN decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// An (ε, μ)-core inside a cluster.
    Core,
    /// A non-core member attached to a cluster.
    Border,
    /// Unclustered, bridging ≥ 2 clusters.
    Hub,
    /// Unclustered, bridging < 2 clusters.
    Outlier,
}

/// The result of a SCAN run.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Cluster id per vertex; `-1` for hubs/outliers.
    pub cluster: Vec<i32>,
    /// Role per vertex.
    pub role: Vec<Role>,
    /// Number of clusters found.
    pub num_clusters: usize,
    /// The parameters used.
    pub eps: f64,
    /// The parameters used.
    pub mu: usize,
}

impl ScanResult {
    /// Vertices of one cluster.
    pub fn members(&self, cluster_id: i32) -> Vec<u32> {
        self.cluster
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == cluster_id)
            .map(|(v, _)| v as u32)
            .collect()
    }

    /// Count of vertices with a given role.
    pub fn count_role(&self, role: Role) -> usize {
        self.role.iter().filter(|&&r| r == role).count()
    }
}

/// Why a SCAN parameterization was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanError {
    /// `eps` outside `(0, 1]`.
    EpsOutOfRange(f64),
    /// `mu < 2` (the core size counts the vertex itself).
    MuTooSmall(usize),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::EpsOutOfRange(eps) => {
                write!(f, "eps must be in (0, 1], got {eps}")
            }
            ScanError::MuTooSmall(mu) => write!(f, "mu must be at least 2, got {mu}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Run SCAN over a graph with precomputed counts.
///
/// `eps ∈ (0, 1]` is the similarity threshold, `mu ≥ 2` the core size
/// (counting the vertex itself, per the original definition).
///
/// # Errors
/// [`ScanError`] for an `eps` or `mu` out of range.
pub fn try_scan(view: &CncView<'_>, eps: f64, mu: usize) -> Result<ScanResult, ScanError> {
    if !(0.0..=1.0).contains(&eps) {
        return Err(ScanError::EpsOutOfRange(eps));
    }
    if mu < 2 {
        return Err(ScanError::MuTooSmall(mu));
    }
    let g: &CsrGraph = view.graph();
    let n = g.num_vertices();

    // ε-neighbor adjacency is reused several times: precompute the strong
    // flag per directed edge slot.
    let strong: Vec<bool> = (0..g.num_directed_edges())
        .map(|eid| view.structural_similarity(eid) >= eps)
        .collect();
    let strong_neighbors = |u: u32| {
        g.offset_range(u)
            .filter(|&eid| strong[eid])
            .map(|eid| g.dst()[eid])
    };

    let is_core: Vec<bool> = (0..n as u32)
        .map(|u| strong_neighbors(u).count() + 1 >= mu)
        .collect();

    // Clusters = components of cores over strong edges; borders attach.
    let mut cluster = vec![-1i32; n];
    let mut num_clusters = 0usize;
    for seed in 0..n as u32 {
        if !is_core[seed as usize] || cluster[seed as usize] != -1 {
            continue;
        }
        let id = num_clusters as i32;
        num_clusters += 1;
        cluster[seed as usize] = id;
        let mut stack = vec![seed];
        while let Some(u) = stack.pop() {
            debug_assert!(is_core[u as usize]);
            for v in strong_neighbors(u) {
                if cluster[v as usize] == -1 {
                    cluster[v as usize] = id;
                    if is_core[v as usize] {
                        stack.push(v);
                    }
                } else if is_core[v as usize] && cluster[v as usize] != id {
                    // Cannot happen: strong edges between cores merge
                    // components in one DFS.
                    debug_assert_eq!(cluster[v as usize], id);
                }
            }
        }
    }

    // Roles: hubs bridge ≥ 2 distinct clusters among their (plain)
    // neighbors, outliers fewer.
    let role: Vec<Role> = (0..n as u32)
        .map(|u| {
            if cluster[u as usize] != -1 {
                if is_core[u as usize] {
                    Role::Core
                } else {
                    Role::Border
                }
            } else {
                let mut seen: Option<i32> = None;
                let mut bridges = false;
                for &v in g.neighbors(u) {
                    let c = cluster[v as usize];
                    if c == -1 {
                        continue;
                    }
                    match seen {
                        None => seen = Some(c),
                        Some(s) if s != c => {
                            bridges = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if bridges {
                    Role::Hub
                } else {
                    Role::Outlier
                }
            }
        })
        .collect();

    Ok(ScanResult {
        cluster,
        role,
        num_clusters,
        eps,
        mu,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_counts;
    use cnc_graph::{generators, CsrGraph, EdgeList};

    fn run_scan(g: &CsrGraph, eps: f64, mu: usize) -> ScanResult {
        let counts = reference_counts(g);
        let view = CncView::new(g, &counts);
        try_scan(&view, eps, mu).expect("valid SCAN parameters")
    }

    #[test]
    fn two_cliques_two_clusters() {
        // Two K5s joined by one bridge edge.
        let g = CsrGraph::from_edge_list(&generators::clique_chain(2, 5));
        let r = run_scan(&g, 0.7, 3);
        assert_eq!(r.num_clusters, 2);
        // Every clique member lands in its clique's cluster.
        for v in 0..5 {
            assert_eq!(r.cluster[v], r.cluster[0]);
        }
        for v in 5..10 {
            assert_eq!(r.cluster[v], r.cluster[5]);
        }
        assert_ne!(r.cluster[0], r.cluster[5]);
        assert!(r.count_role(Role::Core) >= 8);
    }

    #[test]
    fn path_graph_has_no_clusters_at_high_eps() {
        let g = CsrGraph::from_edge_list(&generators::path(20));
        let r = run_scan(&g, 0.95, 3);
        assert_eq!(r.num_clusters, 0);
        assert_eq!(r.count_role(Role::Outlier), 20);
    }

    #[test]
    fn hub_between_two_communities() {
        // Two K4s {0..4} and {5..9} sharing no edge, plus vertex 10
        // connected to one member of each: 10 must be classified a Hub.
        let mut el = EdgeList::new(11);
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    el.push(base + i, base + j);
                }
            }
        }
        el.push(10, 0);
        el.push(10, 5);
        let g = CsrGraph::from_edge_list(&el);
        let r = run_scan(&g, 0.7, 3);
        assert_eq!(r.num_clusters, 2);
        assert_eq!(r.role[10], Role::Hub);
    }

    #[test]
    fn outlier_attached_to_one_community() {
        let mut el = generators::complete(5);
        el.push(0, 5); // degree-1 pendant: weak σ, not a border at high eps
        let g = CsrGraph::from_edge_list(&el);
        let r = run_scan(&g, 0.8, 3);
        assert_eq!(r.num_clusters, 1);
        assert_eq!(r.role[5], Role::Outlier);
    }

    #[test]
    fn low_eps_absorbs_borders() {
        let mut el = generators::complete(5);
        el.push(0, 5);
        let g = CsrGraph::from_edge_list(&el);
        // At a permissive threshold the pendant becomes a border member.
        let r = run_scan(&g, 0.3, 3);
        assert_eq!(r.num_clusters, 1);
        assert_eq!(r.role[5], Role::Border);
        assert_eq!(r.cluster[5], r.cluster[0]);
    }

    #[test]
    fn members_and_counts_are_consistent() {
        let g = CsrGraph::from_edge_list(&generators::clique_chain(3, 6));
        let r = run_scan(&g, 0.6, 3);
        let total: usize = (0..r.num_clusters as i32).map(|c| r.members(c).len()).sum();
        let clustered = r.cluster.iter().filter(|&&c| c >= 0).count();
        assert_eq!(total, clustered);
        assert_eq!(
            r.count_role(Role::Core) + r.count_role(Role::Border),
            clustered
        );
    }

    #[test]
    fn mu_validation() {
        let g = CsrGraph::from_edge_list(&generators::complete(3));
        let counts = reference_counts(&g);
        let err = try_scan(&CncView::new(&g, &counts), 0.5, 1).unwrap_err();
        assert_eq!(err, ScanError::MuTooSmall(1));
        assert_eq!(err.to_string(), "mu must be at least 2, got 1");
    }

    #[test]
    fn bad_params_are_typed_errors() {
        let g = CsrGraph::from_edge_list(&generators::complete(3));
        let counts = reference_counts(&g);
        let view = CncView::new(&g, &counts);
        assert_eq!(
            try_scan(&view, 1.5, 3).unwrap_err(),
            ScanError::EpsOutOfRange(1.5)
        );
        assert_eq!(
            try_scan(&view, 0.5, 0).unwrap_err(),
            ScanError::MuTooSmall(0)
        );
        assert_eq!(
            try_scan(&view, -0.1, 2).unwrap_err(),
            ScanError::EpsOutOfRange(-0.1)
        );
        assert!(try_scan(&view, 0.5, 2).is_ok());
    }

    #[test]
    fn deterministic_cluster_ids() {
        let g = CsrGraph::from_edge_list(&generators::chung_lu(200, 8.0, 2.2, 5));
        let a = run_scan(&g, 0.5, 3);
        let b = run_scan(&g, 0.5, 3);
        assert_eq!(a.cluster, b.cluster);
    }
}
