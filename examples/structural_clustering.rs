//! SCAN structural graph clustering on top of the all-edge counts —
//! the application the paper's citations ([8, 9, 21, 25–27]) compute these
//! counts for — plus the k-truss decomposition of the same graph.
//!
//! SCAN (Xu et al., KDD'07) clusters vertices by *structural similarity*
//! `σ(u,v) = (|N(u) ∩ N(v)| + 2) / sqrt((d_u+1)(d_v+1))`; the k-truss
//! peels edges by triangle support. Both are direct functions of the
//! counts this library produces — see `cnc_core::{try_scan, truss_decomposition}`.
//!
//! ```text
//! cargo run --release --example structural_clustering
//! ```

use cnc_core::{truss_decomposition, try_scan, Algorithm, Platform, Role, Runner};
use cnc_graph::{generators, CsrGraph, EdgeList};

fn main() {
    // Ground-truth communities: five 40-cliques bridged by single edges,
    // plus background noise edges.
    let mut el: EdgeList = generators::clique_chain(5, 40);
    let noise = generators::gnm(200, 150, 3);
    for (u, v) in noise.iter() {
        el.push(u, v);
    }
    el.normalize();
    let graph = CsrGraph::from_edge_list(&el);
    println!(
        "graph: {} vertices, {} edges (5 planted 40-cliques + noise)",
        graph.num_vertices(),
        graph.num_undirected_edges()
    );

    // Step 1 — the expensive part, the paper's subject: all-edge counts.
    let result = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).run(&graph);
    println!(
        "all-edge common neighbor counting: {:.1} ms",
        result.wall_seconds * 1e3
    );
    let view = result.view(&graph);

    // Step 2 — SCAN with the usual parameters.
    let (eps, mu) = (0.6, 3);
    let clusters = try_scan(&view, eps, mu).expect("ε and μ are in range");
    println!(
        "SCAN(ε={eps}, μ={mu}): {} clusters — {} cores, {} borders, {} hubs, {} outliers",
        clusters.num_clusters,
        clusters.count_role(Role::Core),
        clusters.count_role(Role::Border),
        clusters.count_role(Role::Hub),
        clusters.count_role(Role::Outlier),
    );

    // Check the planted structure was recovered: each clique maps to one
    // dominant cluster.
    for clique in 0..5 {
        let members = (clique * 40)..(clique * 40 + 40);
        let mut histogram = std::collections::HashMap::new();
        for m in members {
            *histogram.entry(clusters.cluster[m]).or_insert(0usize) += 1;
        }
        let (&dominant, &size) = histogram.iter().max_by_key(|(_, &c)| c).unwrap();
        println!("  planted clique {clique}: {size}/40 members in cluster {dominant}");
        assert!(size >= 38, "planted structure must be recovered");
    }
    println!("all planted communities recovered ✓");

    // Step 3 — the k-truss decomposition from the *same* counts: the
    // planted cliques are 40-trusses, the noise is not.
    let truss =
        truss_decomposition(&graph, result.counts()).expect("counts come straight from the runner");
    println!("\nk-truss decomposition: max k = {}", truss.max_k);
    for k in [3, 10, 20, truss.max_k] {
        println!("  {k}-truss: {} edges", truss.truss_edge_count(&graph, k));
    }
    assert!(truss.max_k >= 40, "each planted K40 is a 40-truss");
    // The 40-truss is exactly the clique edges (5 * C(40,2)), minus any
    // clique edge the noise happened to strengthen beyond.
    let core_edges = truss.truss_edge_count(&graph, 40);
    println!(
        "the {}-truss holds {core_edges} edges (5 * C(40,2) = {})",
        truss.max_k,
        5 * 40 * 39 / 2
    );
}
