//! `counts_to_original`'s search-free transpose walk against the
//! search-based definition `out[e(u, v)] = counts[e(φ(u), φ(v))]`, for
//! arbitrary non-symmetric per-slot arrays, on every route a relabel
//! reaches it by: hand-built (no reverse index), `PreparedGraph::from_csr`
//! (index built) and streamed under a small memory budget, then mapped
//! (index attached from the file).

#![cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]

use std::sync::atomic::{AtomicU64, Ordering};

use cnc_core::remap::counts_to_original;
use cnc_graph::prepare::map_prepared;
use cnc_graph::reorder::{self, Reordered};
use cnc_graph::stream::{self, StreamConfig};
use cnc_graph::{generators, CsrGraph, EdgeList, PreparedGraph, ReorderPolicy};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// The definition, one binary search per slot.
fn remap_by_search(g: &CsrGraph, r: &Reordered, counts: &[u32]) -> Vec<u32> {
    g.iter_edges()
        .map(|(_, u, v)| {
            let f = r
                .graph
                .edge_offset(r.to_new(u), r.to_new(v))
                .expect("relabeled graph lost an edge");
            counts[f]
        })
        .collect()
}

/// Check the walk against the definition on one prepared relabel, with an
/// arbitrary per-slot array drawn from `salt`.
fn check(route: &str, g: &CsrGraph, r: &Reordered, salt: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(salt);
    let counts: Vec<u32> = (0..g.num_directed_edges()).map(|_| rng.gen()).collect();
    prop_assert_eq!(
        counts_to_original(g, r, &counts),
        remap_by_search(g, r, &counts),
        "{} route, |V|={} |E|={}",
        route,
        g.num_vertices(),
        g.num_directed_edges()
    );
    Ok(())
}

/// Every route on `el` (over `el.num_vertices` ids, trailing isolated ones
/// included): hand-built degree and core relabels, the in-memory
/// preparation, and a streamed image mapped back.
fn check_all_routes(el: &EdgeList, budget: u64, salt: u64) -> Result<(), TestCaseError> {
    let g = CsrGraph::from_edge_list(el);
    check(
        "hand-built degree",
        &g,
        &reorder::degree_descending(&g),
        salt,
    )?;
    check("hand-built core", &g, &reorder::core_descending(&g), salt)?;

    let pg = PreparedGraph::from_csr(g, ReorderPolicy::DegreeDescending);
    let r = pg.reordered().expect("policy relabels");
    prop_assert!(r.graph.has_reverse_index());
    check("from_csr", pg.graph(), r, salt)?;

    let path = std::env::temp_dir().join(format!(
        "cnc-remaptest-{}-{}.prep",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let config = StreamConfig {
        mem_budget: Some(budget),
        spill_dir: None,
    };
    let streamed = stream::prepare_pairs_to_file(
        el.num_vertices,
        el.iter(),
        ReorderPolicy::DegreeDescending,
        &path,
        &config,
    )
    .and_then(|_| map_prepared(&path));
    let _ = std::fs::remove_file(&path);
    let mapped = streamed.expect("streamed preparation maps");
    let r = mapped.reordered().expect("policy relabels");
    prop_assert!(r.graph.has_reverse_index());
    prop_assert_eq!(mapped.graph(), pg.graph());
    check("streamed + mapped", mapped.graph(), r, salt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graphs: sparse pair lists leave isolated ids in the middle,
    /// and `trailing` declares zero-degree ids past the largest endpoint.
    #[test]
    fn walk_matches_search_on_random_graphs(
        ps in prop::collection::vec((0u32..40, 0u32..40), 0..160),
        trailing in 0usize..4,
        budget in 1u64..4096,
        salt in any::<u64>(),
    ) {
        let mut el = EdgeList::from_pairs(ps);
        el.num_vertices += trailing;
        check_all_routes(&el, budget, salt)?;
    }

    /// Graphs already in degree-descending order relabel to themselves.
    #[test]
    fn walk_matches_search_on_degree_ordered_graphs(
        ps in prop::collection::vec((0u32..30, 0u32..30), 0..120),
        salt in any::<u64>(),
    ) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        let sorted = reorder::degree_descending(&g).graph;
        prop_assert!(reorder::is_degree_descending(&sorted));
        let mut el = EdgeList::new(sorted.num_vertices());
        for (_, u, v) in sorted.iter_edges().filter(|&(_, u, v)| u < v) {
            el.push(u, v);
        }
        check_all_routes(&el, 512, salt)?;
    }
}

#[test]
fn walk_matches_search_on_stars_and_empty_graphs() {
    let mut cases = vec![EdgeList::new(0), EdgeList::new(5)];
    for k in [1u32, 2, 7, 64] {
        // The generator's hub is vertex 0; the second star puts it last.
        cases.push(generators::star(k as usize + 1));
        cases.push(EdgeList::from_pairs((0..k).map(|i| (k, i))));
    }
    for (i, el) in cases.iter().enumerate() {
        check_all_routes(el, 64, i as u64).expect("walk equals search");
    }
}
