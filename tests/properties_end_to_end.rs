//! End-to-end property tests over arbitrary graphs.

use cnc_core::{reference_counts, verify_counts, Algorithm, CncView, Platform, Runner};
use cnc_graph::{CsrGraph, EdgeList};
use proptest::prelude::*;

fn pairs(n: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn full_pipeline_matches_reference(ps in pairs(60, 250)) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        for algorithm in [Algorithm::mps(), Algorithm::bmp_rf()] {
            let r = Runner::new(Platform::cpu_parallel(), algorithm).run(&g);
            prop_assert!(verify_counts(&g, r.counts()).is_ok());
        }
    }

    #[test]
    fn gpu_platform_matches_cpu(ps in pairs(48, 200)) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        let cpu = Runner::new(Platform::cpu_parallel(), Algorithm::mps()).run(&g);
        let gpu = Runner::new(Platform::gpu(1e-4), Algorithm::bmp_rf()).run(&g);
        prop_assert_eq!(cpu.counts(), gpu.counts());
    }

    #[test]
    fn triangle_count_equals_brute_force(ps in pairs(32, 120)) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        let counts = reference_counts(&g);
        let view = CncView::new(&g, &counts);
        // Brute force over all vertex triples.
        let n = g.num_vertices() as u32;
        let mut brute = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                if g.edge_offset(a, b).is_none() {
                    continue;
                }
                for c in (b + 1)..n {
                    if g.edge_offset(b, c).is_some() && g.edge_offset(a, c).is_some() {
                        brute += 1;
                    }
                }
            }
        }
        prop_assert_eq!(view.triangle_count(), brute);
    }

    #[test]
    fn counts_bounded_by_min_degree(ps in pairs(40, 160)) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        let r = Runner::new(Platform::CpuSequential, Algorithm::bmp()).run(&g);
        for (eid, u, v) in g.iter_edges() {
            let bound = g.degree(u).min(g.degree(v)) as u32;
            // Common neighbors exclude u and v themselves, so the count is
            // at most min degree minus one (v ∈ N(u) and u ∈ N(v) never
            // count).
            prop_assert!(r.counts()[eid] < bound.max(1),
                "cnt[e({},{})]={} exceeds min-degree bound {}", u, v, r.counts()[eid], bound);
        }
    }

    #[test]
    fn symmetric_counts(ps in pairs(40, 160)) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        let r = Runner::new(Platform::cpu_parallel(), Algorithm::mps()).run(&g);
        for (eid, ..) in g.iter_edges() {
            let rev = g.reverse_offset(eid);
            prop_assert_eq!(r.counts()[eid], r.counts()[rev]);
        }
    }
}
