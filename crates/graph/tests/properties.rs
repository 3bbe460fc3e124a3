//! Property-based tests for the graph substrate.

use std::collections::BTreeSet;

use cnc_graph::{generators, io, reorder, CsrGraph, EdgeList};
use proptest::prelude::*;

/// Strategy: an arbitrary raw pair list over up to `n` vertices.
fn pairs(n: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_from_arbitrary_pairs_is_valid(ps in pairs(64, 300)) {
        // Raw input with loops, duplicates and both orientations of a pair.
        let raw: Vec<(u32, u32)> = ps
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u), (u, v)])
            .collect();
        let n = 64;
        let mut oracle = vec![BTreeSet::new(); n];
        let mut pushed = EdgeList::new(n);
        for &(u, v) in &raw {
            if u != v {
                oracle[u as usize].insert(v);
                oracle[v as usize].insert(u);
            }
            pushed.push(u, v);
        }
        // Both entries to the one builder: raw pairs, and an unnormalized
        // list, which `from_edge_list` canonicalizes first.
        for g in [
            CsrGraph::from_undirected_pairs(n, raw.iter().copied()),
            CsrGraph::from_edge_list(&pushed),
        ] {
            prop_assert!(g.validate().is_ok());
            prop_assert_eq!(g.num_vertices(), n);
            for (u, want) in (0u32..).zip(&oracle) {
                prop_assert!(g.neighbors(u).iter().eq(want.iter()), "row {}", u);
            }
        }
        let el = EdgeList::from_pairs(ps);
        let g = CsrGraph::from_edge_list(&el);
        prop_assert!(g.validate().is_ok());
        // Each undirected edge appears exactly twice in dst.
        prop_assert_eq!(g.num_directed_edges(), 2 * el.len());
    }

    #[test]
    fn edge_offsets_are_inverse_of_dst(ps in pairs(48, 200)) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        for (eid, u, v) in g.iter_edges() {
            prop_assert_eq!(g.edge_offset(u, v), Some(eid));
            let rev = g.reverse_offset(eid);
            prop_assert_eq!(g.dst()[rev], u);
            prop_assert_eq!(g.reverse_offset(rev), eid);
        }
    }

    #[test]
    fn find_src_correct_from_any_hint(ps in pairs(48, 200), hint in 0u32..48) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        prop_assume!(g.num_directed_edges() > 0);
        let hint = hint.min(g.num_vertices() as u32 - 1);
        for (eid, u, _) in g.iter_edges() {
            let mut h = hint;
            prop_assert_eq!(g.find_src(eid, &mut h), u);
        }
    }

    #[test]
    fn relabel_preserves_degree_multiset(ps in pairs(40, 150)) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        let r = reorder::degree_descending(&g);
        prop_assert!(reorder::is_degree_descending(&r.graph));
        let mut before: Vec<usize> = (0..g.num_vertices() as u32).map(|u| g.degree(u)).collect();
        let mut after: Vec<usize> =
            (0..r.graph.num_vertices() as u32).map(|u| r.graph.degree(u)).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn relabel_preserves_adjacency(ps in pairs(32, 120)) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        for r in [reorder::degree_descending(&g), reorder::core_descending(&g)] {
            prop_assert!(r.graph.validate().is_ok());
            for u in 0..g.num_vertices() as u32 {
                for v in 0..g.num_vertices() as u32 {
                    let before = g.edge_offset(u, v).is_some();
                    let after = r.graph.edge_offset(r.to_new(u), r.to_new(v)).is_some();
                    prop_assert_eq!(before, after, "adjacency changed for ({}, {})", u, v);
                }
            }
        }
    }

    #[test]
    fn binary_roundtrip_arbitrary(ps in pairs(64, 300)) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        let mut buf = Vec::new();
        io::write_csr(&g, &mut buf).unwrap();
        let back = io::read_csr(buf.as_slice()).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn text_roundtrip_arbitrary(ps in pairs(64, 300)) {
        let el = EdgeList::from_pairs(ps);
        let mut buf = Vec::new();
        io::write_edge_list(&el, &mut buf).unwrap();
        let back = io::read_edge_list(buf.as_slice()).unwrap();
        // Vertex count can shrink (isolated top ids are not represented in
        // text), but the edges are identical.
        prop_assert_eq!(el.edges, back.edges);
    }

    #[test]
    fn gnm_has_exact_edge_count(n in 4usize..64, m in 0usize..100, seed in 0u64..50) {
        let el = generators::gnm(n, m, seed);
        let max = n * (n - 1) / 2;
        prop_assert_eq!(el.len(), m.min(max));
        prop_assert!(CsrGraph::from_edge_list(&el).validate().is_ok());
    }
}
