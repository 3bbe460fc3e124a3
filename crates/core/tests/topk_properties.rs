//! `BatchSession::topk` and `scan` against a full sort of the reference
//! counts, on random graphs under both reorder policies and both kernel
//! families: MPS runs on the input ids, BMP-RF on the degree-descending
//! relabel when the preparation has one, so its cached counts come back
//! through the remap.

use cnc_core::verify::reference_counts;
use cnc_core::{Algorithm, BatchSession, EdgeCount, Platform, Runner};
use cnc_graph::{CsrGraph, EdgeList, PreparedGraph, ReorderPolicy};
use proptest::prelude::*;

/// Every canonical edge with its reference count, in `(u, v)` order.
fn canonical(g: &CsrGraph) -> Vec<EdgeCount> {
    let want = reference_counts(g);
    g.iter_edges()
        .filter(|&(_, u, v)| u < v)
        .map(|(eid, u, v)| EdgeCount {
            u,
            v,
            count: want[eid],
        })
        .collect()
}

fn check(session: &BatchSession, edges: &[EdgeCount], what: &str) -> Result<(), TestCaseError> {
    let mut sorted = edges.to_vec();
    sorted.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then_with(|| (a.u, a.v).cmp(&(b.u, b.v)))
    });
    let total = sorted.len();
    let mut ks = vec![0, 1, total, total + 7];
    // A `k` inside a run of equal counts, when there is one.
    ks.extend((1..total).find(|&i| sorted[i - 1].count == sorted[i].count));
    for k in ks {
        let (got_total, top) = session.topk(k);
        prop_assert_eq!(got_total, total, "{} topk({}) total", what, k);
        prop_assert_eq!(&top[..], &sorted[..k.min(total)], "{} topk({})", what, k);
    }
    let max = sorted.first().map_or(0, |e| e.count);
    for threshold in [0, max, max + 1] {
        let matching: Vec<EdgeCount> = edges
            .iter()
            .filter(|e| e.count >= threshold)
            .copied()
            .collect();
        for limit in [0, 1, total] {
            let (got_total, hits) = session.scan(threshold, limit);
            prop_assert_eq!(
                got_total,
                matching.len(),
                "{} scan({}) total",
                what,
                threshold
            );
            prop_assert_eq!(
                &hits[..],
                &matching[..limit.min(matching.len())],
                "{} scan({}, {})",
                what,
                threshold,
                limit
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Small id ranges give many equal counts, so ties straddle `k`.
    #[test]
    fn topk_and_scan_match_a_full_sort(
        ps in prop::collection::vec((0u32..40, 0u32..40), 0..200),
    ) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        let edges = canonical(&g);
        for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            let pg = PreparedGraph::from_csr(g.clone(), policy);
            for algorithm in [Algorithm::mps(), Algorithm::bmp_rf()] {
                let runner = Runner::new(Platform::cpu_parallel(), algorithm);
                let session = BatchSession::new(runner, pg.clone()).expect("plannable");
                check(&session, &edges, &format!("{policy:?} {}", algorithm.label()))?;
            }
        }
    }
}
