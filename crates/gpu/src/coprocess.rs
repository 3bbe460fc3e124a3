//! CPU–GPU co-processing (Algorithm 4 / Table 5).
//!
//! The symmetric assignment needs, for every `u > v` edge slot, the value
//! computed for its reverse `u < v` slot. In the paper, finding reverse
//! offsets costs a binary search per edge (here, one load of the CSR's
//! reverse-edge index); the paper hides that latency by running the
//! offset assignment on the CPU *concurrently* with the counting kernels on
//! the GPU (both touch disjoint halves of the same unified count array) and
//! finishing with a cheap gather pass:
//!
//! 1. `AssignOffsetsOnCPU`: for each `u > v` slot, store the reverse edge
//!    offset `e(v, u)` in the slot (runs under the GPU kernels).
//! 2. GPU kernels fill every `u < v` slot with its count.
//! 3. Final pass: `cnt[e] ← cnt[cnt[e]]` for `u > v` slots.
//!
//! Without co-processing, steps 1 and 3 collapse into one pass after the
//! kernels ([`postprocess_without_coprocessing`]): cnc-graph's
//! `CsrGraph::mirror_counts`, the pass the shard coordinator also runs over
//! its assembled count array.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::time::Instant;

use cnc_graph::CsrGraph;

/// Phase 1: write the reverse edge offset into every `u > v` slot.
///
/// Returns wall-clock seconds of the host loop (informational: reported
/// times are modeled). The reverse index holds `u32` slots, so every one
/// fits the count slot that holds it until phase 3.
pub fn assign_reverse_offsets(g: &CsrGraph, counts: &mut [u32]) -> f64 {
    assert_eq!(counts.len(), g.num_directed_edges());
    let t0 = Instant::now();
    let rev = g.reverse_index();
    for (eid, u, v) in g.iter_edges() {
        if u > v {
            counts[eid] = rev[eid];
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Phase 3: gather the counts through the stored offsets
/// (`cnt[e] ← cnt[cnt[e]]` for `u > v`). Returns wall-clock seconds.
pub fn final_symmetric_assign(g: &CsrGraph, counts: &mut [u32]) -> f64 {
    assert_eq!(counts.len(), g.num_directed_edges());
    let t0 = Instant::now();
    // Stored offsets point at `u < v` slots, which this loop never writes.
    for (eid, u, v) in g.iter_edges() {
        if u > v {
            counts[eid] = counts[counts[eid] as usize];
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Sequential reverse-offset + assignment in one go — the *non*-co-processed
/// baseline of Table 5 (all post-processing happens after the GPU finishes):
/// one [`CsrGraph::mirror_counts`] pass, whose reverse-offset lookups are
/// fully exposed after the kernels.
///
/// Returns wall-clock seconds.
pub fn postprocess_without_coprocessing(g: &CsrGraph, counts: &mut [u32]) -> f64 {
    let t0 = Instant::now();
    g.mirror_counts(counts);
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_graph::generators;

    /// Fill the u<v slots with reference counts (standing in for the GPU
    /// kernels).
    fn fill_upper(g: &CsrGraph, counts: &mut [u32]) {
        for (eid, u, v) in g.iter_edges() {
            if u < v {
                counts[eid] = cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v));
            }
        }
    }

    fn full_reference(g: &CsrGraph) -> Vec<u32> {
        g.iter_edges()
            .map(|(_, u, v)| cnc_intersect::reference_count(g.neighbors(u), g.neighbors(v)))
            .collect()
    }

    #[test]
    fn coprocessed_pipeline_produces_symmetric_counts() {
        let g = CsrGraph::from_edge_list(&generators::chung_lu(300, 8.0, 2.2, 4));
        let mut counts = vec![0u32; g.num_directed_edges()];
        // Phase 1 (would overlap the GPU).
        assign_reverse_offsets(&g, &mut counts);
        // Phase 2: the GPU fills u<v slots. Reverse offsets stored in u>v
        // slots must survive untouched.
        fill_upper(&g, &mut counts);
        // Phase 3.
        final_symmetric_assign(&g, &mut counts);
        assert_eq!(counts, full_reference(&g));
    }

    #[test]
    fn non_coprocessed_pipeline_matches() {
        let g = CsrGraph::from_edge_list(&generators::hub_web(200, 5.0, 2, 0.4, 8));
        let mut counts = vec![0u32; g.num_directed_edges()];
        fill_upper(&g, &mut counts);
        postprocess_without_coprocessing(&g, &mut counts);
        assert_eq!(counts, full_reference(&g));
    }

    #[test]
    fn both_pipelines_agree() {
        let g = CsrGraph::from_edge_list(&generators::gnm(250, 900, 5));
        let mut a = vec![0u32; g.num_directed_edges()];
        assign_reverse_offsets(&g, &mut a);
        fill_upper(&g, &mut a);
        final_symmetric_assign(&g, &mut a);

        let mut b = vec![0u32; g.num_directed_edges()];
        fill_upper(&g, &mut b);
        postprocess_without_coprocessing(&g, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = CsrGraph::from_edge_list(&cnc_graph::EdgeList::new(0));
        let mut counts = vec![];
        assert!(assign_reverse_offsets(&g, &mut counts) >= 0.0);
        assert!(final_symmetric_assign(&g, &mut counts) >= 0.0);
    }
}
