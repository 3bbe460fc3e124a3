//! Differential tests pinning the non-CNC workloads to brute-force oracles.
//!
//! The triangle and k-clique workloads reuse the whole CNC execution stack
//! (preparation, scheduling, the unified edge-range driver, both kernel
//! families), so any disagreement with a from-scratch enumeration points at
//! the shared machinery. Every tiny paper analogue and a proptest corpus of
//! random multigraph-ish pair lists run under both reorder policies and
//! two chunk sizes; triangle counting runs every kernel, because its
//! oriented suffixes reach each kernel's skew paths differently.

use cnc_core::{Algorithm, Platform, Runner, WorkloadKind, WorkloadOutput};
use cnc_cpu::ParConfig;
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::{CsrGraph, EdgeList};
use proptest::prelude::*;

fn has_edge(g: &CsrGraph, u: u32, v: u32) -> bool {
    g.neighbors(u).binary_search(&v).is_ok()
}

/// Oracle: enumerate each triangle once through its smallest-endpoints
/// cover edge (`u < v`, common neighbor `w > v`).
fn naive_triangles(g: &CsrGraph) -> u64 {
    let mut total = 0u64;
    for (_, u, v) in g.iter_edges() {
        if u < v {
            total += g
                .neighbors(u)
                .iter()
                .filter(|&&w| w > v && has_edge(g, v, w))
                .count() as u64;
        }
    }
    total
}

/// Oracle: count cliques of every size `3..=k` by ordered DFS — each clique
/// is visited exactly once, in ascending vertex order.
fn naive_kcliques(g: &CsrGraph, k: u8) -> Vec<u64> {
    fn dfs(g: &CsrGraph, cand: &[u32], size: usize, k: usize, counts: &mut [u64]) {
        for (i, &w) in cand.iter().enumerate() {
            if size + 1 >= 3 {
                counts[size + 1 - 3] += 1;
            }
            if size + 1 < k {
                let next: Vec<u32> = cand[i + 1..]
                    .iter()
                    .copied()
                    .filter(|&x| has_edge(g, w, x))
                    .collect();
                dfs(g, &next, size + 1, k, counts);
            }
        }
    }
    let mut counts = vec![0u64; k as usize - 2];
    for u in 0..g.num_vertices() as u32 {
        let cand: Vec<u32> = g.neighbors(u).iter().copied().filter(|&v| v > u).collect();
        dfs(g, &cand, 1, k as usize, &mut counts);
    }
    counts
}

/// Both real CPU platforms, with the parallel one under two chunk sizes:
/// the default and three-edge chunks (tasks start mid-source, so `N(u)`
/// past `v` must come from the edge offset rather than the source start).
fn cpu_platforms() -> Vec<Platform> {
    let parallel = [ParConfig::default(), ParConfig::with_task_size(3)].map(Platform::CpuParallel);
    std::iter::once(Platform::CpuSequential)
        .chain(parallel)
        .collect()
}

/// Every CPU kernel: the triangle workload probes each one.
fn all_kernels() -> [Algorithm; 4] {
    [
        Algorithm::MergeBaseline,
        Algorithm::mps(),
        Algorithm::bmp(),
        Algorithm::bmp_rf(),
    ]
}

#[test]
fn triangle_workload_matches_oracle_and_cnc_view_on_every_analogue() {
    for d in Dataset::ALL {
        let g = d.build(Scale::Tiny);
        let want = naive_triangles(&g);
        // The per-edge CNC counts derive the same global total.
        let cnc = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).run(&g);
        assert_eq!(cnc.view(&g).triangle_count(), want, "{}", d.name());
        for reorder in [false, true] {
            for algo in all_kernels() {
                for platform in cpu_platforms() {
                    let r = Runner::new(platform.clone(), algo)
                        .workload(WorkloadKind::Triangle)
                        .reorder(reorder)
                        .run(&g);
                    assert_eq!(
                        r.output,
                        WorkloadOutput::Global(want),
                        "dataset={} reorder={reorder} algo={} platform={platform:?}",
                        d.name(),
                        algo.label()
                    );
                }
            }
        }
    }
}

#[test]
fn kclique_workload_matches_oracle_on_every_analogue() {
    for d in Dataset::ALL {
        let g = d.build(Scale::Tiny);
        // One k=5 enumeration serves every requested k as a prefix.
        let full = naive_kcliques(&g, 5);
        assert_eq!(full[0], naive_triangles(&g), "3-cliques are triangles");
        for k in WorkloadKind::MIN_CLIQUE_K..=WorkloadKind::MAX_CLIQUE_K {
            let want = WorkloadOutput::CliqueCounts {
                k,
                counts: full[..(k as usize - 2)].to_vec(),
            };
            for reorder in [false, true] {
                for algo in [Algorithm::MergeBaseline, Algorithm::bmp_rf()] {
                    for platform in cpu_platforms() {
                        let r = Runner::new(platform.clone(), algo)
                            .workload(WorkloadKind::KClique { k })
                            .reorder(reorder)
                            .run(&g);
                        assert_eq!(
                            r.output,
                            want,
                            "dataset={} k={k} reorder={reorder} algo={} platform={platform:?}",
                            d.name(),
                            algo.label()
                        );
                    }
                }
            }
        }
    }
}

fn pairs(n: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn workloads_match_oracles_on_random_graphs(
        ps in pairs(40, 150),
        reorder in any::<bool>(),
    ) {
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(ps));
        let tri = naive_triangles(&g);
        let cliques = naive_kcliques(&g, 5);
        // kclique(3) and triangle count the same objects.
        prop_assert_eq!(cliques[0], tri);
        let want = WorkloadOutput::CliqueCounts { k: 5, counts: cliques };
        for platform in cpu_platforms() {
            for algo in all_kernels() {
                let t = Runner::new(platform.clone(), algo)
                    .workload(WorkloadKind::Triangle)
                    .reorder(reorder)
                    .run(&g);
                prop_assert_eq!(&t.output, &WorkloadOutput::Global(tri));
            }
            // k-clique never probes the kernel: two kernels suffice.
            for algo in [Algorithm::MergeBaseline, Algorithm::bmp_rf()] {
                let c = Runner::new(platform.clone(), algo)
                    .workload(WorkloadKind::KClique { k: 5 })
                    .reorder(reorder)
                    .run(&g);
                prop_assert_eq!(&c.output, &want);
            }
        }
    }
}
