//! A zero-copy (mmap-backed) prepared graph must be a perfect drop-in for a
//! heap-backed one: identical counts from every platform × algorithm
//! combination, driven through the same `Runner` entry points.

#![cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]

use std::fs::{self, File};
use std::sync::Arc;

use cnc_core::{reference_counts, Algorithm, Platform, Runner};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::prepare::{map_prepared, write_prepared};
use cnc_graph::{PreparedGraph, ReorderPolicy};
use cnc_machine::MemMode;

fn platforms(scale: f64) -> Vec<(&'static str, Platform)> {
    vec![
        ("cpu-seq", Platform::CpuSequential),
        ("cpu-par", Platform::cpu_parallel()),
        (
            "cpu-model",
            Platform::CpuModel {
                threads: 56,
                capacity_scale: scale,
            },
        ),
        ("knl-flat", Platform::knl_flat(scale)),
        (
            "knl-ddr",
            Platform::Knl {
                threads: 64,
                mode: MemMode::Ddr,
                capacity_scale: scale,
            },
        ),
        ("gpu", Platform::gpu(scale)),
    ]
}

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::MergeBaseline,
        Algorithm::mps(),
        Algorithm::bmp(),
        Algorithm::bmp_rf(),
    ]
}

#[test]
fn mapped_storage_counts_identically_everywhere() {
    let el = Dataset::OrS.edge_list(Scale::Tiny);
    let owned = PreparedGraph::from_edge_list(&el, ReorderPolicy::DegreeDescending);
    let want = reference_counts(owned.graph());

    // Round the preparation through a CNCPREP5 file and map it back.
    let dir = std::env::temp_dir().join(format!("cnc-agree-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("or-s.prep");
    write_prepared(&owned, File::create(&path).unwrap()).unwrap();
    let mapped = Arc::new(map_prepared(&path).expect("tiny analogue must map"));
    assert!(mapped.graph().storage_mapped(), "CSR must be zero-copy");
    assert!(
        mapped.reordered().unwrap().graph.storage_mapped(),
        "relabeled CSR must be zero-copy"
    );

    let scale = Dataset::OrS.capacity_scale(mapped.graph());
    for (pname, platform) in platforms(scale) {
        for algorithm in algorithms() {
            let runner = Runner::new(platform.clone(), algorithm);
            let from_mapped = runner.run_prepared(&mapped);
            assert_eq!(
                from_mapped.counts(),
                want,
                "platform={pname} algorithm={} diverges on mapped storage",
                algorithm.label()
            );
            let from_owned = runner.run_prepared(&owned);
            assert_eq!(
                from_owned.counts(),
                from_mapped.counts(),
                "platform={pname} algorithm={}: owned vs mapped",
                algorithm.label()
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
