//! The on-disk prepared-graph cache: a hit returns exactly what a fresh
//! build produces, and a stale or corrupt cache file silently falls back to
//! a rebuild — the cache must never surface an error.

use std::fs;
use std::path::PathBuf;

use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::prepare::{self, cache_path, prepared_on_disk, PrepareMetrics};
use cnc_graph::ReorderPolicy;

/// A unique throwaway cache directory per test (tests run concurrently and
/// must not share disk state).
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cnc-prep-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn delta(before: &PrepareMetrics) -> PrepareMetrics {
    prepare::metrics().since(before)
}

#[test]
fn disk_hit_returns_identical_preparation() {
    let dir = temp_dir("hit");
    let (d, s, p) = (Dataset::WiS, Scale::Tiny, ReorderPolicy::DegreeDescending);

    let before = prepare::metrics();
    let cold = prepared_on_disk(&dir, d, s, p);
    let cold_work = delta(&before);
    assert_eq!(cold_work.graph_builds, 1);
    assert_eq!(cold_work.reorders, 1);
    assert_eq!(cold_work.disk_writes, 1);
    assert_eq!(cold_work.disk_hits, 0);
    assert!(cache_path(&dir, d, s, p).is_file());

    let before = prepare::metrics();
    let warm = prepared_on_disk(&dir, d, s, p);
    let warm_work = delta(&before);
    assert_eq!(warm_work.disk_hits, 1, "second load must hit the cache");
    assert_eq!(warm_work.graph_builds, 0, "no CSR construction on a hit");
    assert_eq!(warm_work.reorders, 0, "no relabel on a hit");

    // The hit is bit-identical to the fresh build: graph, remap tables,
    // statistics, and the dataset-derived capacity scale.
    assert_eq!(warm.graph(), cold.graph());
    assert_eq!(warm.reordered(), cold.reordered());
    assert_eq!(warm.stats(), cold.stats());
    assert_eq!(warm.skew_pct(), cold.skew_pct());
    assert_eq!(warm.capacity_scale(), cold.capacity_scale());
    assert_eq!(warm.policy(), cold.policy());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn policy_none_caches_without_tables() {
    let dir = temp_dir("none");
    let (d, s, p) = (Dataset::FrS, Scale::Tiny, ReorderPolicy::None);
    let cold = prepared_on_disk(&dir, d, s, p);
    assert!(cold.reordered().is_none());
    let before = prepare::metrics();
    let warm = prepared_on_disk(&dir, d, s, p);
    assert_eq!(delta(&before).disk_hits, 1);
    assert!(warm.reordered().is_none());
    assert_eq!(warm.graph(), cold.graph());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_version_byte_falls_back_to_rebuild() {
    let dir = temp_dir("stale");
    let (d, s, p) = (Dataset::LjS, Scale::Tiny, ReorderPolicy::DegreeDescending);
    let fresh = prepared_on_disk(&dir, d, s, p);

    // Simulate a cache written by an older format revision: same file, bumped
    // version digit in the magic.
    let path = cache_path(&dir, d, s, p);
    let mut bytes = fs::read(&path).unwrap();
    assert_eq!(&bytes[..8], b"CNCPREP5");
    bytes[7] = b'3';
    fs::write(&path, &bytes).unwrap();

    let before = prepare::metrics();
    let rebuilt = prepared_on_disk(&dir, d, s, p);
    let work = delta(&before);
    assert_eq!(work.disk_hits, 0, "stale file must not count as a hit");
    assert_eq!(work.graph_builds, 1, "stale file must trigger a rebuild");
    assert_eq!(work.disk_writes, 1, "rebuild must refresh the cache");
    assert_eq!(rebuilt.graph(), fresh.graph());
    assert_eq!(rebuilt.reordered(), fresh.reordered());

    // The refreshed file is valid again.
    let before = prepare::metrics();
    prepared_on_disk(&dir, d, s, p);
    assert_eq!(delta(&before).disk_hits, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_files_fall_back_to_rebuild() {
    let dir = temp_dir("corrupt");
    let (d, s, p) = (Dataset::TwS, Scale::Tiny, ReorderPolicy::DegreeDescending);
    let fresh = prepared_on_disk(&dir, d, s, p);
    let path = cache_path(&dir, d, s, p);
    let original = fs::read(&path).unwrap();

    // Truncation at several depths, flipped bytes, and garbage content: all
    // must rebuild silently and produce the same preparation.
    let mut corruptions: Vec<Vec<u8>> = vec![
        Vec::new(),
        original[..original.len() / 2].to_vec(),
        original[..12].to_vec(),
        b"garbage, not a cache file at all".to_vec(),
    ];
    let mut flipped = original.clone();
    flipped[original.len() / 3] ^= 0xff;
    corruptions.push(flipped);

    for (i, bad) in corruptions.into_iter().enumerate() {
        fs::write(&path, &bad).unwrap();
        let before = prepare::metrics();
        let rebuilt = prepared_on_disk(&dir, d, s, p);
        let work = delta(&before);
        assert_eq!(
            work.graph_builds, 1,
            "corruption #{i} must trigger a rebuild"
        );
        assert_eq!(rebuilt.graph(), fresh.graph());
        assert_eq!(rebuilt.reordered(), fresh.reordered());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_cache_dir_still_builds() {
    // A path that cannot be a directory (its parent is a file): writes fail,
    // preparation must still succeed.
    let blocker = std::env::temp_dir().join(format!("cnc-prep-{}-blocker", std::process::id()));
    fs::write(&blocker, b"file, not a dir").unwrap();
    let dir = blocker.join("sub");
    let before = prepare::metrics();
    let pg = prepared_on_disk(&dir, Dataset::OrS, Scale::Tiny, ReorderPolicy::None);
    let work = delta(&before);
    assert_eq!(work.graph_builds, 1);
    assert_eq!(work.disk_writes, 0, "nothing can be written");
    assert!(pg.graph().num_vertices() > 0);
    let _ = fs::remove_file(&blocker);
}
