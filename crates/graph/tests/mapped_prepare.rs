//! The zero-copy cache path: mapped loads must be bit-identical to owned
//! ones for every dataset analogue, `CNCPREP4` damage of any kind must be
//! rejected (then silently rebuilt by the cache) or leave the loaded
//! preparation unchanged, the LRU garbage collector
//! must never evict a file a live reader holds, and a multi-process populate
//! race must elect exactly one writer.

#![cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::prepare::{
    self, cache_path, map_prepared, prepared_on_disk, read_prepared, write_prepared,
};
use cnc_graph::{generators, PreparedGraph, ReorderPolicy};

/// A unique throwaway cache directory per test (tests run concurrently and
/// must not share disk state).
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cnc-mapped-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn assert_same_preparation(mapped: &PreparedGraph, owned: &PreparedGraph, what: &str) {
    assert_eq!(mapped.graph(), owned.graph(), "{what}: graph");
    assert_eq!(
        mapped.reordered(),
        owned.reordered(),
        "{what}: reorder data"
    );
    assert_eq!(mapped.stats(), owned.stats(), "{what}: stats");
    assert_eq!(mapped.skew_pct(), owned.skew_pct(), "{what}: skew");
    assert_eq!(mapped.policy(), owned.policy(), "{what}: policy");
}

#[test]
fn mapped_load_is_identical_for_every_dataset() {
    let dir = temp_dir("identity");
    for dataset in Dataset::ALL {
        for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            let before = prepare::metrics();
            let cold = prepared_on_disk(&dir, dataset, Scale::Tiny, policy);
            assert_eq!(prepare::metrics().since(&before).disk_writes, 1);
            assert_eq!(cold.mapped_bytes(), 0, "cold build is heap-backed");

            let before = prepare::metrics();
            let warm = prepared_on_disk(&dir, dataset, Scale::Tiny, policy);
            let work = prepare::metrics().since(&before);
            let what = format!("{}/{}", dataset.name(), policy.tag());
            assert_eq!(work.graph_builds, 0, "{what}: no build on a warm hit");
            assert_eq!(work.mmap_hits, 1, "{what}: warm hit must map");
            assert!(warm.graph().storage_mapped(), "{what}: CSR not mapped");
            if let Some(r) = warm.reordered() {
                assert!(r.graph.storage_mapped(), "{what}: relabeled CSR not mapped");
            }
            // bytes_mapped accounts exactly the CSR sections served in place.
            let expect = warm.graph().csr_bytes() as u64
                + warm.reordered().map_or(0, |r| r.graph.csr_bytes() as u64);
            assert_eq!(work.bytes_mapped, expect, "{what}: bytes_mapped");
            assert_eq!(warm.mapped_bytes(), expect, "{what}: mapped_bytes()");

            assert_same_preparation(&warm, &cold, &what);
            assert_eq!(warm.capacity_scale(), cold.capacity_scale(), "{what}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mapped_and_owned_reads_of_one_file_agree() {
    let dir = temp_dir("two-paths");
    fs::create_dir_all(&dir).unwrap();
    let pg = PreparedGraph::from_edge_list(
        &Dataset::WiS.edge_list(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let path = dir.join("two-paths.prep");
    write_prepared(&pg, File::create(&path).unwrap()).unwrap();

    let mapped = map_prepared(&path).expect("valid file must map");
    let owned = read_prepared(File::open(&path).unwrap()).expect("valid file must read");
    assert!(mapped.graph().storage_mapped());
    assert!(!owned.graph().storage_mapped());
    assert_same_preparation(&mapped, &owned, "map vs read");
    assert_same_preparation(&mapped, &pg, "map vs fresh");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn map_prepared_rejects_damage_without_panicking() {
    let dir = temp_dir("damage");
    fs::create_dir_all(&dir).unwrap();
    let pg = PreparedGraph::from_edge_list(
        &Dataset::LjS.edge_list(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let path = dir.join("damage.prep");
    write_prepared(&pg, File::create(&path).unwrap()).unwrap();
    let original = fs::read(&path).unwrap();

    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    // Truncation at every interesting depth.
    for cut in [0, 8, 63, 64, 128, original.len() / 2, original.len() - 1] {
        cases.push((format!("truncated at {cut}"), original[..cut].to_vec()));
    }
    // Stale magic, bad policy, flipped payload bit, trailing garbage.
    let mut stale = original.clone();
    stale[7] = b'1';
    cases.push(("stale version".into(), stale));
    let mut bad_policy = original.clone();
    bad_policy[8] = 9;
    cases.push(("bad policy byte".into(), bad_policy));
    let mut flipped = original.clone();
    let at = original.len() / 2;
    flipped[at] ^= 1;
    cases.push((format!("bit flip at {at}"), flipped));
    let mut long = original.clone();
    long.extend_from_slice(&[0; 64]);
    cases.push(("trailing block".into(), long));
    // Shifting a section header off its 64-byte boundary: everything after
    // the insertion point is misaligned and the layout no longer adds up.
    let mut shifted = original.clone();
    for _ in 0..4 {
        shifted.insert(64, 0);
    }
    cases.push(("misaligned sections".into(), shifted));

    for (what, bytes) in cases {
        fs::write(&path, &bytes).unwrap();
        assert!(map_prepared(&path).is_err(), "map must reject: {what}");
        assert!(
            read_prepared(bytes.as_slice()).is_err(),
            "read must reject: {what}"
        );
    }

    // And the cache layer turns every rejection into a silent rebuild.
    fs::write(
        cache_path(&dir, Dataset::LjS, Scale::Tiny, ReorderPolicy::None),
        &original[..original.len() - 1],
    )
    .unwrap();
    let before = prepare::metrics();
    let rebuilt = prepared_on_disk(&dir, Dataset::LjS, Scale::Tiny, ReorderPolicy::None);
    assert_eq!(prepare::metrics().since(&before).graph_builds, 1);
    assert_eq!(rebuilt.graph(), pg.graph());
    let _ = fs::remove_dir_all(&dir);
}

/// A load of a damaged image must be a typed `InvalidData` rejection or
/// exactly the original preparation, down to the reverse indexes and the
/// skew statistic's bits.
fn assert_rejected_or_original(
    loaded: io::Result<PreparedGraph>,
    original: &PreparedGraph,
    what: &str,
) {
    match loaded {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
        Ok(pg) => {
            assert_same_preparation(&pg, original, what);
            assert_eq!(
                pg.graph().reverse_index(),
                original.graph().reverse_index(),
                "{what}: reverse index"
            );
            assert_eq!(
                pg.reordered().map(|r| r.graph.reverse_index()),
                original.reordered().map(|r| r.graph.reverse_index()),
                "{what}: relabeled reverse index"
            );
            assert_eq!(
                pg.skew_pct().to_bits(),
                original.skew_pct().to_bits(),
                "{what}: skew bits"
            );
        }
    }
}

#[test]
fn every_byte_flip_is_rejected_or_harmless() {
    // Invert each byte of a small image in turn, under both policies. Only
    // reserved and padding bytes lie outside every checksum, so most flips
    // must be rejected; none may panic or load a different preparation.
    let dir = temp_dir("flips");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flip.prep");
    let el = generators::gnm(40, 90, 9);
    for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
        let pg = PreparedGraph::from_edge_list(&el, policy);
        let mut image = Vec::new();
        write_prepared(&pg, &mut image).unwrap();
        for at in 0..image.len() {
            let mut damaged = image.clone();
            damaged[at] ^= 0xff;
            let what = format!("{} image, byte {at}", policy.tag());
            assert_rejected_or_original(read_prepared(damaged.as_slice()), &pg, &what);
            fs::write(&path, &damaged).unwrap();
            assert_rejected_or_original(map_prepared(&path), &pg, &what);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_is_lru_and_never_evicts_a_mapped_file() {
    let dir = temp_dir("gc");
    // Populate three entries; file order == recency order (each write
    // finishes before the next starts).
    let keys = [Dataset::LjS, Dataset::OrS, Dataset::WiS];
    for &d in &keys {
        prepared_on_disk(&dir, d, Scale::Tiny, ReorderPolicy::None);
    }
    let path_of = |d: Dataset| cache_path(&dir, d, Scale::Tiny, ReorderPolicy::None);
    let entries = prepare::cache_entries(&dir).unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(entries[0].path, path_of(Dataset::WiS), "newest first");

    // Hold a live mapping of the *oldest* entry: a zero-budget GC must
    // remove everything else but skip it.
    let held = map_prepared(&path_of(Dataset::LjS)).unwrap();
    let out = prepare::cache_gc(&dir, 0).unwrap();
    assert_eq!(out.skipped_locked, 1, "the mapped file is in use");
    assert_eq!(out.evicted, 2);
    assert_eq!(out.kept, 1);
    assert!(path_of(Dataset::LjS).is_file(), "held file must survive");
    assert!(!path_of(Dataset::OrS).is_file());
    assert!(!path_of(Dataset::WiS).is_file());
    // The survivor still reads correctly through the held mapping.
    assert!(held.graph().num_vertices() > 0);

    // Once the reader is gone the file becomes evictable.
    drop(held);
    let out = prepare::cache_clear(&dir).unwrap();
    assert_eq!((out.evicted, out.skipped_locked), (1, 0));
    assert!(prepare::cache_entries(&dir).unwrap().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_budget_keeps_most_recent_entries() {
    let dir = temp_dir("budget");
    for &d in &[Dataset::TwS, Dataset::FrS] {
        prepared_on_disk(&dir, d, Scale::Tiny, ReorderPolicy::None);
    }
    let entries = prepare::cache_entries(&dir).unwrap();
    let (newest, oldest) = (&entries[0], &entries[1]);
    // A budget that fits only the newest entry evicts exactly the oldest.
    let out = prepare::cache_gc(&dir, newest.bytes + oldest.bytes - 1).unwrap();
    assert_eq!((out.evicted, out.kept), (1, 1));
    assert_eq!(out.evicted_bytes, oldest.bytes);
    assert!(newest.path.is_file());
    assert!(!oldest.path.is_file());
    // A warm hit refreshes recency: after touching the survivor, a generous
    // budget keeps it untouched.
    prepared_on_disk(&dir, Dataset::FrS, Scale::Tiny, ReorderPolicy::None);
    let out = prepare::cache_gc(&dir, u64::MAX).unwrap();
    assert_eq!(out.evicted, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncation_under_a_live_reader_degrades_to_cold_rebuild() {
    let dir = temp_dir("fault");
    let policy = ReorderPolicy::DegreeDescending;
    let cold = prepared_on_disk(&dir, Dataset::OrS, Scale::Tiny, policy);
    let path = cache_path(&dir, Dataset::OrS, Scale::Tiny, policy);

    // A live reader maps the healthy file and keeps a shared flock on its
    // inode for as long as the mapping is alive.
    let reader = map_prepared(&path).unwrap();
    let edges_before = reader.graph().num_undirected_edges();

    // Fault injection: another process truncates the file mid-way while the
    // reader still holds it (flock is advisory; plain writes are not blocked).
    let len = fs::metadata(&path).unwrap().len();
    assert!(len > 2, "fixture file too small to truncate meaningfully");
    File::options()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();
    // From here on the reader's mapping must not be dereferenced: pages past
    // the new EOF would fault (SIGBUS). Only `edges_before` (read earlier)
    // is used below.

    // The cache must degrade to a cold rebuild — no panic, no bad data.
    let before = prepare::metrics();
    let rebuilt = prepared_on_disk(&dir, Dataset::OrS, Scale::Tiny, policy);
    let work = prepare::metrics().since(&before);
    assert_eq!(work.graph_builds, 1, "truncated file must force a rebuild");
    assert_eq!(work.disk_writes, 1, "rebuild repopulates the cache");
    assert_eq!((work.disk_hits, work.mmap_hits), (0, 0));
    assert_same_preparation(&rebuilt, &cold, "rebuild after truncation");
    assert_eq!(rebuilt.graph().num_undirected_edges(), edges_before);

    // The rebuild replaced the path via rename, so the repaired file is a
    // fresh inode: once the reader lets go, warm loads map it as usual.
    drop(reader);
    let before = prepare::metrics();
    let warm = prepared_on_disk(&dir, Dataset::OrS, Scale::Tiny, policy);
    assert_eq!(prepare::metrics().since(&before).mmap_hits, 1);
    assert_same_preparation(&warm, &cold, "warm after repair");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_eviction_order_is_stable_under_equal_mtimes() {
    // Coarse filesystem timestamps can hand several cache files the same
    // mtime; the LRU must then fall back to a deterministic secondary key
    // (the path) so repeated GCs over identical state evict identically.
    let stamp = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000_000);
    let keys = [Dataset::LjS, Dataset::OrS, Dataset::WiS];
    let mut survivors = Vec::new();
    for round in 0..2 {
        let dir = temp_dir(&format!("tie-{round}"));
        for &d in &keys {
            prepared_on_disk(&dir, d, Scale::Tiny, ReorderPolicy::None);
        }
        let mut paths: Vec<PathBuf> = keys
            .iter()
            .map(|&d| cache_path(&dir, d, Scale::Tiny, ReorderPolicy::None))
            .collect();
        for p in &paths {
            File::options()
                .append(true)
                .open(p)
                .unwrap()
                .set_modified(stamp)
                .unwrap();
        }
        // Within an mtime tie, entries sort by path ascending.
        paths.sort();
        let entries = prepare::cache_entries(&dir).unwrap();
        let listed: Vec<PathBuf> = entries.iter().map(|e| e.path.clone()).collect();
        assert_eq!(listed, paths, "tied entries must list in path order");

        // A budget fitting only the head entry evicts from the tail of that
        // order, so exactly the path-ascending minimum survives.
        let out = prepare::cache_gc(&dir, entries[0].bytes).unwrap();
        assert_eq!((out.kept, out.evicted), (1, 2));
        let left = prepare::cache_entries(&dir).unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].path, paths[0]);
        survivors.push(left[0].path.file_name().unwrap().to_owned());
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(survivors[0], survivors[1], "GC outcome must be repeatable");
}

// --- two-process populate race --------------------------------------------

/// Probe re-run by [`concurrent_processes_elect_one_writer`] in child
/// processes; a no-op under normal test runs. Each child waits for the go
/// signal, prepares the same cold key, and prints its work counters.
#[test]
fn race_probe_child() {
    let Ok(dir) = std::env::var("CNC_RACE_DIR") else {
        return;
    };
    let go = PathBuf::from(std::env::var("CNC_RACE_GO").expect("go path set with dir"));
    for _ in 0..1000 {
        if go.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let before = prepare::metrics();
    let pg = prepared_on_disk(
        Path::new(&dir),
        Dataset::OrS,
        Scale::Tiny,
        ReorderPolicy::DegreeDescending,
    );
    let d = prepare::metrics().since(&before);
    println!(
        "RACE_PROBE builds={} writes={} hits={} edges={}",
        d.graph_builds,
        d.disk_writes,
        d.disk_hits,
        pg.graph().num_undirected_edges()
    );
}

#[test]
fn concurrent_processes_elect_one_writer() {
    let dir = temp_dir("race");
    let go = std::env::temp_dir().join(format!("cnc-mapped-{}-race-go", std::process::id()));
    let _ = fs::remove_file(&go);

    let spawn = || {
        Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "race_probe_child",
                "--nocapture",
                "--test-threads",
                "1",
            ])
            .env("CNC_RACE_DIR", &dir)
            .env("CNC_RACE_GO", &go)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn race child")
    };
    let children = [spawn(), spawn()];
    // Both children are waiting on this file; creating it releases them into
    // the cold cache simultaneously.
    fs::write(&go, b"go").unwrap();

    let mut probes = Vec::new();
    for child in children {
        let out = child.wait_with_output().expect("child exit");
        assert!(out.status.success(), "race child failed");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        // With --nocapture the harness prints `test name ... ` without a
        // newline, so the probe output lands mid-line: match by substring.
        let line = stdout
            .lines()
            .find(|l| l.contains("RACE_PROBE"))
            .unwrap_or_else(|| panic!("no probe line in child output:\n{stdout}"))
            .to_string();
        let field = |name: &str| -> u64 {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("missing {name} in {line:?}"))
        };
        probes.push((
            field("builds"),
            field("writes"),
            field("hits"),
            field("edges"),
        ));
    }
    let _ = fs::remove_file(&go);

    let writes: u64 = probes.iter().map(|p| p.1).sum();
    let builds: u64 = probes.iter().map(|p| p.0).sum();
    assert_eq!(writes, 1, "exactly one process may write: {probes:?}");
    assert_eq!(
        builds, 1,
        "the losing process must load, not rebuild: {probes:?}"
    );
    assert_eq!(
        probes[0].3, probes[1].3,
        "both processes see the same graph"
    );
    // The survivor on disk is the winner's single file.
    assert_eq!(prepare::cache_entries(&dir).unwrap().len(), 1);
    let _ = fs::remove_dir_all(&dir);
}
