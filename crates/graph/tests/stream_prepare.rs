//! The bounded-memory streaming preparation pipeline, differentially
//! against the in-memory builder: streamed `CNCPREP4` images must be
//! **byte-identical** to [`write_prepared`] on every dataset analogue and
//! on arbitrary edge lists, the `CNC_PREP_MEM_BYTES` environment routing
//! must produce the same cache file the unbudgeted path writes, and every
//! injected fault (missing input, malformed lines, unusable spill
//! directory) must surface as a typed `io::Error`, never a panic.

#![cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]

use std::fs;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::prepare::{self, cache_path, prepared_on_disk, write_prepared};
use cnc_graph::stream::{self, StreamConfig};
use cnc_graph::{EdgeList, PreparedGraph, ReorderPolicy};
use proptest::prelude::*;

static SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique throwaway path per use (tests run concurrently and must not
/// share disk state).
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cnc-streamtest-{}-{}-{name}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn budgeted(bytes: u64) -> StreamConfig {
    StreamConfig {
        mem_budget: Some(bytes),
        spill_dir: None,
    }
}

/// The serialized image the in-memory pipeline would cache for `el`.
fn memory_image(el: &EdgeList, policy: ReorderPolicy) -> Vec<u8> {
    let pg = PreparedGraph::from_edge_list(el, policy);
    let mut out = Vec::new();
    write_prepared(&pg, &mut out).expect("vec write cannot fail");
    out
}

#[test]
fn every_dataset_analogue_streams_byte_identical() {
    for dataset in Dataset::ALL {
        for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            let el = dataset.edge_list(Scale::Tiny);
            let out = temp_path("analogue.prep");
            let summary = stream::prepare_pairs_to_file(
                el.num_vertices,
                el.iter(),
                policy,
                &out,
                &budgeted(4096),
            )
            .expect("streamed preparation must succeed");
            assert!(
                summary.spill_runs > 0,
                "{}: a 4 KiB budget must spill on {} edges",
                dataset.name(),
                el.len()
            );
            assert_eq!(
                fs::read(&out).expect("image readable"),
                memory_image(&el, policy),
                "{}/{}: streamed image differs from the in-memory writer",
                dataset.name(),
                policy.tag()
            );
            let _ = fs::remove_file(&out);
        }
    }
}

#[test]
fn env_budget_routes_cache_build_through_streamer() {
    // This is the only test in this binary touching the process environment
    // (metrics are per-thread, but the environment is process-global).
    let dir = temp_path("env-route");
    let dataset = Dataset::OrS;
    let policy = ReorderPolicy::DegreeDescending;
    let path = cache_path(&dir, dataset, Scale::Tiny, policy);

    // Reference: the unbudgeted in-memory cold build and its cache file.
    let unbudgeted = prepared_on_disk(&dir, dataset, Scale::Tiny, policy);
    let want = fs::read(&path).expect("cold build must write the cache file");
    fs::remove_file(&path).expect("evict for the streamed rebuild");

    std::env::set_var(stream::PREP_MEM_BYTES_ENV, "4096");
    let before = prepare::metrics();
    let streamed = prepared_on_disk(&dir, dataset, Scale::Tiny, policy);
    let work = prepare::metrics().since(&before);
    std::env::remove_var(stream::PREP_MEM_BYTES_ENV);

    assert_eq!(work.graph_builds, 1, "cold streamed build counts once");
    assert_eq!(work.reorders, 1, "degdesc policy counts a reorder");
    assert_eq!(work.disk_writes, 1, "streamed build writes the cache");
    assert!(work.spill_runs > 0, "4 KiB budget must spill");
    assert!(work.spill_bytes > 0);
    assert!(work.peak_resident_bytes > 0, "peak accounting must record");
    assert_eq!(work.mmap_hits, 1, "streamed cold build maps its own output");
    assert!(streamed.graph().storage_mapped(), "served zero-copy");

    assert_eq!(
        fs::read(&path).expect("streamed cache file"),
        want,
        "streamed cache file must be byte-identical to the unbudgeted one"
    );
    assert_eq!(streamed.graph(), unbudgeted.graph());
    assert_eq!(streamed.reordered(), unbudgeted.reordered());
    assert_eq!(streamed.skew_pct(), unbudgeted.skew_pct());
    assert_eq!(streamed.stats(), unbudgeted.stats());
    assert_eq!(streamed.capacity_scale(), unbudgeted.capacity_scale());

    // Warm load (no env): the streamed file serves like any cache file.
    let before = prepare::metrics();
    let warm = prepared_on_disk(&dir, dataset, Scale::Tiny, policy);
    let work = prepare::metrics().since(&before);
    assert_eq!(work.graph_builds, 0, "no rebuild on warm hit");
    assert_eq!(work.mmap_hits, 1);
    assert_eq!(warm.graph(), unbudgeted.graph());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_input_is_typed_error() {
    let out = temp_path("missing.prep");
    let err = stream::prepare_file(
        &temp_path("does-not-exist.txt"),
        &out,
        ReorderPolicy::None,
        &budgeted(4096),
    )
    .expect_err("missing input must fail");
    assert_eq!(err.kind(), ErrorKind::NotFound);
}

#[test]
fn malformed_text_reports_line_and_content() {
    let input = temp_path("malformed.txt");
    fs::write(&input, "# ok\n0 1\n1 2\nfoo bar\n").expect("write input");
    let out = temp_path("malformed.prep");
    let err = stream::prepare_file(&input, &out, ReorderPolicy::None, &budgeted(4096))
        .expect_err("malformed line must fail");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("line 4"), "wrong line number: {msg}");
    assert!(msg.contains("foo"), "missing offending text: {msg}");
    let _ = fs::remove_file(&input);
}

#[test]
fn unusable_spill_dir_is_typed_error() {
    // Point the spill base at a regular file: creating run directories
    // under it must fail with a typed error before any data is written.
    let base = temp_path("spill-base-file");
    fs::write(&base, b"not a directory").expect("write blocker file");
    let el = cnc_graph::generators::gnm(50, 120, 3);
    let out = temp_path("spill.prep");
    let cfg = StreamConfig {
        mem_budget: Some(4096),
        spill_dir: Some(base.clone()),
    };
    let err =
        stream::prepare_pairs_to_file(el.num_vertices, el.iter(), ReorderPolicy::None, &out, &cfg)
            .expect_err("file-as-spill-dir must fail");
    assert_ne!(
        err.kind(),
        ErrorKind::Other,
        "should be a concrete kind: {err}"
    );
    let _ = fs::remove_file(&base);
}

/// Strategy: an arbitrary raw pair list over up to `n` vertices — loops,
/// duplicates and reversed orientations included.
fn pairs(n: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole differential property: for arbitrary messy pair lists,
    /// any budget, and both policies, the streamed image is byte-for-byte
    /// what the in-memory pipeline serializes.
    #[test]
    fn streamed_image_matches_memory_writer(
        ps in pairs(64, 300),
        degdesc in any::<bool>(),
        budget in 1u64..8192,
    ) {
        let policy = if degdesc {
            ReorderPolicy::DegreeDescending
        } else {
            ReorderPolicy::None
        };
        let el = EdgeList::from_pairs(ps.iter().copied());
        let out = temp_path("prop.prep");
        // Feed the raw (unnormalized) pairs: the streamer must do its own
        // canonicalization and vertex-count inference.
        stream::prepare_pairs_to_file(0, ps.iter().copied(), policy, &out, &budgeted(budget))
            .expect("streamed preparation must succeed");
        prop_assert_eq!(
            fs::read(&out).expect("image readable"),
            memory_image(&el, policy)
        );
        let _ = fs::remove_file(&out);
    }
}
