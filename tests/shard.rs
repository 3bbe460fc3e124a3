//! Differential tests for multi-process sharded execution (`cnc-shard`).
//!
//! The layer's acceptance property is byte-identity: for every worker
//! count, the assembled per-edge counts must equal a single-process run of
//! the same plan exactly. These tests spawn real worker processes — the
//! `cnc` binary built by this package (`CARGO_BIN_EXE_cnc`) — against
//! prepared-graph files written to the system temp directory, so they
//! exercise the full coordinator/worker wire path, not an in-process
//! simulation. Fault injection is passed per-child via `ShardConfig`
//! (never `std::env::set_var` — tests run in parallel threads).

use std::path::PathBuf;
use std::sync::Arc;

use cnc_core::{Algorithm, Platform, Runner};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::{prepare, PreparedGraph, ReorderPolicy};
use cnc_obs::{Counter, ObsContext};
use cnc_shard::{run_sharded, ShardConfig, ShardError};

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_cnc"))
}

/// Write `pg` to a uniquely named prep file; returns the path.
fn write_prep(pg: &PreparedGraph, tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("cnc-shard-test-{}-{tag}.prep", std::process::id()));
    let f = std::fs::File::create(&path).expect("create prep file");
    prepare::write_prepared(pg, f).expect("write prep file");
    path
}

fn config(prep: PathBuf, workers: usize, algorithm: Algorithm) -> ShardConfig {
    ShardConfig {
        workers,
        algorithm,
        reorder: None,
        worker_exe: worker_exe(),
        prep_path: prep,
        fail_spec: None,
    }
}

fn oracle(pg: &PreparedGraph, algorithm: Algorithm, reorder: Option<bool>) -> Vec<u32> {
    let mut runner = Runner::new(Platform::CpuSequential, algorithm);
    if let Some(r) = reorder {
        runner = runner.reorder(r);
    }
    runner.run_prepared(pg).into_counts()
}

#[test]
fn sharded_counts_match_single_process_on_every_dataset() {
    for d in Dataset::ALL {
        for (reorder, policy) in [
            (None, ReorderPolicy::DegreeDescending),
            (Some(false), ReorderPolicy::None),
        ] {
            let pg = PreparedGraph::from_csr(d.build(Scale::Tiny), policy);
            let tag = format!("{}-{policy:?}", d.name());
            let prep = write_prep(&pg, &tag);
            let want = oracle(&pg, Algorithm::bmp_rf(), reorder);
            for workers in [2usize, 4, 8] {
                let mut cfg = config(prep.clone(), workers, Algorithm::bmp_rf());
                cfg.reorder = reorder;
                let out =
                    run_sharded(&pg, &cfg).unwrap_or_else(|e| panic!("{tag} x{workers}: {e}"));
                assert_eq!(
                    out.counts, want,
                    "{tag} with {workers} workers must be byte-identical"
                );
                assert_eq!(out.worker_failures, 0, "{tag} x{workers}");
                assert!(out.workers >= 1 && out.workers <= workers);
                assert!(out.range_cost_max >= out.range_cost_min);
                assert!(out.work.intersections > 0, "workers must ship work counts");
            }
            let _ = std::fs::remove_file(&prep);
        }
    }
}

#[test]
fn every_tokenizable_algorithm_shards_identically() {
    let pg = PreparedGraph::from_csr(
        Dataset::TwS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "algos");
    for algorithm in [Algorithm::MergeBaseline, Algorithm::mps(), Algorithm::bmp()] {
        let want = oracle(&pg, algorithm, None);
        for workers in [3usize, 5] {
            let out = run_sharded(&pg, &config(prep.clone(), workers, algorithm))
                .unwrap_or_else(|e| panic!("{} x{workers}: {e}", algorithm.label()));
            assert_eq!(
                out.counts,
                want,
                "{} with {workers} workers",
                algorithm.label()
            );
        }
    }
    let _ = std::fs::remove_file(&prep);
}

#[test]
fn killed_worker_is_retried_once_and_counted() {
    let pg = PreparedGraph::from_csr(
        Dataset::TwS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "kill");
    let want = oracle(&pg, Algorithm::bmp_rf(), None);

    // Shard 1's first attempt dies mid-stream; the retry must succeed and
    // the output must stay byte-identical.
    let ctx = Arc::new(ObsContext::new());
    let out = {
        let _obs = ctx.install();
        let mut cfg = config(prep.clone(), 4, Algorithm::bmp_rf());
        cfg.fail_spec = Some("1:0".into());
        run_sharded(&pg, &cfg).expect("retry must recover")
    };
    assert_eq!(out.counts, want, "retried run must stay byte-identical");
    assert_eq!(out.worker_failures, 1);
    let report = cnc_obs::RunReport::from_context(&ctx);
    assert_eq!(report.counter(Counter::ShardWorkerFailures), 1);
    assert_eq!(
        report.counter(Counter::ShardWorkers),
        out.workers as u64 + 1,
        "the failed attempt counts as a spawned worker"
    );
    assert!(report.counter(Counter::ShardRangeCostMax) > 0);
    let shard_span = report
        .spans
        .iter()
        .find(|s| s.name == "shard")
        .expect("shard span at the root");
    // One execute span per worker, then the assembly and the remap.
    let names: Vec<&str> = shard_span.children.iter().map(|c| c.name).collect();
    let mut want = vec!["execute"; out.workers];
    want.extend(["assemble", "remap"]);
    assert_eq!(names, want);
    let executes = &shard_span.children[..out.workers];
    assert!(executes.iter().all(|c| c.items > 0));
    // Every worker report records its stages.
    for worker in &out.worker_reports {
        for stage in ["\"load\"", "\"plan\"", "\"execute\"", "\"frame\""] {
            assert!(worker.contains(stage), "{stage} missing from {worker}");
        }
    }

    // Both attempts dying exhausts the retry budget: a typed error naming
    // the shard and the attempt count.
    let mut cfg = config(prep.clone(), 4, Algorithm::bmp_rf());
    cfg.fail_spec = Some("1:0,1:1".into());
    match run_sharded(&pg, &cfg) {
        Err(ShardError::Worker {
            shard, attempts, ..
        }) => {
            assert_eq!(shard, 1);
            assert_eq!(attempts, 2);
        }
        other => panic!("expected ShardError::Worker, got {other:?}"),
    }
    let _ = std::fs::remove_file(&prep);
}

#[test]
fn missing_worker_executable_is_a_spawn_error() {
    let pg = PreparedGraph::from_csr(
        Dataset::WiS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "spawn");
    let mut cfg = config(prep.clone(), 2, Algorithm::bmp_rf());
    cfg.worker_exe = PathBuf::from("/nonexistent/cnc-no-such-binary");
    match run_sharded(&pg, &cfg) {
        Err(ShardError::Spawn { .. }) => {}
        other => panic!("expected ShardError::Spawn, got {other:?}"),
    }
    let _ = std::fs::remove_file(&prep);
}

#[test]
fn custom_mps_config_is_rejected_with_a_typed_error() {
    let pg = PreparedGraph::from_csr(
        Dataset::WiS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "algo-reject");
    let custom = Algorithm::Mps(cnc_intersect::MpsConfig {
        skew_threshold: 7,
        ..cnc_intersect::MpsConfig::default()
    });
    match run_sharded(&pg, &config(prep.clone(), 2, custom)) {
        Err(ShardError::Algorithm(msg)) => {
            assert!(msg.contains("MPS"), "unhelpful error: {msg}")
        }
        other => panic!("expected ShardError::Algorithm, got {other:?}"),
    }
    let _ = std::fs::remove_file(&prep);
}

/// An RF ratio of 2^32 cannot address a `u32` id. The coordinator refuses
/// it at plan time, and a worker handed the token directly refuses it too:
/// a typed reason on the wire, reported there only, and exit status 1, not
/// a panic.
#[test]
#[cfg(target_pointer_width = "64")]
fn rf_ratio_past_a_u32_shift_is_refused_by_coordinator_and_worker() {
    use cnc_core::{PlanError, RfChoice};
    use cnc_intersect::RfRatioError;
    use cnc_shard::protocol::{read_frame, FrameRead};
    use cnc_shard::{decode_msg, WorkerMsg};

    let pg = PreparedGraph::from_csr(
        Dataset::TwS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "rf-too-large");
    let too_large = 1usize << 32;
    match run_sharded(
        &pg,
        &config(prep.clone(), 2, Algorithm::Bmp(RfChoice::Ratio(too_large))),
    ) {
        Err(ShardError::Plan(PlanError::InvalidRfRatio(RfRatioError::TooLarge(r)))) => {
            assert_eq!(r, too_large)
        }
        other => panic!("expected a typed plan error, got {other:?}"),
    }
    let end = pg.graph().num_directed_edges().to_string();
    let out = std::process::Command::new(worker_exe())
        .arg("shard-worker")
        .arg("--prep")
        .arg(&prep)
        .args(["--algo", "bmp-rf:4294967296", "--shard", "0"])
        .args(["--start", "0", "--end", end.as_str()])
        .output()
        .expect("worker runs");
    let _ = std::fs::remove_file(&prep);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("RF ratio must be at most"), "{stderr}");
    let mut wire = &out.stdout[..];
    let mut msgs = Vec::new();
    while let FrameRead::Payload(p) = read_frame(&mut wire).expect("whole frames") {
        msgs.push(decode_msg(&p).expect("a worker message"));
    }
    match msgs.as_slice() {
        [WorkerMsg::Hello { .. }, WorkerMsg::Error(reason)] => {
            assert!(reason.contains("RF ratio must be at most"), "{reason}")
        }
        other => panic!("expected Hello then Error, got {other:?}"),
    }
}

/// A corrupt image is refused once, for the section the worker reads: one
/// flipped byte in the relabeled neighbors (section 4) fails that section's
/// checksum, and the reason says so, on both attempts.
#[test]
fn corrupt_execution_section_is_a_typed_worker_error() {
    let pg = PreparedGraph::from_csr(
        Dataset::TwS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "corrupt");
    let mut image = std::fs::read(&prep).expect("read prep file");
    let _ = std::fs::remove_file(&prep);
    // Sections are 64-byte aligned after a 64-byte header; each has a
    // 64-byte header before its payload. Walk to section 4's payload.
    let mut pos = 64;
    for _ in 0..4 {
        let len = u64::from_le_bytes(image[pos..pos + 8].try_into().unwrap()) as usize;
        pos = (pos + 64 + len).next_multiple_of(64);
    }
    image[pos + 64] ^= 0x01;
    let corrupt = std::env::temp_dir().join(format!(
        "cnc-shard-test-{}-corrupt-copy.prep",
        std::process::id()
    ));
    std::fs::write(&corrupt, &image).expect("write corrupt copy");
    let result = run_sharded(&pg, &config(corrupt.clone(), 2, Algorithm::bmp_rf()));
    let _ = std::fs::remove_file(&corrupt);
    match result {
        Err(ShardError::Worker {
            attempts, reason, ..
        }) => {
            assert_eq!(attempts, 2);
            // Once: the worker's terminal frame carries the reason, and
            // its stderr does not repeat it.
            assert_eq!(
                reason.matches("checksum mismatch in section 4").count(),
                1,
                "{reason}"
            );
        }
        other => panic!("expected ShardError::Worker, got {other:?}"),
    }
}

/// A failed worker's stderr reaches the error: a stub worker that
/// complains on stderr and exits 3 without a frame.
#[test]
#[cfg(unix)]
fn failed_worker_stderr_is_kept_in_the_error() {
    use std::os::unix::fs::PermissionsExt;

    let pg = PreparedGraph::from_csr(
        Dataset::WiS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "stderr");
    let stub = std::env::temp_dir().join(format!(
        "cnc-shard-test-{}-stub-worker.sh",
        std::process::id()
    ));
    // About 90 KB: more than a pipe buffer, so the worker finishes only
    // if its stderr is drained while it runs, and far more than the kept
    // tail, so only the last lines survive.
    std::fs::write(
        &stub,
        "#!/bin/sh\n\
         i=0\n\
         while [ $i -lt 6000 ]; do echo \"noise line $i\" >&2; i=$((i+1)); done\n\
         echo 'stub worker: out of cheese' >&2\n\
         exit 3\n",
    )
    .expect("write stub");
    std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    let mut cfg = config(prep.clone(), 2, Algorithm::bmp_rf());
    cfg.worker_exe = stub.clone();
    let result = run_sharded(&pg, &cfg);
    let _ = std::fs::remove_file(&stub);
    let _ = std::fs::remove_file(&prep);
    match result {
        Err(ShardError::Worker {
            attempts, reason, ..
        }) => {
            assert_eq!(attempts, 2);
            assert!(
                reason.contains("worker closed its stream early"),
                "{reason}"
            );
            assert!(reason.ends_with("stub worker: out of cheese"), "{reason}");
            assert!(!reason.contains("noise line 0\n"), "the tail is bounded");
            let kept = cnc_shard::coordinator::STDERR_TAIL_BYTES;
            assert!(reason.len() < kept + 200, "{} bytes", reason.len());
        }
        other => panic!("expected ShardError::Worker, got {other:?}"),
    }
}
