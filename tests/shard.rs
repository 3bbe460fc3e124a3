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
    assert_eq!(shard_span.children.len(), out.workers);
    assert!(shard_span.children.iter().all(|c| c.name == "execute"));
    assert!(shard_span.children.iter().all(|c| c.items > 0));

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
/// a typed reason on the wire and exit status 1, not a panic.
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
    assert!(stderr.contains("RF ratio must be at most"), "{stderr}");
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
