//! The `cnc` binary refuses a flag no parser consumes by name, before it
//! resolves `GRAPH`, so a misspelled or retired flag (`--schedule`) fails
//! loudly instead of being read as the graph file or reported as a clash
//! with `--dataset`; it refuses a value-taking flag given without its
//! value or with a malformed one; and `--platform` defaults to the
//! parallel CPU. Drives the binary built by this package
//! (`CARGO_BIN_EXE_cnc`); every refused case fails before any graph is
//! read.

use std::process::Command;

#[test]
fn unknown_flags_are_refused_by_name() {
    let missing = std::env::temp_dir().join(format!("cnc-cli-missing-{}.txt", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], &str); 9] = [
        (&["count", "--dataset", "tw-s", "--bogus", "x"], "--bogus"),
        (&["count", "--bogus"], "--bogus"),
        (&["count", missing, "--schedule", "balanced"], "--schedule"),
        (&["stats", missing, "--schedule", "uniform"], "--schedule"),
        (&["serve", "--dataset", "tw-s", "--bogus", "x"], "--bogus"),
        (&["serve", "--bogus"], "--bogus"),
        (&["serve", missing, "--schedule", "balanced"], "--schedule"),
        (&["run", "--bogus"], "--bogus"),
        (&["prepare", "--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cnc"))
            .args(args)
            .output()
            .expect("spawn cnc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("cnc: unknown flag \"{flag}\""),
            "{args:?}"
        );
    }
}

/// A value-taking flag with nothing after it, or with the next flag where
/// its value belongs, is refused with exit 1 like every other bad input,
/// and the next flag is never taken as the value (no file named `--trace`).
#[test]
fn flags_without_values_are_refused() {
    let dir = std::env::temp_dir().join(format!("cnc-cli-novalue-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases: [(&[&str], &str); 4] = [
        (&["count", "--dataset", "tw-s", "--out", "--trace"], "--out"),
        (&["count", "--dataset"], "--dataset"),
        (&["run", "--scale", "--trace"], "--scale"),
        (&["--simd"], "--simd"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cnc"))
            .args(args)
            .current_dir(&dir)
            .env("CNC_CACHE_DIR", dir.join("cache"))
            .output()
            .expect("spawn cnc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("cnc: {flag} needs a value"),
            "{args:?}"
        );
    }
    let trace_file = dir.join("--trace").exists();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(!trace_file, "a flag was written to as a file");
}

/// Every subcommand defaults to the parallel CPU platform; no graph size or
/// environment variable switches the default to a modeled platform.
#[test]
fn count_defaults_to_the_parallel_cpu() {
    let dir = std::env::temp_dir().join(format!("cnc-cli-platform-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_cnc"))
        .args(["count", "--dataset", "tw-s", "--scale", "tiny"])
        .env("CNC_CACHE_DIR", dir.join("cache"))
        .env("CNC_GPU_UM_THRESHOLD_BYTES", "1")
        .output()
        .expect("spawn cnc");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    let report = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{report}");
    assert!(report.starts_with("tw-s:tiny: cpu-par "), "{report}");
}

/// The shard worker refuses a malformed `--attempt` as it refuses the
/// other numeric flags, before it opens the prepared graph.
#[test]
fn shard_worker_refuses_a_malformed_attempt() {
    let missing = std::env::temp_dir().join(format!("cnc-cli-missing-{}.prep", std::process::id()));
    let args = [
        "shard-worker",
        "--prep",
        missing.to_str().expect("utf-8 temp path"),
        "--shard",
        "0",
        "--start",
        "0",
        "--end",
        "10",
        "--attempt",
        "x",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_cnc"))
        .args(args)
        .output()
        .expect("spawn cnc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        "cnc: bad --attempt: invalid digit found in string"
    );
}
