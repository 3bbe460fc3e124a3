#!/usr/bin/env python3
"""Build the perf ledger from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload count-skew --seed 1 --seconds 20 --trace 0

Workloads: count-skew, count-uniform, serve-open (see perfbench/METRICS.md).
The release `cnc` binary (the shard pass's worker executable) and the
benchmark crate are built with cargo into $CARGO_TARGET_DIR (default
`.bench_build`). The last line of stdout is the run's JSON result; build
output goes to stderr. Exits non-zero without a result when the build or
the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("count-skew", "count-uniform", "serve-open")
# Per-run working files (.prep images, spill runs, sockets, span dumps).
WORK_DIR = ".perfbench-run"
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build(env):
    """Build `cnc` and the benchmark; return the benchmark's path or None."""
    manifests = ("Cargo.toml", os.path.join("perfbench", "Cargo.toml"))
    for manifest in manifests:
        if not os.path.isfile(manifest):
            print(f"perfbench: {manifest} not found; run from the repository root",
                  file=sys.stderr)
            return None
    steps = (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifests[0], "--bin", "cnc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifests[1]],
    )
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny graphs and short phases (for perfbench/smoke_test.py)")
    args = p.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    release = build(env)
    if release is None:
        return 2
    cmd = [
        os.path.join(release, "cnc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cnc", os.path.join(release, "cnc"),
        "--work-dir", WORK_DIR,
    ]
    if args.smoke:
        cmd.append("--smoke")
    # One malloc arena, so peak_rss_mb tracks the memory the program holds
    # rather than which of glibc's per-thread arenas each short-lived worker
    # thread happened to allocate in (see METRICS.md).
    run_env = dict(env, MALLOC_ARENA_MAX="1")
    try:
        return subprocess.run(cmd, env=run_env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the benchmark and waits for it on timeout.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
