//! The shard coordinator: cut, spawn, scatter-gather, assemble.
//!
//! [`run_sharded`] plans once (same planner as a single-process run), cuts
//! the directed edge range into cost-balanced source-aligned blocks with
//! the kernel-aware cost model (`cnc_cpu::cut_source_blocks`; unlike the
//! in-process pass's claimed chunks, a block is fixed once its worker
//! starts), and spawns one worker process per block. The blocks tile the
//! edge range in order, so the output array is split into one slice per
//! block before any worker starts, and each worker's count section is
//! decoded straight into its slice. One pass then fills every `u > v` slot
//! from its `u < v` twin (`CsrGraph::mirror_counts`, the symmetric
//! assignment's post-pass), whichever block the twin lies in. Every `u < v`
//! slot holds its worker's exact count, so the assembled array is
//! byte-identical to a single-process run — the differential tests and the
//! CI smoke job `cmp` the output files to hold that line.
//!
//! Failure policy: a worker that dies mid-stream (crash, truncated frame,
//! nonzero exit) gets exactly one retry; a second failure surfaces as
//! [`ShardError::Worker`] with the shard index and attempt count, its
//! reason followed by the last [`STDERR_TAIL_BYTES`] of the failed
//! worker's stderr (a thread drains each worker's stderr pipe, so a chatty
//! worker never blocks on it). Spawn failures (missing executable) are not
//! retried — nothing transient about them. Every failure increments the
//! `shard.worker_failures` counter.
//!
//! With an ambient `ObsContext`, the `shard` span holds one `execute` span
//! per worker, then `assemble` (the mirror pass over the assembled array)
//! and `remap` (back to the input graph's offsets).

use std::io::Read;
use std::path::PathBuf;
use std::process::{ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use cnc_core::{Algorithm, Runner};
use cnc_cpu::cut_source_blocks;
use cnc_graph::PreparedGraph;
use cnc_intersect::WorkCounts;
use cnc_obs::{Counter, ObsContext};
use cnc_workload::CncWorkload;

use crate::protocol::{decode_msg, read_frame, FrameRead, ShardTally, WorkerMsg};
use crate::worker::FAIL_ENV;
use crate::{algo_token, ShardError};

/// How the coordinator launches and pairs its workers.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of worker processes to aim for (the source-aligned cutter may
    /// produce fewer blocks on tiny graphs; zero is treated as one).
    pub workers: usize,
    /// The algorithm every worker plans (must have a wire token — see
    /// [`algo_token`]).
    pub algorithm: Algorithm,
    /// Explicit reorder override, forwarded verbatim to every worker;
    /// `None` lets both sides use the runner's default.
    pub reorder: Option<bool>,
    /// The executable to spawn with the hidden `shard-worker` subcommand
    /// (normally `std::env::current_exe()` — the same binary).
    pub worker_exe: PathBuf,
    /// Path to the shared prepared-graph file every worker loads.
    pub prep_path: PathBuf,
    /// Fault-injection spec to place in each child's [`FAIL_ENV`]
    /// (tests and the CI retry smoke only).
    pub fail_spec: Option<String>,
}

/// What a sharded run produced.
#[derive(Debug)]
pub struct ShardOutput {
    /// Per-edge counts in the *input* graph's directed edge offsets —
    /// byte-identical to a single-process run.
    pub counts: Vec<u32>,
    /// Exact kernel work, merged across all workers.
    pub work: WorkCounts,
    /// The workers' own observability snapshots (cnc-metrics report JSON),
    /// in shard order; empty strings for workers that skipped the report.
    pub worker_reports: Vec<String>,
    /// Worker processes that completed the run (= number of blocks).
    pub workers: usize,
    /// Worker attempts that failed (each mid-stream death earns one retry).
    pub worker_failures: u64,
    /// Largest per-block estimated cost under the kernel's model.
    pub range_cost_max: u64,
    /// Smallest per-block estimated cost under the kernel's model.
    pub range_cost_min: u64,
    /// Coordinator wall-clock seconds for the whole scatter-gather.
    pub wall_seconds: f64,
}

/// How much of a worker's stderr the coordinator keeps: its last bytes,
/// appended to the reason of a failed attempt.
pub const STDERR_TAIL_BYTES: usize = 4096;

/// What one worker attempt's stream carried besides its section.
struct WorkerRun {
    report: String,
    tally: ShardTally,
}

/// Why one attempt failed (decides retry eligibility).
enum OneErr {
    /// The process could not be started at all — not retried.
    Spawn(String),
    /// The worker died or mis-spoke mid-stream — retried once.
    Failed(String),
}

/// Execute the full edge range of `prepared` across worker processes.
pub fn run_sharded(prepared: &PreparedGraph, cfg: &ShardConfig) -> Result<ShardOutput, ShardError> {
    let t0 = Instant::now();
    let runner = {
        let base = Runner::new(cnc_core::Platform::CpuSequential, cfg.algorithm);
        match cfg.reorder {
            Some(r) => base.reorder(r),
            None => base,
        }
    };
    let plan = runner.plan(prepared)?;
    let g = prepared.execution_graph(plan.reorder);
    let m = g.num_directed_edges();
    let blocks = cut_source_blocks(
        g,
        &plan.cpu_kernel.cost_model(),
        &CncWorkload,
        cfg.workers.max(1),
    );
    let algo = algo_token(cfg.algorithm)?;
    // The blocks tile `0..m` in order, so splitting the output once hands
    // each monitor thread its block's slice to decode the section into.
    let mut full = vec![0u32; m];
    let mut rest = full.as_mut_slice();
    let sections: Vec<&mut [u32]> = blocks
        .iter()
        .map(|block| {
            debug_assert_eq!(block.range.start, m - rest.len(), "blocks tile 0..m");
            let (section, tail) = std::mem::take(&mut rest).split_at_mut(block.range.len());
            rest = tail;
            section
        })
        .collect();
    let obs = ObsContext::current();
    let spawned_workers = AtomicU64::new(0);
    let failures = AtomicU64::new(0);

    // The shard span parents every per-worker execute span, then the
    // assembly and the remap; monitor threads attach explicitly by id
    // because span nesting is thread-local.
    let shard_span = obs.as_ref().map(|ctx| ctx.span("shard"));
    let results: Vec<Result<WorkerRun, ShardError>> = {
        let parent = shard_span.as_ref().map(|s| s.id());
        std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .iter()
                .zip(sections)
                .enumerate()
                .map(|(shard, (block, section))| {
                    let obs = &obs;
                    let algo = &algo;
                    let spawned_workers = &spawned_workers;
                    let failures = &failures;
                    let range = block.range.clone();
                    scope.spawn(move || {
                        let mut span = obs.as_ref().map(|ctx| ctx.span_under("execute", parent));
                        if let Some(s) = span.as_mut() {
                            s.set_items(range.len() as u64);
                        }
                        let mut last = String::new();
                        for attempt in 0..2 {
                            spawned_workers.fetch_add(1, Ordering::Relaxed);
                            match run_one(cfg, algo, shard, range.clone(), attempt, section) {
                                Ok(run) => return Ok(run),
                                Err(OneErr::Spawn(error)) => {
                                    failures.fetch_add(1, Ordering::Relaxed);
                                    return Err(ShardError::Spawn { shard, error });
                                }
                                Err(OneErr::Failed(reason)) => {
                                    failures.fetch_add(1, Ordering::Relaxed);
                                    last = reason;
                                }
                            }
                        }
                        Err(ShardError::Worker {
                            shard,
                            attempts: 2,
                            reason: last,
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard monitor thread panicked"))
                .collect()
        })
    };

    let worker_failures = failures.load(Ordering::Relaxed);
    let range_cost_max = blocks.iter().map(|b| b.est_cost).max().unwrap_or(0);
    let range_cost_min = blocks.iter().map(|b| b.est_cost).min().unwrap_or(0);
    if let Some(ctx) = &obs {
        ctx.add(
            Counter::ShardWorkers,
            spawned_workers.load(Ordering::Relaxed),
        );
        ctx.add(Counter::ShardWorkerFailures, worker_failures);
        ctx.add(Counter::ShardRangeCostMax, range_cost_max);
        ctx.add(Counter::ShardRangeCostMin, range_cost_min);
    }

    let mut runs = Vec::with_capacity(results.len());
    for r in results {
        runs.push(r?);
    }

    // The sections are in place; fill every mirror slot from its twin.
    {
        let _s = obs.as_ref().map(|ctx| ctx.span("assemble"));
        g.mirror_counts(&mut full);
    }

    let mut work = WorkCounts::default();
    let (mut rebuilds, mut visited, mut skipped) = (0u64, 0u64, 0u64);
    let mut worker_reports = Vec::with_capacity(runs.len());
    for run in &runs {
        work.merge(&run.tally.work);
        rebuilds += run.tally.rebuilds;
        visited += run.tally.visited;
        skipped += run.tally.skipped;
        worker_reports.push(run.report.clone());
    }
    if let Some(ctx) = &obs {
        ctx.add(Counter::KernelSourceRebuilds, rebuilds);
        ctx.add(Counter::WorkloadEdgesVisited, visited);
        ctx.add(Counter::WorkloadEdgesSkipped, skipped);
        work.record_to(&**ctx);
    }

    // One remap back to the input graph's offsets, exactly where the
    // single-process runner does it.
    let counts = match prepared.reordered().filter(|_| plan.reorder) {
        Some(r) => {
            let _s = obs.as_ref().map(|ctx| ctx.span("remap"));
            cnc_core::remap::counts_to_original(prepared.graph(), r, &full)
        }
        None => full,
    };
    drop(shard_span);

    Ok(ShardOutput {
        counts,
        work,
        worker_reports,
        workers: runs.len(),
        worker_failures,
        range_cost_max,
        range_cost_min,
        wall_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// One attempt at one block: spawn its worker and decode its section into
/// `section` from the start.
fn run_one(
    cfg: &ShardConfig,
    algo: &str,
    shard: usize,
    range: std::ops::Range<usize>,
    attempt: usize,
    section: &mut [u32],
) -> Result<WorkerRun, OneErr> {
    let mut cmd = Command::new(&cfg.worker_exe);
    cmd.arg("shard-worker")
        .arg("--prep")
        .arg(&cfg.prep_path)
        .arg("--algo")
        .arg(algo)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--start")
        .arg(range.start.to_string())
        .arg("--end")
        .arg(range.end.to_string())
        .arg("--attempt")
        .arg(attempt.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(reorder) = cfg.reorder {
        cmd.arg("--reorder").arg(if reorder { "on" } else { "off" });
    }
    if let Some(spec) = &cfg.fail_spec {
        cmd.env(FAIL_ENV, spec);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| OneErr::Spawn(format!("cannot spawn {}: {e}", cfg.worker_exe.display())))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let stderr = drain_tail(child.stderr.take().expect("stderr was piped"));
    let outcome = match read_worker_stream(stdout, shard, &range, section) {
        Ok(run) => match child.wait() {
            Ok(status) if status.success() => Ok(run),
            Ok(status) => Err(format!(
                "worker exited with {status} after completing its stream"
            )),
            Err(e) => Err(format!("wait failed: {e}")),
        },
        Err(reason) => {
            // Never leave a zombie: the stream is broken, so the process is
            // of no further use regardless of what it thinks it is doing.
            let _ = child.kill();
            let _ = child.wait();
            Err(reason)
        }
    };
    // The worker has exited, so its stderr is at end of file.
    let tail = stderr.join().unwrap_or_default();
    outcome.map_err(|reason| match tail.trim_end() {
        "" => OneErr::Failed(reason),
        tail => OneErr::Failed(format!("{reason}; worker stderr: {tail}")),
    })
}

/// Drain `stderr` on its own thread until end of file and hand back its
/// last [`STDERR_TAIL_BYTES`] as text.
fn drain_tail(mut stderr: ChildStderr) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut tail: Vec<u8> = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match stderr.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    tail.extend_from_slice(&buf[..n]);
                    let excess = tail.len().saturating_sub(STDERR_TAIL_BYTES);
                    tail.drain(..excess);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        String::from_utf8_lossy(&tail).into_owned()
    })
}

/// Read one worker's stream, decoding its `Counts` frames in order into
/// `section` (one slot per edge of `range`), and check it frame by frame.
fn read_worker_stream(
    mut stdout: impl Read,
    shard: usize,
    range: &std::ops::Range<usize>,
    section: &mut [u32],
) -> Result<WorkerRun, String> {
    let want = section.len();
    let mut filled = 0;
    let mut report = String::new();
    let mut hello_seen = false;
    loop {
        let payload = match read_frame(&mut stdout) {
            Ok(FrameRead::Payload(p)) => p,
            Ok(FrameRead::Closed) => return Err("worker closed its stream early".into()),
            Ok(FrameRead::TooLarge(n)) => return Err(format!("worker sent a {n}-byte frame")),
            Err(e) => return Err(format!("worker stream read failed: {e}")),
        };
        match decode_msg(&payload).map_err(|e| format!("bad worker frame: {e}"))? {
            WorkerMsg::Hello {
                version,
                shard: ws,
                start,
                end,
            } => {
                if version != crate::protocol::SHARD_WIRE_VERSION {
                    return Err(format!("worker speaks wire version {version}"));
                }
                if ws as usize != shard || start != range.start || end != range.end {
                    return Err(format!(
                        "worker answered for shard {ws} range {start}..{end}, \
                         expected shard {shard} range {}..{}",
                        range.start, range.end
                    ));
                }
                hello_seen = true;
            }
            WorkerMsg::Counts(chunk) => {
                if !hello_seen {
                    return Err("counts before hello".into());
                }
                let end = filled + chunk.len();
                let Some(slots) = section.get_mut(filled..end) else {
                    return Err(format!("worker sent {end} counts for a range of {want}"));
                };
                slots.copy_from_slice(&chunk);
                filled = end;
            }
            WorkerMsg::Report(json) => report = json,
            WorkerMsg::Done(tally) => {
                if filled != want {
                    return Err(format!("worker finished with {filled} of {want} counts"));
                }
                return Ok(WorkerRun { report, tally });
            }
            WorkerMsg::Error(reason) => return Err(format!("worker reported: {reason}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_msg, write_frame, SHARD_WIRE_VERSION};

    /// A hand-built stream of raw frame payloads.
    fn stream(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        for payload in payloads {
            write_frame(&mut out, payload).expect("vec write");
        }
        out
    }

    fn hello(version: u32, shard: u32, end: usize) -> Vec<u8> {
        encode_msg(&WorkerMsg::Hello {
            version,
            shard,
            start: 10,
            end,
        })
    }

    fn counts(chunk: &[u32]) -> Vec<u8> {
        encode_msg(&WorkerMsg::Counts(chunk.to_vec()))
    }

    #[test]
    fn stream_checks_refuse_every_broken_monologue() {
        // Shard 1 owns the four edges 10..14.
        let ok = hello(SHARD_WIRE_VERSION, 1, 14);
        let done = encode_msg(&WorkerMsg::Done(ShardTally::default()));
        let cases: [(&str, Vec<Vec<u8>>, &str); 9] = [
            (
                "counts before hello",
                vec![counts(&[1, 2]), ok.clone()],
                "counts before hello",
            ),
            (
                "another wire version",
                vec![hello(2, 1, 14)],
                "worker speaks wire version 2",
            ),
            (
                "another shard",
                vec![hello(SHARD_WIRE_VERSION, 0, 14)],
                "worker answered for shard 0 range 10..14, expected shard 1 range 10..14",
            ),
            (
                "another range",
                vec![hello(SHARD_WIRE_VERSION, 1, 15)],
                "worker answered for shard 1 range 10..15, expected shard 1 range 10..14",
            ),
            (
                "more counts than the range",
                vec![ok.clone(), counts(&[1, 2, 3]), counts(&[4, 5])],
                "worker sent 5 counts for a range of 4",
            ),
            (
                "done before the range is full",
                vec![ok.clone(), counts(&[1, 2, 3]), done.clone()],
                "worker finished with 3 of 4 counts",
            ),
            (
                "an error frame",
                vec![
                    ok.clone(),
                    encode_msg(&WorkerMsg::Error("out of cheese".into())),
                ],
                "worker reported: out of cheese",
            ),
            (
                "a stale opcode-3 frame",
                vec![ok.clone(), vec![3, 0, 0, 0, 0]],
                "bad worker frame: invalid shard opcode 3",
            ),
            (
                "a stream closed early",
                vec![ok.clone(), counts(&[1, 2, 3, 4])],
                "worker closed its stream early",
            ),
        ];
        for (case, payloads, want) in cases {
            let mut section = [0u32; 4];
            let got = read_worker_stream(&stream(&payloads)[..], 1, &(10..14), &mut section);
            assert_eq!(got.err().as_deref(), Some(want), "{case}");
        }
    }

    #[test]
    fn counts_land_in_order_and_a_retry_rewrites_from_the_start() {
        let ok = hello(SHARD_WIRE_VERSION, 1, 14);
        let mut section = [0u32; 4];
        // A first attempt dies after one chunk.
        let died = stream(&[ok.clone(), counts(&[9, 9, 9])]);
        assert!(read_worker_stream(&died[..], 1, &(10..14), &mut section).is_err());
        let whole = stream(&[
            ok,
            counts(&[1, 2]),
            encode_msg(&WorkerMsg::Report("{}".into())),
            counts(&[]),
            counts(&[3, 4]),
            encode_msg(&WorkerMsg::Done(ShardTally {
                visited: 7,
                ..ShardTally::default()
            })),
        ]);
        let run = read_worker_stream(&whole[..], 1, &(10..14), &mut section).expect("whole");
        assert_eq!(section, [1, 2, 3, 4]);
        assert_eq!((run.report.as_str(), run.tally.visited), ("{}", 7));
    }
}
