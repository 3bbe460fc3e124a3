//! The shard coordinator: cut, spawn, scatter-gather, assemble.
//!
//! [`run_sharded`] plans once (same planner as a single-process run), cuts
//! the directed edge range into cost-balanced source-aligned blocks with
//! the kernel-aware cost model (`cnc_cpu::cut_source_blocks`; unlike the
//! in-process pass's claimed chunks, a block is fixed once its worker
//! starts), spawns one worker process per block, and reassembles their
//! sections and spills into the full per-edge count array. Because every
//! directed slot is written by exactly one worker (its own section, or a
//! spill from the shard holding the canonical pair), the assembled array
//! is byte-identical to a single-process run — the differential tests and
//! the CI smoke job `cmp` the output files to hold that line.
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
//! per worker, then `assemble` (sections and spills into the full array)
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

/// One worker attempt's successfully gathered stream.
struct WorkerRun {
    shard: usize,
    range: std::ops::Range<usize>,
    section: Vec<u32>,
    spills: Vec<(usize, u32)>,
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
                .enumerate()
                .map(|(shard, block)| {
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
                            match run_one(cfg, algo, shard, range.clone(), attempt, m) {
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

    // Assemble: copy every section into place, then let the spills
    // overwrite the mirror slots whose canonical pair lived in another
    // shard. Each slot is written correctly exactly once.
    let full = {
        let _s = obs.as_ref().map(|ctx| ctx.span("assemble"));
        let mut full = vec![0u32; m];
        for run in &runs {
            full[run.range.clone()].copy_from_slice(&run.section);
        }
        for run in &runs {
            for &(rev, c) in &run.spills {
                full[rev] = c;
            }
        }
        full
    };

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

fn run_one(
    cfg: &ShardConfig,
    algo: &str,
    shard: usize,
    range: std::ops::Range<usize>,
    attempt: usize,
    m: usize,
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
    let outcome = match read_worker_stream(stdout, shard, &range, m) {
        Ok(mut run) => match child.wait() {
            Ok(status) if status.success() => {
                run.shard = shard;
                run.range = range;
                Ok(run)
            }
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

fn read_worker_stream(
    mut stdout: impl Read,
    shard: usize,
    range: &std::ops::Range<usize>,
    m: usize,
) -> Result<WorkerRun, String> {
    let want = range.len();
    let mut section: Vec<u32> = Vec::with_capacity(want);
    let mut spills: Vec<(usize, u32)> = Vec::new();
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
                if section.len() + chunk.len() > want {
                    return Err(format!(
                        "worker sent {} counts for a range of {want}",
                        section.len() + chunk.len()
                    ));
                }
                section.extend_from_slice(&chunk);
            }
            WorkerMsg::Spills(chunk) => {
                if !hello_seen {
                    return Err("spills before hello".into());
                }
                // Each canonical pair in the range spills at most one
                // mirror write, so a range has at most `want` of them.
                if spills.len() + chunk.len() > want {
                    return Err(format!(
                        "worker sent {} spills for a range of {want}",
                        spills.len() + chunk.len()
                    ));
                }
                if let Some(&(rev, _)) = chunk.iter().find(|&&(rev, _)| rev >= m) {
                    return Err(format!("spill offset {rev} out of bounds ({m} edges)"));
                }
                spills.extend_from_slice(&chunk);
            }
            WorkerMsg::Report(json) => report = json,
            WorkerMsg::Done(tally) => {
                if section.len() != want {
                    return Err(format!(
                        "worker finished with {} of {want} counts",
                        section.len()
                    ));
                }
                return Ok(WorkerRun {
                    shard,
                    range: range.clone(),
                    section,
                    spills,
                    report,
                    tally,
                });
            }
            WorkerMsg::Error(reason) => return Err(format!("worker reported: {reason}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_msg, write_frame, SHARD_WIRE_VERSION};

    fn stream(msgs: &[WorkerMsg]) -> Vec<u8> {
        let mut out = Vec::new();
        for msg in msgs {
            write_frame(&mut out, &encode_msg(msg)).expect("vec write");
        }
        out
    }

    #[test]
    fn spills_need_a_hello_and_fit_the_range() {
        let hello = WorkerMsg::Hello {
            version: SHARD_WIRE_VERSION,
            shard: 0,
            start: 0,
            end: 2,
        };
        let early = stream(&[WorkerMsg::Spills(vec![(3, 1)])]);
        let err = read_worker_stream(&early[..], 0, &(0..2), 8).err();
        assert_eq!(err.as_deref(), Some("spills before hello"));
        // A range of two slots spills at most two mirror writes.
        let many = stream(&[hello, WorkerMsg::Spills(vec![(3, 1); 3])]);
        let err = read_worker_stream(&many[..], 0, &(0..2), 8).err();
        assert_eq!(
            err.as_deref(),
            Some("worker sent 3 spills for a range of 2")
        );
    }
}
