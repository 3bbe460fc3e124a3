//! The shard worker: one process, one edge range.
//!
//! A worker is the same `cnc` binary re-invoked as the hidden
//! `shard-worker` subcommand. From the one shared prepared-graph file the
//! coordinator points it at, it maps only the CSR it executes on
//! ([`prepare::map_execution_csr`]: the file's header and section table,
//! and that CSR's checksums, structure and reverse index), so N workers
//! share the page cache instead of re-preparing N times, and none checks or
//! reads the other CSR or the remap table, which the coordinator holds
//! validated and applies. It plans through the same planning rule as a
//! single-process run ([`Runner::plan_for_vertices`] with the loaded CSR's
//! `|V|`), executes its assigned `[start, end)` directed edge range as a
//! one-range list through `cnc_cpu::execute`, and streams its results back
//! over stdout using the [`crate::protocol`] frames. Its report records the
//! `load`, `plan`, `execute` and `frame` stages.
//!
//! Determinism note: the worker runs the *full-length* scatter target
//! ([`ScatterVec`](cnc_workload::ScatterVec)) the CNC workload always runs,
//! whose visit writes both `eid` and its mirror, and ships only its own
//! section. Every `u < v` slot of the section holds its exact count; the
//! mirror writes that landed outside the range are dropped with the target,
//! because the coordinator fills every `u > v` slot from its twin in one
//! pass over the assembled array.

use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cnc_core::{Algorithm, Platform, Runner};
use cnc_cpu::{execute, CpuKernel, KernelPool, RangeTally, WorkList};
use cnc_graph::{prepare, CsrGraph};
use cnc_intersect::CountingMeter;
use cnc_obs::{ObsContext, RunReport};
use cnc_workload::CncWorkload;

use crate::protocol::{
    encode_counts, encode_msg, write_frame, ShardTally, WorkerMsg, COUNTS_PER_FRAME,
    SHARD_WIRE_VERSION,
};

/// Environment variable carrying fault-injection requests, as
/// comma-separated `shard:attempt` entries (e.g. `"1:0"` kills shard 1's
/// first attempt mid-stream). Set by tests and the CI smoke job on the
/// *coordinator* so children inherit it; never consulted outside the
/// worker's execution path.
pub const FAIL_ENV: &str = "CNC_SHARD_FAIL";

/// The parsed `shard-worker` command line.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// Path to the shared prepared-graph file.
    pub prep: PathBuf,
    /// The algorithm to plan (decoded from its wire token).
    pub algo: Algorithm,
    /// Explicit reorder override; `None` keeps the runner's default, which
    /// must match the coordinator's choice exactly.
    pub reorder: Option<bool>,
    /// This worker's shard index (for Hello echo and fault injection).
    pub shard: usize,
    /// First directed edge offset of the assigned range.
    pub start: usize,
    /// One-past-last directed edge offset of the assigned range.
    pub end: usize,
    /// Retry attempt number (0 on the first try).
    pub attempt: usize,
}

/// Whether fault injection asks this (shard, attempt) to die mid-stream.
fn fail_requested(shard: usize, attempt: usize) -> bool {
    let Ok(spec) = std::env::var(FAIL_ENV) else {
        return false;
    };
    spec.split(',').any(|entry| {
        let mut it = entry.trim().split(':');
        matches!(
            (
                it.next().and_then(|s| s.parse::<usize>().ok()),
                it.next().and_then(|a| a.parse::<usize>().ok()),
            ),
            (Some(s), Some(a)) if s == shard && a == attempt
        )
    })
}

/// Run the worker protocol to completion on `out` (the stdout pipe).
///
/// A failure is reported once. Its reason goes out in a terminal
/// [`WorkerMsg::Error`] frame, where the coordinator reads it, and the
/// process exits with status 1. Only when that frame cannot be written does
/// the reason come back as `Err`, for the caller to print.
pub fn worker_main(args: &WorkerArgs, out: &mut impl Write) -> Result<(), String> {
    let Err(reason) = run_worker(args, out) else {
        return Ok(());
    };
    let frame = write_frame(out, &encode_msg(&WorkerMsg::Error(reason.clone())));
    match frame.and_then(|()| out.flush()) {
        Ok(()) => std::process::exit(1),
        Err(_) => Err(reason),
    }
}

fn run_worker(args: &WorkerArgs, out: &mut impl Write) -> Result<(), String> {
    let t0 = Instant::now();
    let shard = u32::try_from(args.shard)
        .map_err(|_| format!("shard index {} does not fit the wire's u32", args.shard))?;
    send(
        out,
        &encode_msg(&WorkerMsg::Hello {
            version: SHARD_WIRE_VERSION,
            shard,
            start: args.start,
            end: args.end,
        }),
    )?;

    let ctx = Arc::new(ObsContext::new());
    let _obs = ctx.install();
    // The coordinator planned a sequential run of the same algorithm with
    // the same reorder choice, so both sides pick one execution graph.
    let mut runner = Runner::new(Platform::CpuSequential, args.algo);
    if let Some(reorder) = args.reorder {
        runner = runner.reorder(reorder);
    }
    let g = {
        let _s = ctx.span("load");
        load_execution_csr(&args.prep, runner.reorder_enabled())
            .map_err(|e| format!("cannot load prepared graph {}: {e}", args.prep.display()))?
    };
    let plan = {
        let _s = ctx.span("plan");
        runner
            .plan_for_vertices(g.num_vertices())
            .map_err(|e| e.to_string())?
    };
    let m = g.num_directed_edges();
    if args.start > args.end || args.end > m {
        return Err(format!(
            "range {}..{} out of bounds for {m} directed edges",
            args.start, args.end
        ));
    }

    let mut meter = CountingMeter::default();
    let (counts, tally) = {
        let mut s = ctx.span("execute");
        s.set_items((args.end - args.start) as u64);
        count_block(&g, plan.cpu_kernel, args.start..args.end, &mut meter)
    };
    meter.counts.record_to(&*ctx);

    // Stream the section. Under fault injection, die after half the chunks
    // with the pipe flushed — the coordinator must observe a genuine
    // mid-stream death, not an instant EOF.
    {
        let _s = ctx.span("frame");
        let section = &counts[args.start..args.end];
        let chunks: Vec<&[u32]> = section.chunks(COUNTS_PER_FRAME).collect();
        let die_after = fail_requested(args.shard, args.attempt).then_some(chunks.len() / 2);
        for (i, chunk) in chunks.iter().enumerate() {
            if die_after == Some(i) {
                let _ = out.flush();
                std::process::exit(101);
            }
            send(out, &encode_counts(chunk))?;
        }
        if die_after == Some(chunks.len()) {
            let _ = out.flush();
            std::process::exit(101);
        }
    }

    // Ship the observability snapshot when it fits a frame comfortably.
    let report = RunReport::from_context(&ctx).to_json();
    if report.len() <= 768 * 1024 {
        send(out, &encode_msg(&WorkerMsg::Report(report)))?;
    }
    send(
        out,
        &encode_msg(&WorkerMsg::Done(ShardTally {
            rebuilds: tally.rebuilds,
            visited: tally.visited,
            skipped: tally.skipped,
            work: meter.counts,
            wall_nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        })),
    )?;
    out.flush().map_err(|e| format!("flush failed: {e}"))
}

/// Map the CSR the run executes on. Only where mapping is unsupported is the
/// whole image read into the heap instead; any other load error (a damaged
/// file) is reported as it stands.
fn load_execution_csr(path: &Path, reorder: bool) -> io::Result<CsrGraph> {
    match prepare::map_execution_csr(path, reorder) {
        Err(e) if e.kind() == io::ErrorKind::Unsupported => {
            let prepared = prepare::read_prepared(std::fs::File::open(path)?)?;
            Ok(prepared.execution_graph(reorder).clone())
        }
        loaded => loaded,
    }
}

/// Count one block as a one-range list through the same `execute` as a
/// bulk pass. The CNC scatter target spans all `|E|` directed slots; of
/// them, the caller ships only the block's section.
fn count_block(
    g: &CsrGraph,
    kernel: CpuKernel,
    block: Range<usize>,
    meter: &mut CountingMeter,
) -> (Vec<u32>, RangeTally) {
    let kernels = KernelPool::new(kernel, g.num_vertices());
    let work = WorkList::Edges(std::slice::from_ref(&block));
    execute(g, work, &kernels, &CncWorkload, meter, None)
}

fn send(out: &mut impl Write, payload: &[u8]) -> Result<(), String> {
    write_frame(out, payload).map_err(|e| format!("worker stream write failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_block_call_reproduces_the_bulk_pass() {
        use cnc_cpu::{cut_source_blocks, BmpMode};
        use cnc_graph::datasets::{Dataset, Scale};
        use cnc_intersect::{MpsConfig, NullMeter};
        use cnc_workload::WorkloadKind;

        let g = Dataset::TwS.build(Scale::Tiny);
        for kernel in [
            CpuKernel::Merge,
            CpuKernel::Mps(MpsConfig::default()),
            CpuKernel::Bmp(BmpMode::Plain),
            CpuKernel::Bmp(BmpMode::rf_scaled(g.num_vertices())),
        ] {
            let bulk = kernel
                .run_seq_kind(&g, WorkloadKind::Cnc, &mut NullMeter)
                .into_edge_counts()
                .expect("cnc output");
            for workers in [1, 3, 4] {
                let blocks = cut_source_blocks(&g, &kernel.cost_model(), &CncWorkload, workers);
                // Assemble as the coordinator does: every block's section,
                // then one mirror pass over the whole array.
                let mut assembled = vec![0u32; bulk.len()];
                for b in &blocks {
                    let mut meter = CountingMeter::default();
                    let (counts, tally) = count_block(&g, kernel, b.range.clone(), &mut meter);
                    assert!(tally.visited > 0 && meter.counts.intersections == tally.visited);
                    assembled[b.range.clone()].copy_from_slice(&counts[b.range.clone()]);
                }
                g.mirror_counts(&mut assembled);
                assert_eq!(assembled, bulk, "{kernel:?} {workers} workers");
            }
        }
    }

    #[test]
    fn fail_spec_parsing_matches_exact_pairs() {
        // Uses a scoped env mutation; no other test in this crate touches
        // FAIL_ENV, and cross-process tests pass it via Command::env.
        std::env::set_var(FAIL_ENV, "1:0, 3:2,nonsense,7");
        assert!(fail_requested(1, 0));
        assert!(fail_requested(3, 2));
        assert!(!fail_requested(1, 1));
        assert!(!fail_requested(0, 0));
        assert!(!fail_requested(7, 0), "entries need both fields");
        std::env::remove_var(FAIL_ENV);
        assert!(!fail_requested(1, 0));
    }
}
