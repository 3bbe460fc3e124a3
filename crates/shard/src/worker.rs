//! The shard worker: one process, one edge range.
//!
//! A worker is the same `cnc` binary re-invoked as the hidden
//! `shard-worker` subcommand. It loads the one shared prepared graph the
//! coordinator points it at (memory-mapping warm caches, so N workers share
//! the page cache instead of re-preparing N times), plans exactly like a
//! single-process run, executes its assigned `[start, end)` directed edge
//! range as a one-range list through `cnc_cpu::execute`, and streams its
//! results back over stdout using the [`crate::protocol`] frames.
//!
//! Determinism note: the worker runs the *full-length* [`ScatterVec`] the
//! CNC workload always runs — the visit writes both `eid` and its mirror —
//! then extracts its own section plus the mirror writes that landed outside
//! the range ("spills"). Every directed slot of the final array is written
//! by exactly one worker, so the coordinator's assembly is byte-identical
//! to a single-process run by construction, not by accident of scheduling.

use std::io::Write;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cnc_core::{Algorithm, Platform, Runner};
use cnc_cpu::{execute, CpuKernel, KernelPool, RangeTally, WorkList};
use cnc_graph::{prepare, CsrGraph};
use cnc_intersect::CountingMeter;
use cnc_obs::{ObsContext, RunReport};
use cnc_workload::CncWorkload;

use crate::protocol::{
    encode_msg, write_frame, ShardTally, WorkerMsg, COUNTS_PER_FRAME, SHARD_WIRE_VERSION,
    SPILLS_PER_FRAME,
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
/// Failures are reported twice: as a terminal [`WorkerMsg::Error`] frame so
/// the coordinator sees the reason, and as the returned `Err` so the
/// process exits nonzero.
pub fn worker_main(args: &WorkerArgs, out: &mut impl Write) -> Result<(), String> {
    match run_worker(args, out) {
        Ok(()) => Ok(()),
        Err(reason) => {
            let _ = write_frame(out, &encode_msg(&WorkerMsg::Error(reason.clone())));
            let _ = out.flush();
            Err(reason)
        }
    }
}

fn run_worker(args: &WorkerArgs, out: &mut impl Write) -> Result<(), String> {
    let t0 = Instant::now();
    send(
        out,
        &WorkerMsg::Hello {
            version: SHARD_WIRE_VERSION,
            shard: args.shard as u32,
            start: args.start as u64,
            end: args.end as u64,
        },
    )?;

    // Warm-load the shared preparation: the mmap path when the platform
    // allows it, streaming read otherwise.
    let prepared = prepare::map_prepared(&args.prep)
        .or_else(|_| std::fs::File::open(&args.prep).and_then(prepare::read_prepared))
        .map_err(|e| format!("cannot load prepared graph {}: {e}", args.prep.display()))?;

    // Plan exactly like a single-process sequential run of the same
    // algorithm — the coordinator planned with the same inputs, so both
    // sides agree on the kernel and the execution graph.
    let mut runner = Runner::new(Platform::CpuSequential, args.algo);
    if let Some(reorder) = args.reorder {
        runner = runner.reorder(reorder);
    }
    let ctx = Arc::new(ObsContext::new());
    let _obs = ctx.install();
    let plan = {
        let _s = ctx.span("plan");
        runner.plan(&prepared).map_err(|e| e.to_string())?
    };
    let g = prepared.execution_graph(plan.reorder);
    let m = g.num_directed_edges();
    if args.start > args.end || args.end > m {
        return Err(format!(
            "range {}..{} out of bounds for {m} directed edges",
            args.start, args.end
        ));
    }

    let mut meter = CountingMeter::default();
    let (counts, spills, tally) = {
        let mut s = ctx.span("execute");
        s.set_items((args.end - args.start) as u64);
        count_block(g, plan.cpu_kernel, args.start..args.end, &mut meter)
    };
    meter.counts.record_to(&*ctx);

    // Stream the section. Under fault injection, die after half the chunks
    // with the pipe flushed — the coordinator must observe a genuine
    // mid-stream death, not an instant EOF.
    let section = &counts[args.start..args.end];
    let chunks: Vec<&[u32]> = section.chunks(COUNTS_PER_FRAME).collect();
    let die_after = fail_requested(args.shard, args.attempt).then_some(chunks.len() / 2);
    for (i, chunk) in chunks.iter().enumerate() {
        if die_after == Some(i) {
            let _ = out.flush();
            std::process::exit(101);
        }
        send(out, &WorkerMsg::Counts(chunk.to_vec()))?;
    }
    if die_after == Some(chunks.len()) {
        let _ = out.flush();
        std::process::exit(101);
    }
    for chunk in spills.chunks(SPILLS_PER_FRAME) {
        send(out, &WorkerMsg::Spills(chunk.to_vec()))?;
    }

    // Ship the observability snapshot when it fits a frame comfortably.
    let report = RunReport::from_context(&ctx).to_json();
    if report.len() <= 768 * 1024 {
        send(out, &WorkerMsg::Report(report))?;
    }
    send(
        out,
        &WorkerMsg::Done(ShardTally {
            rebuilds: tally.rebuilds,
            visited: tally.visited,
            skipped: tally.skipped,
            work: meter.counts,
            wall_nanos: t0.elapsed().as_nanos() as u64,
        }),
    )?;
    out.flush().map_err(|e| format!("flush failed: {e}"))
}

/// Count one block as a one-range list through the same `execute` as a
/// bulk pass. The CNC scatter target spans all `|E|` directed slots, so
/// mirror writes land wherever they belong; the returned spills are the
/// ones outside the block, which the wire carries beside its section.
fn count_block(
    g: &CsrGraph,
    kernel: CpuKernel,
    block: Range<usize>,
    meter: &mut CountingMeter,
) -> (Vec<u32>, Vec<(u64, u32)>, RangeTally) {
    let kernels = KernelPool::new(kernel, g.num_vertices());
    let work = WorkList::Edges(std::slice::from_ref(&block));
    let (counts, tally) = execute(g, work, &kernels, &CncWorkload, meter, None);
    // Re-walk the block's canonical pairs and pick out every mirror slot
    // that falls outside it.
    let mut spills: Vec<(u64, u32)> = Vec::new();
    let mut u_hint = 0u32;
    for eid in block.clone() {
        let u = g.find_src(eid, &mut u_hint);
        if u >= g.dst()[eid] {
            continue;
        }
        let rev = g.reverse_offset(u, eid);
        if !block.contains(&rev) {
            spills.push((rev as u64, counts[rev]));
        }
    }
    (counts, spills, tally)
}

fn send(out: &mut impl Write, msg: &WorkerMsg) -> Result<(), String> {
    write_frame(out, &encode_msg(msg)).map_err(|e| format!("worker stream write failed: {e}"))
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
                // then every block's spills (mirror writes outside it).
                let mut assembled = vec![0u32; bulk.len()];
                let mut spilled = Vec::new();
                for b in &blocks {
                    let mut meter = CountingMeter::default();
                    let (counts, spills, tally) =
                        count_block(&g, kernel, b.range.clone(), &mut meter);
                    assert!(tally.visited > 0 && meter.counts.intersections == tally.visited);
                    assembled[b.range.clone()].copy_from_slice(&counts[b.range.clone()]);
                    for &(slot, c) in &spills {
                        assert!(!b.range.contains(&(slot as usize)), "spill inside block");
                        assert_eq!(c, bulk[slot as usize], "{kernel:?} mirror write {slot}");
                    }
                    spilled.extend(spills);
                }
                for (slot, c) in spilled {
                    assembled[slot as usize] = c;
                }
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
