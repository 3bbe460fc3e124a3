//! `cnc` — command-line all-edge common neighbor counting.
//!
//! ```text
//! cnc count  (GRAPH | --dataset NAME [--scale S])
//!            [--algo mps|bmp|bmp-rf|m] [--platform cpu|cpu-seq|knl|gpu]
//!            [--workload cnc|triangle|kclique] [--k K]
//!            [--schedule uniform|balanced] [--shards N] [--out FILE]
//!            [--stats] [--metrics FILE] [--trace]
//! cnc run    [--scale tiny|small|medium] [--dataset NAME] [--algo A]
//!            [--platform P] [--workload cnc|triangle|kclique] [--k K]
//!            [--schedule uniform|balanced] [--metrics FILE] [--trace]
//! cnc stats  GRAPH
//! cnc scan   GRAPH [--eps 0.6] [--mu 3]
//! cnc truss  GRAPH
//! cnc prepare GRAPH [--out FILE.prep] [--mem-budget BYTES] [--spill-dir D]
//!            [--reorder degdesc|none] [--metrics FILE]
//! cnc cache  [ls|gc|clear] [--dir D] [--max-bytes N]
//! cnc serve  (GRAPH | --dataset NAME [--scale S]) [--algo A]
//!            [--listen ADDR | --socket PATH] [--batch-window-us N]
//!            [--queue-cap N] [--reply-limit N] [--schedule uniform|balanced]
//!            [--metrics FILE]
//! cnc query  (--connect ADDR | --socket PATH)
//!            (count U V | topk K | scan THRESHOLD | stats | shutdown)
//! ```
//!
//! Every subcommand additionally accepts the global flag
//! `--simd scalar|portable|avx2|avx512`, which pins the instruction tier the
//! intersection kernels dispatch to (equivalent to setting `CNC_SIMD=`, but
//! an unsupported or unknown tier is a hard error instead of a fallback).
//! The forced tier is exported to child processes, so `--shards N` workers
//! execute at the same tier as the coordinator.
//!
//! `GRAPH` is a SNAP-style edge-list text file (`u v` per line, `#`
//! comments), a binary CSR written by `cnc-graph::io::write_csr`, or a
//! prepared `CNCPREP4` image written by `cnc prepare` (all detected by
//! magic). `--out` writes the per-edge counts as `u v count` lines
//! (canonical `u < v` edges once each).
//!
//! `cnc prepare` runs the bounded-memory streaming pipeline: the input is
//! read in fixed-size chunks, external-sorted under `--mem-budget` (or
//! `$CNC_PREP_MEM_BYTES`; spill runs go to `--spill-dir`), and the
//! `CNCPREP4` image is assembled directly in the output file — peak
//! resident memory stays O(|V| + chunk) however large the edge list is.
//! The result is byte-identical to what the in-memory pipeline caches, and
//! every other subcommand accepts it as `GRAPH`, skipping preparation
//! entirely.
//!
//! `cnc count --shards N` runs the count as N cooperating *processes*: the
//! coordinator cuts the edge range into cost-balanced source-aligned blocks
//! (the balanced scheduler's own cuts), each worker (`cnc shard-worker`, an
//! internal subcommand) loads the one shared prepared-graph file and
//! executes its block, and the per-shard sections are reassembled into
//! per-edge counts byte-identical to a single-process run (DESIGN.md §3h).
//! A worker that dies mid-stream is retried once; metrics land under the
//! `shard.*` counters. `--shards` accepts a `GRAPH` file or `--dataset`.
//!
//! When `--platform` is omitted, counting commands pick the parallel CPU
//! platform unless the prepared CSR is at least `$CNC_GPU_UM_THRESHOLD_BYTES`
//! (default 256 MiB), in which case the unified-memory GPU platform is
//! selected — at that size its multipass partitioning is the execution
//! model of interest.
//!
//! `--workload` selects what the edge-range driver counts: `cnc` (the
//! default per-edge common neighbor counts), `triangle` (one global
//! triangle total), or `kclique` with `--k 3..=5` (one count per clique
//! size). Non-CNC workloads run on the real CPU platforms only, and the
//! derived-analytics commands (`scan`, `truss`, `--out`) need `cnc`.
//!
//! `cnc run` counts the built-in paper analogues (all five, or one via
//! `--dataset lj-s|or-s|wi-s|tw-s|fr-s`), one observed run each.
//! `--metrics FILE` writes a `cnc-metrics` JSON file (schema documented in
//! DESIGN.md §Observability): `{"schema": "cnc-metrics", "version": 1,
//! "runs": [...]}` with per-run counter totals and the span tree.
//! `--trace` prints each run's span tree (prepare → plan → execute)
//! human-readably. Both flags also work on `count` for ad-hoc graphs.
//!
//! `cnc serve` keeps one prepared graph resident and answers point queries
//! over a length-prefixed socket protocol (DESIGN.md §3g). Requests that
//! arrive within the coalescing window (`--batch-window-us`, default 200)
//! are deduplicated, sorted by source vertex, and executed as one
//! source-aligned balanced schedule; the admission queue is bounded
//! (`--queue-cap`), refusing with a typed `overloaded` reply when full.
//! The daemon runs until a client sends `shutdown` (`cnc query ...
//! shutdown`); in-flight queries are drained and answered first.
//! `--metrics FILE` writes the final cnc-metrics JSON — including the
//! `serve.*` counters — when the daemon exits. `cnc query` is the matching
//! one-shot client.
//!
//! `cnc cache` manages the on-disk prepared-graph cache (default
//! directory: `$CNC_CACHE_DIR` or `results/cache`): `ls` lists entries
//! most-recently-used first, `gc --max-bytes N` evicts least-recently-used
//! files down to the byte budget, `clear` removes everything evictable.
//! Files held by live readers are never removed.

use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use cnc_core::{
    truss_decomposition, try_scan, Algorithm, CncView, Platform, PreparedGraph, Runner,
    WorkloadKind,
};
use cnc_cpu::{ParConfig, SchedulePolicy};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::prepare;
use cnc_graph::stats::{skew_percentage, GraphStats};
use cnc_graph::stream::{self, StreamConfig};
use cnc_graph::{io, CsrGraph};
use cnc_obs::{Counter, MetricsFile, ObsContext, RunReport};
use cnc_serve::{Client, Endpoint, ServeConfig};
use cnc_shard::{ShardConfig, WorkerArgs};

/// Environment variable overriding the prepared-CSR size (bytes) above
/// which counting commands default to the unified-memory GPU platform.
const GPU_UM_THRESHOLD_ENV: &str = "CNC_GPU_UM_THRESHOLD_BYTES";
const GPU_UM_THRESHOLD_DEFAULT: u64 = 256 << 20;

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if bytes.starts_with(b"CNCCSR01") {
        io::read_csr(bytes.as_slice()).map_err(|e| format!("bad binary CSR {path}: {e}"))
    } else {
        let el = io::read_edge_list(bytes.as_slice())
            .map_err(|e| format!("bad edge list {path}: {e}"))?;
        Ok(CsrGraph::from_edge_list(&el))
    }
}

/// Whether `path` holds a prepared `CNCPREP*` image (sniffed by magic, so
/// stale versions also land here and get a clear error instead of being
/// parsed as an edge list).
fn is_prepared_file(path: &str) -> bool {
    let mut magic = [0u8; 7];
    std::fs::File::open(path)
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut magic))
        .map(|()| &magic == b"CNCPREP")
        .unwrap_or(false)
}

/// Load a `.prep` image: zero-copy mapped where the platform allows, owned
/// heap read otherwise.
fn load_prepared(path: &str) -> Result<Arc<PreparedGraph>, String> {
    prepare::map_prepared(std::path::Path::new(path))
        .or_else(|_| std::fs::File::open(path).and_then(prepare::read_prepared))
        .map(Arc::new)
        .map_err(|e| format!("bad prepared graph {path}: {e}"))
}

/// The platform used when `--platform` is absent: parallel CPU, or the
/// unified-memory GPU platform once the prepared CSR crosses the
/// size threshold where multipass partitioning is the interesting model.
fn default_platform_name(csr_bytes: u64) -> &'static str {
    let threshold = std::env::var(GPU_UM_THRESHOLD_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(GPU_UM_THRESHOLD_DEFAULT);
    if csr_bytes >= threshold {
        "gpu"
    } else {
        "cpu"
    }
}

fn parse_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("cnc: {flag} needs a value");
        std::process::exit(2);
    }
    args.remove(pos);
    Some(args.remove(pos))
}

fn parse_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Write per-edge counts to `path`: binary when it ends in `.bin` (aligned
/// to the CSR's directed edge slots, load with `cnc_graph::io::read_counts`),
/// `u v count` text lines (canonical `u < v` edges once each) otherwise.
fn write_counts_file(path: &str, g: &CsrGraph, counts: &[u32]) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    if path.ends_with(".bin") {
        cnc_graph::io::write_counts(counts, f).map_err(|e| e.to_string())?;
    } else {
        let mut w = BufWriter::new(f);
        for (eid, u, v) in g.iter_edges() {
            if u < v {
                writeln!(w, "{u}\t{v}\t{}", counts[eid]).map_err(|e| e.to_string())?;
            }
        }
        w.flush().map_err(|e| e.to_string())?;
    }
    eprintln!("wrote {path}");
    Ok(())
}

fn print_stats(g: &CsrGraph) {
    let s = GraphStats::of(g);
    println!("|V|            {}", s.num_vertices);
    println!("|E| (und.)     {}", g.num_undirected_edges());
    println!("avg degree     {:.2}", s.avg_degree);
    println!("max degree     {}", s.max_degree);
    println!("skewed (>50x)  {:.1}%", skew_percentage(g, 50));
    println!("CSR bytes      {}", g.csr_bytes());
}

/// `cnc cache [ls|gc|clear]` — inspect and trim the prepared-graph cache.
fn run_cache(mut args: Vec<String>) -> Result<(), String> {
    let dir = parse_flag(&mut args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(prepare::default_cache_dir);
    let max_bytes = parse_flag(&mut args, "--max-bytes")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|e| format!("bad --max-bytes: {e}"))
        })
        .transpose()?;
    let report = |verb: &str, out: prepare::GcOutcome| {
        let locked = if out.skipped_locked > 0 {
            format!(", {} in use (kept)", out.skipped_locked)
        } else {
            String::new()
        };
        println!(
            "{verb} {} files ({} bytes); kept {} files ({} bytes){locked}",
            out.evicted, out.evicted_bytes, out.kept, out.kept_bytes
        );
    };
    match args.first().map(String::as_str).unwrap_or("ls") {
        "ls" => {
            // A missing directory is just an empty cache.
            let entries = prepare::cache_entries(&dir).unwrap_or_default();
            let total: u64 = entries.iter().map(|e| e.bytes).sum();
            for e in &entries {
                println!("{:>12}  {}", e.bytes, e.path.display());
            }
            println!(
                "{total:>12}  total: {} files in {}",
                entries.len(),
                dir.display()
            );
            Ok(())
        }
        "gc" => {
            let cap = max_bytes.ok_or_else(|| "cache gc needs --max-bytes N".to_string())?;
            let out = prepare::cache_gc(&dir, cap)
                .map_err(|e| format!("cannot gc {}: {e}", dir.display()))?;
            report("evicted", out);
            Ok(())
        }
        "clear" => {
            let out = prepare::cache_clear(&dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
            report("removed", out);
            Ok(())
        }
        other => Err(format!("unknown cache action {other:?}")),
    }
}

/// `cnc prepare` — stream an edge-list (or binary CSR) file into a
/// `CNCPREP4` image under a memory budget.
fn run_prepare(mut args: Vec<String>) -> Result<(), String> {
    let out = parse_flag(&mut args, "--out");
    let mem_budget = parse_flag(&mut args, "--mem-budget")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|e| format!("bad --mem-budget: {e}"))
        })
        .transpose()?;
    let spill_dir = parse_flag(&mut args, "--spill-dir").map(PathBuf::from);
    let policy = match parse_flag(&mut args, "--reorder").as_deref() {
        // Degree-descending by default: the default bmp-rf algorithm runs
        // on the relabeled sections, and images carrying them serve every
        // policy (the runner falls back to original ids when unused).
        None | Some("degdesc") => prepare::ReorderPolicy::DegreeDescending,
        Some("none") => prepare::ReorderPolicy::None,
        Some(other) => return Err(format!("unknown --reorder {other:?} (try degdesc|none)")),
    };
    let metrics_path = parse_flag(&mut args, "--metrics");
    let input = args
        .first()
        .cloned()
        .ok_or_else(|| "missing GRAPH argument".to_string())?;
    if let Some(stray) = args.get(1) {
        return Err(format!("unexpected argument {stray:?}"));
    }
    let out = out.unwrap_or_else(|| format!("{input}.prep"));
    // Flags override the environment; the environment fills gaps.
    let mut cfg = StreamConfig::budgeted_from_env().unwrap_or_default();
    if mem_budget.is_some() {
        cfg.mem_budget = mem_budget;
    }
    if spill_dir.is_some() {
        cfg.spill_dir = spill_dir;
    }
    let ctx = Arc::new(ObsContext::new());
    let summary = {
        let _obs = ctx.install();
        ObsContext::scoped("stream_prepare", || {
            stream::prepare_file(
                std::path::Path::new(&input),
                std::path::Path::new(&out),
                policy,
                &cfg,
            )
        })
        .map_err(|e| format!("prepare failed: {e}"))?
    };
    eprintln!(
        "prepared {out}: {} vertices, {} directed edge slots, {} file bytes",
        summary.num_vertices, summary.num_directed_edges, summary.file_bytes
    );
    eprintln!(
        "  mem budget {}: {} spill runs ({} bytes), {} input chunks, peak resident {} bytes",
        cfg.mem_budget
            .map(|b| b.to_string())
            .unwrap_or_else(|| "unbounded".into()),
        summary.spill_runs,
        summary.spill_bytes,
        summary.stream_chunks,
        summary.peak_resident_bytes
    );
    if let Some(path) = metrics_path {
        let report = RunReport::from_context(&ctx);
        let mut metrics = MetricsFile::new();
        metrics.begin_run();
        metrics.field_str("dataset", &input);
        metrics.field_str("scale", "file");
        metrics.field_str("platform", "stream-prepare");
        metrics.field_str("algorithm", "external-sort");
        metrics.end_run(&report);
        std::fs::write(&path, metrics.finish()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Parse `--scale tiny|small|medium` (default tiny).
fn parse_scale(args: &mut Vec<String>) -> Result<Scale, String> {
    match parse_flag(args, "--scale").as_deref() {
        None | Some("tiny") => Ok(Scale::Tiny),
        Some("small") => Ok(Scale::Small),
        Some("medium") => Ok(Scale::Medium),
        Some(other) => Err(format!("unknown --scale {other:?}")),
    }
}

fn parse_algo(args: &mut Vec<String>) -> Result<Algorithm, String> {
    match parse_flag(args, "--algo").as_deref() {
        None | Some("bmp-rf") => Ok(Algorithm::bmp_rf()),
        Some("bmp") => Ok(Algorithm::bmp()),
        Some("mps") => Ok(Algorithm::mps()),
        Some("m") => Ok(Algorithm::MergeBaseline),
        Some(other) => Err(format!("unknown --algo {other:?}")),
    }
}

/// Parse `--workload cnc|triangle|kclique` (plus `--k` for the clique size,
/// default 4) into a plan-level workload descriptor. The plan validates the
/// range and the platform support; this only shapes the request.
fn parse_workload(args: &mut Vec<String>) -> Result<WorkloadKind, String> {
    let k: u8 = parse_flag(args, "--k")
        .map(|s| s.parse().map_err(|e| format!("bad --k: {e}")))
        .transpose()?
        .unwrap_or(4);
    match parse_flag(args, "--workload").as_deref() {
        None | Some("cnc") => Ok(WorkloadKind::Cnc),
        Some("triangle") => Ok(WorkloadKind::Triangle),
        Some("kclique") => Ok(WorkloadKind::KClique { k }),
        Some(other) => Err(format!(
            "unknown --workload {other:?} (try cnc|triangle|kclique)"
        )),
    }
}

/// Parse `--schedule uniform|balanced` into a task decomposition policy for
/// the parallel CPU platform (`None` keeps the platform default; modeled
/// platforms ignore it).
fn parse_schedule(args: &mut Vec<String>) -> Result<Option<SchedulePolicy>, String> {
    match parse_flag(args, "--schedule").as_deref() {
        None => Ok(None),
        Some("uniform") => Ok(Some(SchedulePolicy::default())),
        Some("balanced") => {
            // Enough tasks for work stealing to smooth residual estimation
            // error, few enough to keep per-task overhead negligible.
            let workers = std::thread::available_parallelism().map_or(8, |n| n.get());
            Ok(Some(SchedulePolicy::balanced(4 * workers)))
        }
        Some(other) => Err(format!(
            "unknown --schedule {other:?} (try uniform|balanced)"
        )),
    }
}

fn platform_for(
    name: &str,
    capacity_scale: f64,
    schedule: Option<SchedulePolicy>,
) -> Result<Platform, String> {
    match name {
        "cpu" => Ok(match schedule {
            None => Platform::cpu_parallel(),
            Some(schedule) => Platform::CpuParallel(ParConfig {
                schedule,
                threads: None,
            }),
        }),
        "cpu-seq" => Ok(Platform::CpuSequential),
        "knl" => Ok(Platform::knl_flat(capacity_scale)),
        "gpu" => Ok(Platform::gpu(capacity_scale)),
        other => Err(format!("unknown --platform {other:?}")),
    }
}

/// Append one run entry (identity fields + observability report) to a
/// metrics file being built.
fn push_metrics_entry(
    file: &mut MetricsFile,
    dataset: &str,
    scale: &str,
    result: &cnc_core::CncResult,
    report: &RunReport,
) {
    file.begin_run();
    file.field_str("dataset", dataset);
    file.field_str("scale", scale);
    file.field_str("platform", &result.stats.platform);
    file.field_str("workload", &result.stats.workload);
    file.field_str("algorithm", &result.stats.requested_algorithm);
    file.field_str("effective_algorithm", &result.stats.effective_algorithm);
    file.field_str("simd_tier", &result.stats.simd_tier);
    file.field_raw(
        "reordered",
        if result.stats.reordered {
            "true"
        } else {
            "false"
        },
    );
    file.field_raw("wall_seconds", &format!("{}", result.wall_seconds));
    file.field_raw(
        "modeled_seconds",
        &result
            .modeled_seconds
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".into()),
    );
    file.end_run(report);
}

fn print_run_summary(label: &str, result: &cnc_core::CncResult) {
    eprintln!(
        "{label}: {} [{} {}] counted {} in {:.1} ms wall{}",
        result.stats.platform,
        result.stats.workload,
        result.stats.effective_algorithm,
        result.output.summary(),
        result.wall_seconds * 1e3,
        result
            .modeled_seconds
            .map(|s| format!(" ({:.3} ms modeled)", s * 1e3))
            .unwrap_or_default()
    );
}

/// `cnc run` — one observed counting run per built-in paper analogue,
/// with optional `--metrics` JSON and `--trace` span-tree output.
fn run_suite(mut args: Vec<String>) -> Result<(), String> {
    let scale = parse_scale(&mut args)?;
    let algo = parse_algo(&mut args)?;
    let workload = parse_workload(&mut args)?;
    let platform_name = parse_flag(&mut args, "--platform").unwrap_or_else(|| "cpu".into());
    let schedule = parse_schedule(&mut args)?;
    let metrics_path = parse_flag(&mut args, "--metrics");
    let trace = parse_switch(&mut args, "--trace");
    let datasets: Vec<Dataset> = match parse_flag(&mut args, "--dataset") {
        Some(name) => vec![*Dataset::ALL
            .iter()
            .find(|d| d.name() == name)
            .ok_or_else(|| format!("unknown --dataset {name:?} (try lj-s|or-s|wi-s|tw-s|fr-s)"))?],
        None => Dataset::ALL.to_vec(),
    };
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }

    let mut metrics = MetricsFile::new();
    for d in datasets {
        // One fresh context per dataset run: counters in the report are
        // per-run totals, and the span tree covers prepare → plan → execute.
        let ctx = Arc::new(ObsContext::new());
        let result = {
            let _obs = ctx.install();
            // The reorder policy doesn't depend on the capacity scale, so a
            // provisional runner decides how to prepare; the real runner is
            // built once the graph (and its edge count) exists.
            let policy = Runner::new(platform_for(&platform_name, 1.0, schedule)?, algo)
                .workload(workload)
                .reorder_policy();
            let prepared = d.prepare(scale, policy);
            let capacity = d.capacity_scale(prepared.graph());
            let runner = Runner::new(platform_for(&platform_name, capacity, schedule)?, algo)
                .workload(workload);
            runner
                .try_run_prepared(&prepared)
                .map_err(|e| format!("{}: {e}", d.name()))?
        };
        let report = RunReport::from_context(&ctx);
        print_run_summary(d.name(), &result);
        if trace {
            println!("# {} ({})", d.name(), scale.name());
            print!("{}", report.render_trace());
        }
        push_metrics_entry(&mut metrics, d.name(), scale.name(), &result, &report);
    }
    if let Some(path) = metrics_path {
        std::fs::write(&path, metrics.finish()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Parse `--connect ADDR | --socket PATH` into the endpoint both `serve`
/// and `query` share. Exactly one must be given (`serve` also accepts
/// neither, defaulting to TCP loopback).
fn parse_endpoint(
    args: &mut Vec<String>,
    default_listen: Option<&str>,
    flag: &str,
) -> Result<Endpoint, String> {
    let addr = parse_flag(args, flag);
    let socket = parse_flag(args, "--socket").map(PathBuf::from);
    match (addr, socket) {
        (Some(_), Some(_)) => Err(format!("{flag} and --socket are mutually exclusive")),
        (Some(a), None) => Ok(Endpoint::Tcp(a)),
        (None, Some(p)) => Ok(Endpoint::Unix(p)),
        (None, None) => default_listen
            .map(|d| Endpoint::Tcp(d.to_string()))
            .ok_or_else(|| format!("query needs {flag} ADDR or --socket PATH")),
    }
}

/// `cnc serve` — keep one prepared graph resident and answer point queries
/// over the batching daemon until a client requests shutdown.
fn run_serve(mut args: Vec<String>) -> Result<(), String> {
    let algo = parse_algo(&mut args)?;
    let schedule = parse_schedule(&mut args)?;
    let endpoint = parse_endpoint(&mut args, Some("127.0.0.1:7071"), "--listen")?;
    let window_us: u64 = parse_flag(&mut args, "--batch-window-us")
        .map(|s| s.parse().map_err(|e| format!("bad --batch-window-us: {e}")))
        .transpose()?
        .unwrap_or(200);
    let queue_cap: usize = parse_flag(&mut args, "--queue-cap")
        .map(|s| s.parse().map_err(|e| format!("bad --queue-cap: {e}")))
        .transpose()?
        .unwrap_or(1024);
    let reply_limit: usize = parse_flag(&mut args, "--reply-limit")
        .map(|s| s.parse().map_err(|e| format!("bad --reply-limit: {e}")))
        .transpose()?
        .unwrap_or(1000);
    let metrics_path = parse_flag(&mut args, "--metrics");
    let dataset = parse_flag(&mut args, "--dataset");
    let scale = parse_scale(&mut args)?;

    // The session plans on the real CPU backends only (the plan layer
    // rejects modeled platforms), so the runner is built directly on the
    // parallel CPU platform with the chosen schedule.
    let platform = platform_for("cpu", 1.0, schedule)?;
    let runner = Runner::new(platform, algo);
    let (label, prepared) = match (dataset, args.first().cloned()) {
        (Some(_), Some(path)) => {
            return Err(format!(
                "give --dataset or a GRAPH file, not both ({path:?})"
            ))
        }
        (Some(name), None) => {
            let d = *Dataset::ALL
                .iter()
                .find(|d| d.name() == name)
                .ok_or_else(|| {
                    format!("unknown --dataset {name:?} (try lj-s|or-s|wi-s|tw-s|fr-s)")
                })?;
            let label = format!("{}:{}", d.name(), scale.name());
            (label, d.prepare(scale, runner.reorder_policy()))
        }
        (None, Some(path)) => {
            let prepared = if is_prepared_file(&path) {
                load_prepared(&path)?
            } else {
                PreparedGraph::from_csr(load_graph(&path)?, runner.reorder_policy())
            };
            (path, prepared)
        }
        (None, None) => return Err("serve needs a GRAPH file or --dataset NAME".to_string()),
    };
    if let Some(stray) = args.get(1) {
        return Err(format!("unexpected argument {stray:?}"));
    }

    let algo_label = algo.label().to_string();
    let session = cnc_core::BatchSession::new(runner, prepared).map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        batch_window: std::time::Duration::from_micros(window_us),
        queue_cap,
        reply_limit,
        graph_label: label.clone(),
    };
    let handle = cnc_serve::serve(&endpoint, session, cfg).map_err(|e| e.to_string())?;
    let where_ = match (&endpoint, handle.local_addr()) {
        (_, Some(addr)) => addr.to_string(),
        (Endpoint::Unix(p), None) => p.display().to_string(),
        (Endpoint::Tcp(a), None) => a.clone(),
    };
    eprintln!(
        "cnc serve: {label} [{algo_label}] on {where_} \
         (window {window_us}us, queue cap {queue_cap}); \
         stop with `cnc query ... shutdown`"
    );
    handle.wait();
    let report = handle.join();
    eprintln!(
        "cnc serve: drained; {} requests in {} batches ({} coalesced away, \
         max queue depth {})",
        report.counter(Counter::ServeRequests),
        report.counter(Counter::ServeBatches),
        report.counter(Counter::ServeCoalesced),
        report.counter(Counter::ServeQueueDepthMax),
    );
    if let Some(path) = metrics_path {
        // The envelope the live `stats` reply serves, with the whole span
        // tree (the reply trims spans to fit one frame).
        let mut metrics = MetricsFile::new();
        metrics.begin_run();
        metrics.field_str("graph", &label);
        metrics.field_str("platform", "serve");
        metrics.field_str("algorithm", &algo_label);
        metrics.field_str("simd_tier", cnc_intersect::SimdTier::resolve().label());
        metrics.end_run(&report);
        std::fs::write(&path, metrics.finish()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `cnc query` — one-shot client for a running `cnc serve` daemon.
fn run_query(mut args: Vec<String>) -> Result<(), String> {
    let endpoint = parse_endpoint(&mut args, None, "--connect")?;
    let mut client = Client::connect(&endpoint).map_err(|e| e.to_string())?;
    let mut words = args.into_iter();
    let action = words.next().ok_or_else(|| {
        "query needs an action: count U V | topk K | scan THRESHOLD | stats | shutdown".to_string()
    })?;
    let mut arg = |name: &str| -> Result<u32, String> {
        words
            .next()
            .ok_or_else(|| format!("query {action} needs {name}"))?
            .parse()
            .map_err(|e| format!("bad {name}: {e}"))
    };
    let print_edges = |edges: &[cnc_core::EdgeCount]| {
        for e in edges {
            println!("{}\t{}\t{}", e.u, e.v, e.count);
        }
    };
    match action.as_str() {
        "count" => {
            let (u, v) = (arg("U")?, arg("V")?);
            match client.count(u, v).map_err(|e| e.to_string())? {
                Some(c) => println!("{c}"),
                None => return Err(format!("({u},{v}) is not an edge")),
            }
        }
        "topk" => {
            let k = arg("K")?;
            let (total, edges) = client.topk(k).map_err(|e| e.to_string())?;
            println!("total\t{total}");
            print_edges(&edges);
        }
        "scan" => {
            let threshold = arg("THRESHOLD")?;
            let (total, edges) = client.scan(threshold).map_err(|e| e.to_string())?;
            println!("total\t{total}");
            print_edges(&edges);
        }
        "stats" => println!("{}", client.stats().map_err(|e| e.to_string())?),
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            eprintln!("cnc query: server is draining and shutting down");
        }
        other => {
            return Err(format!(
                "unknown query action {other:?} (try count|topk|scan|stats|shutdown)"
            ))
        }
    }
    Ok(())
}

/// `cnc shard-worker` — the hidden per-process entry of sharded counting.
/// Spawned by the coordinator (`cnc count --shards N`), never by hand: it
/// executes one edge range of the shared prepared graph and streams the
/// section back over stdout (see `cnc-shard::protocol`).
fn run_shard_worker(mut args: Vec<String>) -> Result<(), String> {
    let prep = parse_flag(&mut args, "--prep")
        .ok_or_else(|| "shard-worker needs --prep FILE".to_string())?;
    let algo = match parse_flag(&mut args, "--algo") {
        Some(token) => cnc_shard::parse_algo_token(&token)?,
        None => Algorithm::bmp_rf(),
    };
    let reorder = match parse_flag(&mut args, "--reorder").as_deref() {
        None => None,
        Some("on") => Some(true),
        Some("off") => Some(false),
        Some(other) => return Err(format!("bad --reorder {other:?} (try on|off)")),
    };
    let mut req = |flag: &str| -> Result<usize, String> {
        parse_flag(&mut args, flag)
            .ok_or_else(|| format!("shard-worker needs {flag}"))?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    };
    let shard = req("--shard")?;
    let start = req("--start")?;
    let end = req("--end")?;
    let attempt = req("--attempt").unwrap_or(0);
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    cnc_shard::worker_main(
        &WorkerArgs {
            prep: PathBuf::from(prep),
            algo,
            reorder,
            shard,
            start,
            end,
            attempt,
        },
        &mut out,
    )
}

/// `cnc count --shards N` — scatter-gather the count across N worker
/// processes sharing one prepared graph file; output is byte-identical to
/// the single-process run.
#[allow(clippy::too_many_arguments)]
fn run_count_sharded(
    prepared: &PreparedGraph,
    algo: Algorithm,
    workload: WorkloadKind,
    platform_name: &str,
    workers: usize,
    prep_file: Option<PathBuf>,
    label: &str,
    scale_label: &str,
    ctx: Option<&Arc<ObsContext>>,
    trace: bool,
    metrics_path: Option<&str>,
    out_path: Option<&str>,
    want_stats: bool,
) -> Result<(), String> {
    if workload != WorkloadKind::Cnc {
        return Err("--shards runs the cnc workload only".to_string());
    }
    if !matches!(platform_name, "cpu" | "cpu-seq") {
        return Err(format!(
            "--shards runs on the CPU; --platform {platform_name:?} is not shardable"
        ));
    }
    if workers == 0 {
        return Err("--shards needs at least one worker".to_string());
    }
    // Workers load the preparation from disk; reuse the input/cached image
    // when one exists, otherwise write a temporary one next to the cache.
    let (prep_path, temp) = match prep_file {
        Some(p) => (p, None),
        None => {
            let dir = prepare::default_cache_dir();
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let p = dir.join(format!("shard-adhoc-{}.prep", std::process::id()));
            let f = std::fs::File::create(&p)
                .map_err(|e| format!("cannot create {}: {e}", p.display()))?;
            prepare::write_prepared(prepared, f)
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            (p.clone(), Some(p))
        }
    };
    let cfg = ShardConfig {
        workers,
        algorithm: algo,
        reorder: None,
        worker_exe: std::env::current_exe().map_err(|e| format!("cannot find own exe: {e}"))?,
        prep_path,
        // Children inherit the coordinator's environment, so fault
        // injection (CNC_SHARD_FAIL) needs no explicit forwarding here.
        fail_spec: None,
    };
    let result = cnc_shard::run_sharded(prepared, &cfg);
    if let Some(p) = &temp {
        let _ = std::fs::remove_file(p);
    }
    let out = result.map_err(|e| e.to_string())?;
    let failures = if out.worker_failures > 0 {
        format!(" ({} worker failure(s) retried)", out.worker_failures)
    } else {
        String::new()
    };
    eprintln!(
        "{label}: cpu-shard [cnc {}] counted {} directed edge slots in {:.1} ms wall \
         across {} workers{failures}",
        algo.label(),
        out.counts.len(),
        out.wall_seconds * 1e3,
        out.workers,
    );
    let g = prepared.graph();
    eprintln!(
        "triangles: {}",
        CncView::new(g, &out.counts).triangle_count()
    );
    if let Some(ctx) = ctx {
        let report = RunReport::from_context(ctx);
        if trace {
            print!("{}", report.render_trace());
        }
        if let Some(path) = metrics_path {
            let mut metrics = MetricsFile::new();
            metrics.begin_run();
            metrics.field_str("dataset", label);
            metrics.field_str("scale", scale_label);
            metrics.field_str("platform", "cpu-shard");
            metrics.field_str("workload", "cnc");
            metrics.field_str("algorithm", algo.label());
            metrics.field_str("simd_tier", cnc_intersect::SimdTier::resolve().label());
            metrics.field_raw("shard_workers", &out.workers.to_string());
            metrics.field_raw("wall_seconds", &out.wall_seconds.to_string());
            let reports: Vec<&str> = out
                .worker_reports
                .iter()
                .map(String::as_str)
                .filter(|r| !r.is_empty())
                .collect();
            metrics.field_raw("worker_reports", &format!("[{}]", reports.join(",")));
            metrics.end_run(&report);
            std::fs::write(path, metrics.finish())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    if want_stats {
        print_stats(g);
    }
    if let Some(path) = out_path {
        write_counts_file(path, g, &out.counts)?;
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--simd` is global: it pins the instruction tier for every kernel in
    // this process before anything resolves it, and is re-exported through
    // the environment so child processes (shard workers) match.
    if let Some(name) = parse_flag(&mut args, "--simd") {
        let tier = cnc_intersect::SimdTier::force_named(&name).map_err(|e| e.to_string())?;
        std::env::set_var("CNC_SIMD", tier.label());
    }
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: cnc <count|stats|scan|truss> (GRAPH | --dataset D [--scale S]) [--algo A] [--platform P] [--workload cnc|triangle|kclique] [--k K] [--schedule uniform|balanced] [--shards N] [--out F] [--eps E] [--mu M] [--stats] [--metrics F] [--trace]\n       cnc run [--scale S] [--dataset D] [--algo A] [--platform P] [--workload cnc|triangle|kclique] [--k K] [--schedule uniform|balanced] [--metrics F] [--trace]\n       cnc prepare GRAPH [--out F.prep] [--mem-budget BYTES] [--spill-dir D] [--reorder degdesc|none] [--metrics F]\n       cnc cache [ls|gc|clear] [--dir D] [--max-bytes N]\n       cnc serve (GRAPH | --dataset D [--scale S]) [--algo A] [--listen ADDR | --socket PATH] [--batch-window-us N] [--queue-cap N] [--reply-limit N] [--schedule uniform|balanced] [--metrics F]\n       cnc query (--connect ADDR | --socket PATH) (count U V | topk K | scan T | stats | shutdown)\n       global: [--simd scalar|portable|avx2|avx512] (or CNC_SIMD=) pins the vector instruction tier"
        );
        return Ok(());
    }
    let command = args.remove(0);
    if command == "cache" {
        return run_cache(args);
    }
    if command == "run" {
        return run_suite(args);
    }
    if command == "prepare" {
        return run_prepare(args);
    }
    if command == "serve" {
        return run_serve(args);
    }
    if command == "query" {
        return run_query(args);
    }
    if command == "shard-worker" {
        return run_shard_worker(args);
    }
    let algo = parse_algo(&mut args)?;
    let workload = parse_workload(&mut args)?;
    let out_path = parse_flag(&mut args, "--out");
    let eps: f64 = parse_flag(&mut args, "--eps")
        .map(|s| s.parse().map_err(|e| format!("bad --eps: {e}")))
        .transpose()?
        .unwrap_or(0.6);
    let mu: usize = parse_flag(&mut args, "--mu")
        .map(|s| s.parse().map_err(|e| format!("bad --mu: {e}")))
        .transpose()?
        .unwrap_or(3);
    let want_stats = parse_switch(&mut args, "--stats");
    let metrics_path = parse_flag(&mut args, "--metrics");
    let trace = parse_switch(&mut args, "--trace");
    let platform_arg = parse_flag(&mut args, "--platform");
    let schedule = parse_schedule(&mut args)?;
    let shards: Option<usize> = parse_flag(&mut args, "--shards")
        .map(|s| s.parse().map_err(|e| format!("bad --shards: {e}")))
        .transpose()?;
    if shards.is_some() && command != "count" {
        return Err("--shards applies to cnc count only".to_string());
    }
    let dataset =
        match parse_flag(&mut args, "--dataset") {
            Some(name) => Some(*Dataset::ALL.iter().find(|d| d.name() == name).ok_or_else(
                || format!("unknown --dataset {name:?} (try lj-s|or-s|wi-s|tw-s|fr-s)"),
            )?),
            None => None,
        };
    let ds_scale = parse_scale(&mut args)?;
    let graph_path = match (&dataset, args.first()) {
        (Some(_), Some(path)) => {
            return Err(format!(
                "give --dataset or a GRAPH file, not both ({path:?})"
            ))
        }
        (None, None) => return Err("missing GRAPH argument (or --dataset NAME)".to_string()),
        (None, Some(path)) => Some(path.clone()),
        (Some(_), None) => None,
    };
    let label = match (&graph_path, &dataset) {
        (Some(path), _) => path.clone(),
        (None, Some(d)) => format!("{}:{}", d.name(), ds_scale.name()),
        (None, None) => unreachable!("resolved above"),
    };
    let scale_label = if graph_path.is_some() {
        "file".to_string()
    } else {
        ds_scale.name().to_string()
    };
    // Observability is opt-in: install a context before preparation so the
    // report covers the prepare spans too. Without the flags nothing is
    // recorded and execution takes the unobserved code paths.
    let ctx = (metrics_path.is_some() || trace).then(|| Arc::new(ObsContext::new()));
    let _obs = ctx.as_ref().map(|c| c.install());
    // A CNCPREP4 image (from `cnc prepare` or the run cache) skips
    // preparation entirely — zero-copy mapped where the platform allows.
    // Text and binary-CSR inputs are prepared in-process as before;
    // built-in datasets prepare through the shared disk cache.
    // `prep_file` remembers an on-disk image sharded workers can share.
    let mut prep_file: Option<PathBuf> = None;
    let preloaded = match (&graph_path, &dataset) {
        (Some(path), _) if is_prepared_file(path) => {
            prep_file = Some(PathBuf::from(path));
            Some(load_prepared(path)?)
        }
        (Some(_), _) => None,
        (None, Some(d)) => {
            // The reorder policy depends on the algorithm only, so a
            // provisional sequential runner decides how to prepare.
            let policy = Runner::new(Platform::CpuSequential, algo)
                .workload(workload)
                .reorder_policy();
            let pg = d.prepare(ds_scale, policy);
            let cached = prepare::cache_path(&prepare::default_cache_dir(), *d, ds_scale, policy);
            if cached.is_file() {
                prep_file = Some(cached);
            }
            Some(pg)
        }
        (None, None) => unreachable!("resolved above"),
    };
    let raw = match (&preloaded, &graph_path) {
        (Some(_), _) => None,
        (None, Some(path)) => Some(load_graph(path)?),
        (None, None) => unreachable!("one of the loaders ran"),
    };
    let (csr_bytes, und_edges) = {
        let g = preloaded
            .as_ref()
            .map(|p| p.graph())
            .or(raw.as_ref())
            .expect("either prepared or raw graph is loaded");
        (g.csr_bytes(), g.num_undirected_edges())
    };
    let platform_name = platform_arg.unwrap_or_else(|| {
        let name = default_platform_name(csr_bytes as u64);
        if name == "gpu" {
            eprintln!(
                "cnc: {csr_bytes}-byte prepared CSR crosses ${GPU_UM_THRESHOLD_ENV}; \
                 defaulting to the unified-memory GPU platform (multipass as needed; \
                 override with --platform cpu)"
            );
        }
        name.to_string()
    });
    // Modeled platforms need a capacity scale; for ad-hoc files use the
    // graph's ratio to the paper's twitter dataset as a sensible default.
    let scale = (und_edges as f64 / 684_500_375.0).min(1.0);
    let platform = platform_for(&platform_name, scale, schedule)?;

    // Derived analytics need per-edge counts; global workload tallies
    // cannot feed them, so reject the combination up front.
    if workload != WorkloadKind::Cnc && matches!(command.as_str(), "scan" | "truss") {
        return Err(format!(
            "cnc {command} needs per-edge counts; it runs the cnc workload only"
        ));
    }
    // Prepare once (CSR + reorder tables + statistics); every subcommand
    // below shares the result instead of re-deriving it per run.
    let runner = Runner::new(platform, algo).workload(workload);
    let prepared = match (preloaded, raw) {
        (Some(p), _) => p,
        (None, Some(g)) => PreparedGraph::from_csr(g, runner.reorder_policy()),
        (None, None) => unreachable!("one of the loaders ran"),
    };
    let g = prepared.graph();

    match command.as_str() {
        "stats" => {
            print_stats(g);
            Ok(())
        }
        "count" => {
            if let Some(n) = shards {
                return run_count_sharded(
                    &prepared,
                    algo,
                    workload,
                    &platform_name,
                    n,
                    prep_file,
                    &label,
                    &scale_label,
                    ctx.as_ref(),
                    trace,
                    metrics_path.as_deref(),
                    out_path.as_deref(),
                    want_stats,
                );
            }
            let result = runner
                .try_run_prepared(&prepared)
                .map_err(|e| e.to_string())?;
            print_run_summary(&label, &result);
            // Derived analytics exist for per-edge counts only; global
            // workloads already printed their tally in the summary.
            if result.edge_counts().is_some() {
                eprintln!("triangles: {}", result.view(g).triangle_count());
            }
            if let Some(ctx) = &ctx {
                let report = RunReport::from_context(ctx);
                if trace {
                    print!("{}", report.render_trace());
                }
                if let Some(path) = &metrics_path {
                    let mut metrics = MetricsFile::new();
                    push_metrics_entry(&mut metrics, &label, &scale_label, &result, &report);
                    std::fs::write(path, metrics.finish())
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("wrote {path}");
                }
            }
            if want_stats {
                print_stats(g);
            }
            if let Some(path) = out_path {
                let counts = result.edge_counts().ok_or_else(|| {
                    "--out writes per-edge counts; use --workload cnc".to_string()
                })?;
                write_counts_file(&path, g, counts)?;
            }
            Ok(())
        }
        "scan" => {
            let result = runner
                .try_run_prepared(&prepared)
                .map_err(|e| e.to_string())?;
            let view = result.view(g);
            let r = try_scan(&view, eps, mu).map_err(|e| e.to_string())?;
            println!(
                "SCAN(eps={eps}, mu={mu}): {} clusters; cores {}, borders {}, hubs {}, outliers {}",
                r.num_clusters,
                r.count_role(cnc_core::Role::Core),
                r.count_role(cnc_core::Role::Border),
                r.count_role(cnc_core::Role::Hub),
                r.count_role(cnc_core::Role::Outlier),
            );
            let mut sizes: Vec<usize> = (0..r.num_clusters as i32)
                .map(|c| r.members(c).len())
                .collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            println!("largest clusters: {:?}", &sizes[..sizes.len().min(10)]);
            Ok(())
        }
        "truss" => {
            let result = runner
                .try_run_prepared(&prepared)
                .map_err(|e| e.to_string())?;
            let r = truss_decomposition(g, result.counts()).map_err(|e| e.to_string())?;
            println!("max trussness: {}", r.max_k);
            for k in 3..=r.max_k {
                let edges = r.truss_edge_count(g, k);
                if edges > 0 {
                    println!("  {k}-truss: {edges} edges");
                }
            }
            // Also report the densest layer's clustering quality.
            let view = CncView::new(g, result.counts());
            println!(
                "global clustering coefficient: {:.4}",
                view.global_clustering_coefficient()
            );
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cnc: {e}");
            ExitCode::FAILURE
        }
    }
}
