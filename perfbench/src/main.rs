//! Perf ledger for all-edge common neighbor counting.
//!
//! One run measures one workload in one process through the public
//! functions of `cnc-graph`, `cnc-core`, `cnc-cpu`, `cnc-serve` and
//! `cnc-shard`: repeated set-ups, a reference computed outside every timed
//! region, then rounds of bulk passes each followed by a serve slice. The
//! last line of stdout is the JSON result: end-to-end metrics with `--trace 0`,
//! per-layer metrics from the benchmark's own span recorder with
//! `--trace 1`. `METRICS.md` next to this crate defines every metric.

mod gate;
mod host;
mod passes;
mod serve_load;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cnc_core::{BatchSession, PreparedGraph};
use cnc_graph::stream::StreamSummary;
use cnc_graph::{generators, EdgeList};
use cnc_intersect::WorkCounts;
use cnc_obs::{Counter, RunReport};

use gate::{Ledger, Query, Reference, TOPK};
use host::Timing;
use passes::{Kernel, Prepared, Probe};
use serve_load::{Daemon, SplitMix, Timed, TopK};
use stats::{median, quantile, tail};
use trace::Recorder;

const USAGE: &str = "usage: cnc-perfbench --workload count-skew|count-uniform|serve-open \
--seed N --seconds S --trace 0|1 --cnc PATH --work-dir DIR [--smoke]";

/// Which generator family a workload draws its graph from.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Twitter-like: a few hubs over a power-law body.
    Skew,
    /// Friendster-like: uniform random.
    Uniform,
}

struct Workload {
    name: &'static str,
    shape: Shape,
    /// Budget for the streamed preparation's external sort (`None`: in
    /// memory, nothing spills).
    mem_budget: Option<u64>,
    /// Seconds of serving in each round, after its bulk passes.
    serve_slice: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "count-skew",
        shape: Shape::Skew,
        mem_budget: Some(1 << 20),
        serve_slice: 0.3,
    },
    Workload {
        name: "count-uniform",
        shape: Shape::Uniform,
        mem_budget: None,
        serve_slice: 0.3,
    },
    Workload {
        name: "serve-open",
        shape: Shape::Skew,
        mem_budget: Some(1 << 20),
        serve_slice: 1.0,
    },
];

/// Open-loop offered load, split evenly over its client connections.
const OFFERED_QPS: f64 = 600.0;
const OPEN_CONNECTIONS: usize = 2;
/// Closed-loop clients: enough concurrent callers for the daemon's
/// coalescing to form batches, few enough that 2 vCPUs are not measuring
/// their scheduler. The open loop uses the first `OPEN_CONNECTIONS`.
const CLOSED_CONNECTIONS: usize = 4;
/// Consecutive closed-loop completions per capacity sample.
const CAPACITY_CHUNK: usize = 100;
/// Serve slice split: open loop, closed loop, then `topk`.
const SERVE_SPLIT: [f64; 3] = [0.5, 0.3, 0.2];
const SETUP_REPEATS: usize = 7;
/// Direct `BatchSession::count_batch` probes in the traced run.
const COUNT_BATCH_PROBES: usize = 2000;
const SESSION_TOPK_PROBES: usize = 10;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cnc: PathBuf,
    work_dir: PathBuf,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut cnc, mut work_dir, mut smoke) = (None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--cnc" => cnc = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        cnc: cnc.ok_or_else(|| missing("--cnc"))?,
        work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
        smoke,
    })
}

/// The workload's graph from `cnc_graph::generators` with the run's seed:
/// the Small twitter analogue's size for the skewed graph; a quarter of
/// the Small friendster analogue for the uniform one, whose working set
/// then nearly fits a core's L2 (at full size its CPU times drifted twice
/// as far between runs, METRICS.md); a few thousand vertices for `--smoke`.
fn generate(shape: Shape, seed: u64, smoke: bool) -> EdgeList {
    match (shape, smoke) {
        (Shape::Skew, false) => generators::hub_web(24_000, 24.0, 6, 0.5, seed),
        (Shape::Uniform, false) => generators::gnm(10_000, 145_000, seed),
        (Shape::Skew, true) => generators::hub_web(3_000, 12.0, 3, 0.5, seed),
        (Shape::Uniform, true) => generators::gnm(4_000, 24_000, seed),
    }
}

/// Metrics in emission order, rendered as the result's `metrics` object.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// JSON has no NaN or infinity: such a value is an error, not a result.
    fn to_json(&self) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.0.len());
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            body.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", body.join(",")))
    }
}

fn main() {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything one run measured, before it becomes metrics.
struct Run {
    rec: Recorder,
    ledger: Ledger,
    summary: StreamSummary,
    triangles: u64,
    rounds: usize,
    /// CPU time of each set-up, s (their wall times are `setup` spans).
    setup_cpu_s: Vec<f64>,
    /// Untraced pass timings per kernel (`Kernel::ALL` order).
    pass: [Vec<Timing>; 3],
    shard: Vec<Timing>,
    shard_coordinator_ms: Vec<f64>,
    shard_workers: usize,
    shard_failures: u64,
    shard_cost_ratio: f64,
    probes: [Option<Probe>; 3],
    /// Open-loop requests in due order, and the queries in the order sent.
    timed: Vec<Timed>,
    open_sent: Vec<Query>,
    capacity_qps: Vec<f64>,
    /// Process CPU time per closed-loop query, one sample per slice.
    query_cpu_us: Vec<f64>,
    topk: Vec<Timing>,
    serve_report: RunReport,
    edges_visited: u64,
    edges_skipped: u64,
}

impl Run {
    fn new() -> Self {
        Self {
            rec: Recorder::new(Instant::now()),
            ledger: Ledger::default(),
            summary: StreamSummary::default(),
            triangles: 0,
            rounds: 0,
            setup_cpu_s: Vec::new(),
            pass: Default::default(),
            shard: Vec::new(),
            shard_coordinator_ms: Vec::new(),
            shard_workers: 0,
            shard_failures: 0,
            shard_cost_ratio: 0.0,
            probes: Default::default(),
            timed: Vec::new(),
            open_sent: Vec::new(),
            capacity_qps: Vec::new(),
            query_cpu_us: Vec::new(),
            topk: Vec::new(),
            serve_report: RunReport::disabled(),
            edges_visited: 0,
            edges_skipped: 0,
        }
    }

    /// Open-loop latency from due time to reply, ms.
    fn query_ms(&self) -> Vec<f64> {
        self.timed
            .iter()
            .map(|t| t.reply.duration_since(t.due).as_secs_f64() * 1e3)
            .collect()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let dir = args.work_dir.join(w.name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let jiffies_start = host::cpu_jiffies();
    let ref_loop_start = host::ref_loop_ms();

    let el = generate(w.shape, args.seed, args.smoke);
    let mut r = Run::new();
    let repeats = if args.smoke { 2 } else { SETUP_REPEATS };
    let (prepared, mut daemon, first_topks) = set_up(&el, w, &dir, repeats, &mut r)?;
    let pg = Arc::clone(&prepared.graph);
    let reference = Reference::new(&pg);
    r.triangles = reference.triangles;
    for (total, top) in &first_topks {
        r.ledger.check("first topk", reference.is_topk(*total, top));
    }

    measure(args, &pg, &prepared.path, &reference, &mut daemon, &mut r);
    // Read before the daemon stops: `ServerHandle::join` assembles the span
    // tree of every batch served into its report, a shutdown cost that
    // grows with the number of batches the host's speed allowed.
    let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    // The counters of the daemon's `stats` reply, read in process: over the
    // wire that reply also carries the span tree and outgrows the frame cap
    // after a few thousand batches.
    r.serve_report = daemon.stop();
    for t in &r.timed {
        let q = r.rec.record("query", None, t.due, t.reply);
        r.rec.record("rtt", Some(q), t.send, t.reply);
    }
    if args.trace {
        probe_session(&pg, &reference, &mut r)?;
    }
    let _ = std::fs::remove_file(&prepared.path);

    let ref_loop_end = host::ref_loop_ms();
    let steal = host::steal_pct(jiffies_start, host::cpu_jiffies());
    let (tier_level, tier_label) = host::simd_tier();
    println!(
        "host: nproc={} simd_tier={tier_label} steal_pct={steal:.3} ref_loop_ms={ref_loop_start:.3}/{ref_loop_end:.3} rounds={}",
        host::nproc(),
        r.rounds
    );
    let sets = sample_sets(&r);
    println!("samples: {}", describe(&sets));

    let mut m = Metrics::default();
    if args.trace {
        let spans = dir.join(format!("spans-seed{}.jsonl", args.seed));
        r.rec
            .write_jsonl(&spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        per_layer(&r, &mut m);
        for s in &sets {
            let t = tail(&s.samples, s.higher_is_worse);
            m.put(format!("p50.{}", s.set), median(&s.samples), s.unit);
            m.put(format!("tail.{}", s.set), t.value, s.unit);
            if s.gated.is_some() {
                m.put(format!("tail.{}.pct", s.set), t.pct, "%");
            }
            m.put(format!("samples.{}", s.set), t.samples as f64, "count");
        }
        m.put("host.steal_pct", steal, "%");
        m.put("host.ref_loop_ms", ref_loop_start, "ms");
        m.put("host.ref_loop_end_ms", ref_loop_end, "ms");
        m.put("host.nproc", host::nproc() as f64, "count");
        m.put("host.simd_tier", f64::from(tier_level), "level");
    } else {
        for s in &sets {
            if let Some((metric, q)) = s.gated {
                m.put(metric, quantile(&s.samples, q), s.unit);
            }
        }
        m.put("peak_rss_mb", peak_rss_mb, "MB");
    }
    let metrics = m.to_json()?;
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        r.ledger.failed == 0,
        r.ledger.attempted,
        r.ledger.failed,
    );
    Ok(())
}

/// The set-up, `repeats` times: a streamed preparation into a fresh `.prep`,
/// then a daemon on it with its clients connected and its first `topk`
/// answered. Each repeat is one `setup` span. The previous repeat's daemon
/// stops before the next starts, outside the span; the last one serves the
/// run. Returns it with every repeat's first `topk` reply.
fn set_up(
    el: &EdgeList,
    w: &Workload,
    dir: &Path,
    repeats: usize,
    r: &mut Run,
) -> Result<(Prepared, Daemon, Vec<TopK>), String> {
    let mut live: Option<(Prepared, Daemon)> = None;
    let mut first_topks = Vec::with_capacity(repeats);
    for i in 0..repeats {
        if let Some((old, daemon)) = live.take() {
            daemon.stop();
            let _ = std::fs::remove_file(&old.path);
        }
        let cpu0 = host::process_cpu_ms();
        let root = r.rec.open("setup", None);
        let prepared = passes::prepare(
            el,
            w.mem_budget,
            dir.join(format!("graph-{i}.prep")),
            &mut r.rec,
            root,
        )
        .map_err(|e| format!("set-up: prepare: {e}"))?;
        let sock = dir.join(format!("serve-{i}.sock"));
        let daemon = r
            .rec
            .time("serve_start", Some(root), || {
                Daemon::start(Arc::clone(&prepared.graph), &sock, CLOSED_CONNECTIONS)
            })
            .map_err(|e| format!("set-up: serve: {e}"))?;
        r.rec.close(root);
        r.setup_cpu_s.push((host::process_cpu_ms() - cpu0) / 1e3);
        first_topks.push(daemon.first_topk.clone());
        r.summary = prepared.summary;
        live = Some((prepared, daemon));
    }
    let (prepared, daemon) = live.expect("at least one set-up");
    Ok((prepared, daemon, first_topks))
}

/// Rounds until `--seconds` have passed: BMP-RF, MPS, triangle and shard
/// passes, then a serve slice (open loop, closed loop, `topk`), so a burst
/// of host noise lands on every metric alike. The traced run adds the
/// staged passes and layer probes.
fn measure(
    args: &Args,
    pg: &PreparedGraph,
    prep_path: &Path,
    reference: &Reference,
    daemon: &mut Daemon,
    r: &mut Run,
) {
    let mut rng = SplitMix::new(args.seed);
    let slice = Duration::from_secs_f64(if args.smoke {
        0.1
    } else {
        args.workload.serve_slice
    });
    let [open_share, closed_share, topk_share] = SERVE_SPLIT;
    let per_client = (OFFERED_QPS / OPEN_CONNECTIONS as f64
        * slice.mul_f64(open_share).as_secs_f64())
    .round() as usize;
    let min_rounds = if args.smoke { 1 } else { 3 };
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    while r.rounds < min_rounds || Instant::now() < end {
        for (i, k) in Kernel::ALL.into_iter().enumerate() {
            r.pass[i].push(passes::run_pass(k, pg, reference, &mut r.ledger));
            if args.trace {
                passes::staged_pass(k, pg, reference, &mut r.rec, &mut r.ledger);
                match passes::probe(k, pg, reference, &mut r.rec, &mut r.ledger) {
                    Ok(p) => r.probes[i] = Some(p),
                    Err(e) => r.ledger.fail(k.probe_span(), e),
                }
            }
        }
        let (timing, out) = passes::shard_pass(pg, prep_path, &args.cnc, reference, &mut r.ledger);
        r.shard.push(timing);
        if let Some(out) = out {
            r.shard_coordinator_ms.push(out.wall_seconds * 1e3);
            r.shard_workers = out.workers;
            r.shard_failures += out.worker_failures;
            r.shard_cost_ratio = out.range_cost_max as f64 / out.range_cost_min.max(1) as f64;
        }

        let queries: Vec<_> = (0..OPEN_CONNECTIONS)
            .map(|_| serve_load::draw(&reference.edges, &mut rng, per_client))
            .collect();
        let timed = serve_load::open_loop(
            &mut daemon.clients[..OPEN_CONNECTIONS],
            &queries,
            OFFERED_QPS,
            &mut r.ledger,
        );
        r.timed.extend(timed);
        r.open_sent.extend(queries.into_iter().flatten());

        let queries: Vec<_> = (0..CLOSED_CONNECTIONS)
            .map(|_| serve_load::draw(&reference.edges, &mut rng, 1024))
            .collect();
        let closed = serve_load::closed_loop(
            &mut daemon.clients,
            &queries,
            slice.mul_f64(closed_share),
            CAPACITY_CHUNK,
            &mut r.ledger,
        );
        r.capacity_qps.extend(closed.rates);
        r.query_cpu_us.extend(closed.cpu_us_per_query);

        let calls = serve_load::topk_loop(
            &mut daemon.clients[0],
            reference,
            slice.mul_f64(topk_share),
            1,
            &mut r.ledger,
        );
        r.topk.extend(calls);
        r.rounds += 1;
    }
}

/// The traced run's probes below the daemon: the open-loop queries one by
/// one through `BatchSession::count_batch`, `BatchSession::topk` on a warm
/// bulk cache, and one triangle pass under an installed `ObsContext`.
fn probe_session(
    pg: &Arc<PreparedGraph>,
    reference: &Reference,
    r: &mut Run,
) -> Result<(), String> {
    let session =
        BatchSession::new(Kernel::BmpRf.runner(), Arc::clone(pg)).map_err(|e| e.to_string())?;
    for q in r.open_sent.iter().take(COUNT_BATCH_PROBES) {
        let got = r
            .rec
            .time("count_batch", None, || session.count_batch(&[(q.u, q.v)]));
        r.ledger.check("count_batch", got.answers == [Some(q.want)]);
    }
    // The first call fills the bulk cache and is not a sample.
    let (total, top) = session.topk(TOPK);
    r.ledger
        .check("session topk", reference.is_topk(total as u64, &top));
    for _ in 0..SESSION_TOPK_PROBES {
        let (total, top) = r.rec.time("session_topk", None, || session.topk(TOPK));
        r.ledger
            .check("session topk", reference.is_topk(total as u64, &top));
    }
    (r.edges_visited, r.edges_skipped) = passes::triangle_counters(pg, reference, &mut r.ledger);
    Ok(())
}

/// Quantile of the open-loop latencies that `query_p10_ms` gates: the fast
/// side. On a shared host, steal and late wake-ups stretch the slow side of
/// the distribution from run to run; the fast side tracks the code.
const FAST: f64 = 0.1;

/// One sample set of a run: the samples behind an end-to-end metric, or a
/// set that is reported but not gated (the wall-clock twins of the gated
/// CPU times, and the closed loop's capacity and CPU per query).
struct SampleSet {
    /// The gated metric's name in `BENCHMARK.json` and the quantile of the
    /// samples it takes; `None` for a set that is reported only.
    gated: Option<(&'static str, f64)>,
    /// The set's name in the per-layer `p50.*`, `tail.*` and `samples.*`
    /// metrics.
    set: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
    higher_is_worse: bool,
}

/// Every sample set, the gated ones in `BENCHMARK.json` order (`peak_rss_mb`,
/// a single reading, follows them).
fn sample_sets(r: &Run) -> Vec<SampleSet> {
    let set = |gated, set, unit, samples: Vec<f64>| SampleSet {
        gated,
        set,
        unit,
        samples,
        higher_is_worse: true,
    };
    let cpu = |ts: &[Timing]| ts.iter().map(|t| t.cpu_ms).collect::<Vec<_>>();
    let wall = |ts: &[Timing]| ts.iter().map(|t| t.wall_ms).collect::<Vec<_>>();
    let setup_wall: Vec<f64> = r.rec.root_ms("setup").iter().map(|ms| ms / 1e3).collect();
    let mut sets = vec![set(
        Some(("setup_s", 0.5)),
        "setup_s",
        "s",
        r.setup_cpu_s.clone(),
    )];
    for (k, ts) in Kernel::ALL.iter().zip(&r.pass) {
        sets.push(set(
            Some((k.cpu_metric(), 0.5)),
            k.cpu_metric(),
            "ms",
            cpu(ts),
        ));
    }
    sets.push(set(
        Some(("shard_pass_cpu_ms", 0.5)),
        "shard_pass_cpu_ms",
        "ms",
        cpu(&r.shard),
    ));
    sets.push(set(
        Some(("query_p10_ms", FAST)),
        "query_ms",
        "ms",
        r.query_ms(),
    ));
    sets.push(set(
        Some(("topk_cpu_ms", 0.5)),
        "topk_cpu_ms",
        "ms",
        cpu(&r.topk),
    ));
    for (k, ts) in Kernel::ALL.iter().zip(&r.pass) {
        sets.push(set(None, k.pass_metric(), "ms", wall(ts)));
    }
    sets.push(set(None, "shard_pass_ms", "ms", wall(&r.shard)));
    sets.push(SampleSet {
        higher_is_worse: false,
        ..set(None, "capacity_qps", "1/s", r.capacity_qps.clone())
    });
    sets.push(set(None, "query_cpu_us", "us", r.query_cpu_us.clone()));
    sets.push(set(None, "topk_ms", "ms", wall(&r.topk)));
    sets.push(set(None, "setup_wall_s", "s", setup_wall));
    sets
}

/// Sample count, gated value, p10, median and tail of every set, for the run
/// log.
fn describe(sets: &[SampleSet]) -> String {
    let body: Vec<String> = sets
        .iter()
        .map(|s| {
            let t = tail(&s.samples, s.higher_is_worse);
            let gated = s.gated.map_or(String::from("null"), |(_, q)| {
                quantile(&s.samples, q).to_string()
            });
            format!(
                "\"{}\":{{\"n\":{},\"gated\":{gated},\"p10\":{},\"p50\":{},\"tail\":{},\"tail_pct\":{}}}",
                s.set,
                s.samples.len(),
                quantile(&s.samples, 0.1),
                median(&s.samples),
                t.value,
                t.pct
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn work_fields(w: &WorkCounts) -> [(&'static str, u64); 9] {
    [
        ("intersections", w.intersections),
        ("scalar_ops", w.scalar_ops),
        ("vector_ops", w.vector_ops),
        ("seq_bytes", w.seq_bytes),
        ("rand_accesses", w.rand_accesses),
        ("rand_accesses_small", w.rand_accesses_small),
        ("write_bytes", w.write_bytes),
        ("simd_blocks", w.simd_blocks),
        ("simd_tail_elems", w.simd_tail_elems),
    ]
}

/// Per-layer metrics of the traced run, named after the crate whose public
/// call they time or count.
fn per_layer(r: &Run, m: &mut Metrics) {
    let rec = &r.rec;
    let med_self = |root: &str, name: &str| median(&rec.self_ms(root, name));

    let s = &r.summary;
    m.put("graph.prepare_ms", med_self("setup", "prepare"), "ms");
    m.put("graph.map_ms", med_self("setup", "map"), "ms");
    m.put("graph.spill_runs", s.spill_runs as f64, "count");
    m.put("graph.spill_bytes", s.spill_bytes as f64, "B");
    m.put(
        "graph.peak_resident_bytes",
        s.peak_resident_bytes as f64,
        "B",
    );
    m.put("graph.file_bytes", s.file_bytes as f64, "B");

    let plans: Vec<f64> = Kernel::ALL
        .iter()
        .flat_map(|k| rec.self_ms(k.pass_span(), "plan"))
        .collect();
    m.put("core.plan_us", median(&plans) * 1e3, "us");
    for (k, untraced) in Kernel::ALL.iter().zip(&r.pass) {
        let stages =
            ["plan", "execute", "remap"].map(|stage| median(&rec.self_ms(k.pass_span(), stage)));
        m.put(format!("core.execute_ms.{}", k.label()), stages[1], "ms");
        if *k == Kernel::BmpRf {
            m.put("core.remap_ms", stages[2], "ms");
        }
        let untraced = median(&untraced.iter().map(|t| t.wall_ms).collect::<Vec<_>>());
        m.put(
            format!("core.unattributed_ms.{}", k.label()),
            untraced - stages.iter().sum::<f64>(),
            "ms",
        );
        m.put(
            format!("trace.overhead_ms.{}", k.label()),
            median(&rec.root_ms(k.pass_span())) - untraced,
            "ms",
        );
    }
    let count_batch_us = median(&rec.root_ms("count_batch")) * 1e3;
    m.put("core.count_batch_us", count_batch_us, "us");
    m.put("core.topk_ms", median(&rec.root_ms("session_topk")), "ms");

    for (k, probe) in Kernel::ALL.iter().zip(&r.probes) {
        let l = k.label();
        m.put(
            format!("cpu.schedule_ms.{l}"),
            med_self(k.probe_span(), "schedule"),
            "ms",
        );
        let ratio = probe.as_ref().map_or(0.0, |p| {
            p.est_cost_max as f64 / p.est_cost_min.max(1) as f64
        });
        m.put(format!("cpu.est_cost_max_over_min.{l}"), ratio, "ratio");
        m.put(
            format!("cpu.kernel_seq_ms.{l}"),
            med_self(k.probe_span(), "kernel_seq"),
            "ms",
        );
    }
    for (k, probe) in Kernel::ALL.iter().zip(&r.probes) {
        let work = probe.as_ref().map(|p| p.work).unwrap_or_default();
        for (field, v) in work_fields(&work) {
            let unit = if field.ends_with("_bytes") {
                "B"
            } else {
                "count"
            };
            m.put(format!("intersect.{}.{field}", k.label()), v as f64, unit);
        }
    }

    m.put("workload.triangles", r.triangles as f64, "count");
    m.put("workload.edges_visited", r.edges_visited as f64, "count");
    m.put("workload.edges_skipped", r.edges_skipped as f64, "count");

    let rtt_p50 = med_self("query", "rtt");
    let late = rec.self_ms("query", "query");
    let stat = |c: Counter| r.serve_report.counter(c);
    m.put(
        "serve.rtt_p10_ms",
        quantile(&rec.self_ms("query", "rtt"), FAST),
        "ms",
    );
    m.put("serve.rtt_p50_ms", rtt_p50, "ms");
    m.put("serve.query_p99_ms", quantile(&r.query_ms(), 0.99), "ms");
    m.put("serve.overhead_us", rtt_p50 * 1e3 - count_batch_us, "us");
    m.put(
        "serve.batch_size_mean",
        stat(Counter::ServeRequests) as f64 / stat(Counter::ServeBatches).max(1) as f64,
        "count",
    );
    m.put(
        "serve.queue_depth_max",
        stat(Counter::ServeQueueDepthMax) as f64,
        "count",
    );
    m.put("loadgen.late_p50_ms", median(&late), "ms");
    m.put("loadgen.late_p99_ms", quantile(&late, 0.99), "ms");

    m.put(
        "shard.coordinator_ms",
        median(&r.shard_coordinator_ms),
        "ms",
    );
    m.put("shard.workers", r.shard_workers as f64, "count");
    m.put("shard.worker_failures", r.shard_failures as f64, "count");
    m.put("shard.range_cost_max_over_min", r.shard_cost_ratio, "ratio");
}
