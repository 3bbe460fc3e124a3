//! The typed metrics registry.
//!
//! Counters are identified by the closed [`Counter`] enum rather than by
//! strings: every metric the workspace records is declared here once, with
//! its stable JSON name, so the registry can be a flat array of atomics (no
//! hashing, no interning, no allocation on the hot path) and the schema of
//! `--metrics` output is checkable at compile time.
//!
//! [`ShardedRegistry`] is the default [`MetricsSink`]: a fixed number of
//! cache-line-padded shards, each a `[AtomicU64; Counter::COUNT]`. A record
//! is one relaxed `fetch_add` on the shard picked from the calling thread's
//! id — no locks anywhere, so worker threads recording per-task tallies never
//! serialize against each other. Reads sum across shards; totals are exact
//! once the recording threads have quiesced (the only state a reader can
//! observe mid-run is a momentarily stale partial sum).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// Every metric the workspace records, with its stable JSON name.
        ///
        /// The name namespaces the source subsystem (`kernel.`, `prepare.`,
        /// `gpu.`, `model.`, `driver.`): renaming or removing a counter is a
        /// schema change and requires a [`crate::SCHEMA_VERSION`] bump;
        /// adding one is backward compatible.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        impl Counter {
            /// Number of declared counters.
            pub const COUNT: usize = [$(Counter::$variant),+].len();

            /// All counters, in declaration (and JSON output) order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),+];

            /// The stable dotted JSON name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    // --- kernel work (cnc-intersect Meter tallies) -----------------------
    /// Scalar comparisons / branchy loop iterations.
    KernelScalarOps => "kernel.scalar_ops",
    /// SIMD block operations.
    KernelVectorOps => "kernel.vector_ops",
    /// Bytes streamed sequentially.
    KernelSeqBytes => "kernel.seq_bytes",
    /// Random accesses into large working sets.
    KernelRandAccesses => "kernel.rand_accesses",
    /// Random accesses into small cache-resident structures.
    KernelRandAccessesSmall => "kernel.rand_accesses_small",
    /// Bytes written (count stores, bitmap construction).
    KernelWriteBytes => "kernel.write_bytes",
    /// Completed neighbor-set intersections.
    KernelIntersections => "kernel.intersections",
    /// `begin_source` invocations across all tasks: per-source state
    /// (BMP's bitmap) rebuilds. Source-aligned scheduling minimizes these.
    KernelSourceRebuilds => "kernel.source_rebuilds",
    /// Wide probe blocks (8/16 keys each) executed by a vector or
    /// chunked-portable path. Tier-dependent: attributes wall-clock to the
    /// SIMD tier that actually ran; not consumed by the machine models.
    KernelSimdBlocks => "kernel.simd_blocks",
    /// Keys handled by the scalar tail after a wide probe loop.
    /// Tier-dependent, like `kernel.simd_blocks`.
    KernelSimdTailElems => "kernel.simd_tail_elems",
    // --- preparation layer (cnc-graph PrepareMetrics) --------------------
    /// Edge-list → CSR constructions.
    PrepareGraphBuilds => "prepare.graph_builds",
    /// Degree-descending relabels performed.
    PrepareReorders => "prepare.reorders",
    /// In-memory prepared-graph cache hits.
    PrepareMemHits => "prepare.mem_hits",
    /// On-disk prepared-graph cache hits.
    PrepareDiskHits => "prepare.disk_hits",
    /// On-disk prepared-graph cache writes.
    PrepareDiskWrites => "prepare.disk_writes",
    /// Zero-copy mmap cache loads.
    PrepareMmapHits => "prepare.mmap_hits",
    /// CSR bytes served zero-copy across all mmap hits.
    PrepareBytesMapped => "prepare.bytes_mapped",
    /// External-sort spill runs written by the streaming preparation
    /// pipeline (0 when the whole input fit the memory budget).
    PrepareSpillRuns => "prepare.spill_runs",
    /// Bytes written to spill run files by the streaming preparation.
    PrepareSpillBytes => "prepare.spill_bytes",
    /// Fixed-size input chunks consumed by the streaming edge readers.
    PrepareStreamChunks => "prepare.stream_chunks",
    /// Peak accounted heap bytes of the streaming builder (each streamed
    /// build records its own peak once; single-build runs read it directly).
    PreparePeakResidentBytes => "prepare.peak_resident_bytes",
    // --- parallel driver (cnc-cpu) ---------------------------------------
    /// Edge-range tasks executed by the parallel skeleton.
    DriverTasks => "driver.tasks",
    /// Tasks produced by the schedule (equals `driver.tasks` per run).
    ScheduleTasks => "schedule.tasks",
    /// Largest estimated task cost in the computed schedule.
    ScheduleEstCostMax => "schedule.est_cost_max",
    /// Smallest estimated task cost in the computed schedule.
    ScheduleEstCostMin => "schedule.est_cost_min",
    // --- workload layer (cnc-workload strategies on the shared driver) ----
    /// Canonical pairs actually visited (covered by the active workload).
    WorkloadEdgesVisited => "workload.edges_visited",
    /// Canonical pairs skipped by the workload's cover predicate (always 0
    /// for CNC, which covers every pair).
    WorkloadEdgesSkipped => "workload.edges_skipped",
    /// The headline global result for global-output workloads (triangle
    /// total; largest-clique-size count). Absent for per-edge outputs.
    WorkloadGlobalCount => "workload.global_count",
    // --- GPU simulator (cnc-gpu KernelStats + unified memory) ------------
    /// Warp instructions issued.
    GpuWarpInstrs => "gpu.warp_instrs",
    /// Bytes moved by coalesced global accesses.
    GpuCoalescedBytes => "gpu.coalesced_bytes",
    /// Scattered global transactions.
    GpuScatteredTrans => "gpu.scattered_trans",
    /// Shared-memory operations.
    GpuSharedOps => "gpu.shared_ops",
    /// Global atomic operations.
    GpuAtomics => "gpu.atomics",
    /// Thread blocks executed.
    GpuBlocks => "gpu.blocks",
    /// Unified-memory faults across the run.
    GpuFaults => "gpu.faults",
    /// Bytes migrated host→device.
    GpuMigratedBytes => "gpu.migrated_bytes",
    /// Multi-pass executions performed.
    GpuPasses => "gpu.passes",
    // --- query service (cnc-serve) ----------------------------------------
    /// Point-query requests admitted by the serve layer (before
    /// deduplication; rejected-overloaded requests are not counted).
    ServeRequests => "serve.requests",
    /// Coalesced batches executed by the serve layer.
    ServeBatches => "serve.batches",
    /// Requests answered without their own kernel work: duplicates folded
    /// into an already-admitted query of the same batch
    /// (`serve.requests - serve.coalesced` distinct pairs were executed).
    ServeCoalesced => "serve.coalesced",
    /// Deepest admission-queue occupancy observed (recorded once, at
    /// report time).
    ServeQueueDepthMax => "serve.queue_depth_max",
    // --- sharded multi-process execution (cnc-shard) ----------------------
    /// Worker processes the shard coordinator spawned (retries included).
    ShardWorkers => "shard.workers",
    /// Largest estimated per-shard range cost in the coordinator's cut.
    ShardRangeCostMax => "shard.range_cost_max",
    /// Smallest estimated per-shard range cost in the coordinator's cut.
    ShardRangeCostMin => "shard.range_cost_min",
    /// Worker processes that died or mis-spoke and were retried (a run that
    /// completes with failures > 0 recovered through its bounded retry).
    ShardWorkerFailures => "shard.worker_failures",
    // --- shared-memory machine model (cnc-machine) -----------------------
    /// Timing estimates computed by the machine model.
    ModelEstimates => "model.estimates",
    /// Bytes the model priced as sequential streaming.
    ModelSeqBytes => "model.seq_bytes",
    /// Bytes the model priced as writes.
    ModelWriteBytes => "model.write_bytes",
    /// Modeled elapsed time, nanoseconds (summed over estimates).
    ModelElapsedNanos => "model.elapsed_ns",
    // --- observability self-accounting -----------------------------------
    /// Spans dropped because a recorder hit its capacity bound.
    ObsSpansDropped => "obs.spans_dropped",
}

/// Sink for counter increments.
///
/// Implementations must be safe to call concurrently from many threads
/// (worker threads record per-task tallies directly).
pub trait MetricsSink: Send + Sync {
    /// Add `n` to `counter`.
    fn add(&self, counter: Counter, n: u64);

    /// A consistent-enough snapshot of every counter (exact once recording
    /// threads have quiesced).
    fn snapshot(&self) -> CounterSnapshot;
}

/// A point-in-time copy of every counter value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; Counter::COUNT],
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        Self {
            values: [0; Counter::COUNT],
        }
    }
}

impl CounterSnapshot {
    /// The value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Set one counter (snapshot assembly).
    pub fn set(&mut self, c: Counter, v: u64) {
        self.values[c as usize] = v;
    }

    /// Counters with nonzero values, in declaration order.
    pub fn nonzero(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, v)| v != 0)
    }

    /// Component-wise saturating difference (`self - earlier`).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for c in Counter::ALL {
            out.set(c, self.get(c).saturating_sub(earlier.get(c)));
        }
        out
    }
}

/// One cache line of atomics per counter block, to keep shards from
/// false-sharing each other.
#[repr(align(64))]
struct Shard {
    values: [AtomicU64; Counter::COUNT],
}

impl Shard {
    fn new() -> Self {
        Self {
            values: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Number of shards in the default registry. A small power of two: enough
/// to spread a laptop's worth of worker threads, cheap to sum at read time.
const SHARDS: usize = 16;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each recording thread gets a stable shard index, assigned round-robin
    /// on first use — perfectly spread regardless of thread-id hashing.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// The default lock-free sharded [`MetricsSink`].
///
/// `add` is one relaxed `fetch_add` on the calling thread's shard; there is
/// no lock, no allocation, and no branch beyond the array index, so the
/// instrumented parallel drivers scale exactly as the uninstrumented ones.
pub struct ShardedRegistry {
    shards: Vec<Shard>,
}

impl std::fmt::Debug for ShardedRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRegistry")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Default for ShardedRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedRegistry {
    /// A fresh registry with all counters at zero.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }
}

impl MetricsSink for ShardedRegistry {
    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        if n == 0 {
            return;
        }
        let slot = THREAD_SLOT.with(|s| *s);
        self.shards[slot].values[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for c in Counter::ALL {
            let total = self
                .shards
                .iter()
                .map(|s| s.values[c as usize].load(Ordering::Relaxed))
                .sum();
            out.set(c, total);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn names_are_unique_and_namespaced() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
            assert!(c.name().contains('.'), "{} is not namespaced", c.name());
        }
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
    }

    #[test]
    fn add_and_snapshot_round_trip() {
        let r = ShardedRegistry::new();
        r.add(Counter::KernelScalarOps, 3);
        r.add(Counter::KernelScalarOps, 4);
        r.add(Counter::GpuFaults, 1);
        r.add(Counter::PrepareMemHits, 0); // no-op
        let s = r.snapshot();
        assert_eq!(s.get(Counter::KernelScalarOps), 7);
        assert_eq!(s.get(Counter::GpuFaults), 1);
        assert_eq!(s.get(Counter::PrepareMemHits), 0);
        let nz: Vec<_> = s.nonzero().collect();
        assert_eq!(
            nz,
            vec![(Counter::KernelScalarOps, 7), (Counter::GpuFaults, 1)]
        );
    }

    #[test]
    fn since_subtracts_saturating() {
        let r = ShardedRegistry::new();
        r.add(Counter::DriverTasks, 5);
        let early = r.snapshot();
        r.add(Counter::DriverTasks, 2);
        let late = r.snapshot();
        assert_eq!(late.since(&early).get(Counter::DriverTasks), 2);
        assert_eq!(early.since(&late).get(Counter::DriverTasks), 0);
    }

    #[test]
    fn concurrent_adds_never_lose_increments() {
        let r = Arc::new(ShardedRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        r.add(Counter::KernelIntersections, 1);
                        r.add(Counter::KernelSeqBytes, 8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder thread panicked");
        }
        let s = r.snapshot();
        assert_eq!(s.get(Counter::KernelIntersections), threads * per_thread);
        assert_eq!(s.get(Counter::KernelSeqBytes), threads * per_thread * 8);
    }
}
