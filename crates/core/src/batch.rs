//! Point-query batch sessions: the plan/backend entry the serving layer
//! executes through.
//!
//! A [`BatchSession`] is a planned run held open: one `Arc<PreparedGraph>`,
//! one validated [`Plan`], and one resident [`BatchCounter`] whose kernel
//! pool (BMP's `|V|`-bit bitmaps) survives across batches. Each
//! [`count_batch`](BatchSession::count_batch) call answers a whole batch of
//! `count(u, v)` point queries the way a bulk pass would:
//!
//! 1. map original vertex ids into the execution graph (degree-descending
//!    relabel, when the plan reorders) and canonicalize to `u < v`;
//! 2. sort by source and deduplicate — duplicate queries in one batch are
//!    answered by a single kernel probe;
//! 3. execute the unique pairs as one cost-balanced, source-aligned
//!    schedule (`BatchCounter::count_pairs`, the same `cnc_cpu::execute`
//!    as a bulk pass), building per-source kernel state once per source
//!    per batch;
//! 4. scatter the counts back to the callers' query order.
//!
//! `topk` / `scan` queries are answered from a lazily computed, cached bulk
//! pass over the whole edge set (they need every count anyway).
//!
//! Sessions execute on the real CPU backends only — the modeled platforms
//! estimate whole passes and have no point-query entry
//! ([`PlanError::UnsupportedBatchPlatform`]).

use std::sync::{Arc, Mutex};

use cnc_cpu::{BatchCounter, PoolStats, SchedulePolicy};
use cnc_graph::PreparedGraph;
use cnc_obs::ObsContext;
use cnc_workload::WorkloadKind;

use crate::plan::{Plan, PlanError};
use crate::runner::{Platform, Runner};

/// One counted edge, in the input graph's vertex ids (`u < v`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCount {
    /// Smaller endpoint.
    pub u: u32,
    /// Larger endpoint.
    pub v: u32,
    /// `|N(u) ∩ N(v)|`.
    pub count: u32,
}

/// The outcome of one coalesced batch.
#[derive(Debug, Clone)]
pub struct BatchAnswers {
    /// One answer per query, in query order: `Some(count)` for edges of the
    /// graph, `None` for pairs that are not edges (including out-of-range
    /// vertex ids and self-loops).
    pub answers: Vec<Option<u32>>,
    /// Distinct canonical pairs actually executed — the coalescing
    /// evidence: `queries.len() - unique_pairs` answers were satisfied by
    /// another query's kernel probe.
    pub unique_pairs: usize,
}

/// A resident, planned point-query executor over one prepared graph.
pub struct BatchSession {
    runner: Runner,
    prepared: Arc<PreparedGraph>,
    plan: Plan,
    counter: BatchCounter,
    tasks: usize,
    /// Bulk counts in *original* edge offsets, computed once on first
    /// `topk`/`scan` and shared from then on.
    bulk: Mutex<Option<Arc<Vec<u32>>>>,
}

impl std::fmt::Debug for BatchSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSession")
            .field("plan", &self.plan)
            .field("tasks", &self.tasks)
            .finish()
    }
}

impl BatchSession {
    /// Plan `runner` against `prepared` and hold the result open for
    /// batched point queries.
    ///
    /// Rejects non-CPU platforms ([`PlanError::UnsupportedBatchPlatform`])
    /// and non-CNC workloads ([`PlanError::UnsupportedWorkload`]) — point
    /// queries are common-neighbor counts by definition. The session runs
    /// on the global rayon pool; a `ParConfig` thread override is ignored.
    pub fn new(runner: Runner, prepared: Arc<PreparedGraph>) -> Result<Self, PlanError> {
        let plan = runner.plan(&prepared)?;
        if !matches!(
            runner.platform(),
            Platform::CpuSequential | Platform::CpuParallel(_)
        ) {
            return Err(PlanError::UnsupportedBatchPlatform {
                platform: runner.backend().label(),
            });
        }
        if plan.workload != WorkloadKind::Cnc {
            return Err(PlanError::UnsupportedWorkload {
                workload: plan.workload.label(),
                platform: "point-query batch".to_string(),
            });
        }
        let tasks = match &plan.partitioning {
            None => 1,
            Some(cfg) => match cfg.schedule {
                SchedulePolicy::Balanced { tasks } => tasks,
                // The uniform policy's fixed edge-chunk size has no meaning
                // for a pair list; default to a few tasks per worker.
                SchedulePolicy::Uniform { .. } => default_batch_tasks(),
            },
        };
        let n = prepared.graph().num_vertices();
        let counter = BatchCounter::new(plan.cpu_kernel, n);
        Ok(Self {
            runner,
            prepared,
            plan,
            counter,
            tasks,
            bulk: Mutex::new(None),
        })
    }

    /// The resolved plan this session executes.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The preparation this session serves.
    pub fn prepared(&self) -> &Arc<PreparedGraph> {
        &self.prepared
    }

    /// Kernel-pool usage across every batch so far (`None` for stateless
    /// kernels). `created` staying at the worker bound however many batches
    /// ran is the cross-batch reuse evidence.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.counter.pool_stats()
    }

    /// Answer a batch of `(u, v)` point queries (original vertex ids, any
    /// order, duplicates welcome) as one deduplicated, source-aligned,
    /// cost-balanced schedule. Recorded under an `execute` span when an
    /// [`ObsContext`] is installed.
    pub fn count_batch(&self, queries: &[(u32, u32)]) -> BatchAnswers {
        let obs = ObsContext::current();
        let _span = obs.as_ref().map(|ctx| ctx.span("execute"));
        let g_exec = self.prepared.execution_graph(self.plan.reorder);
        let remap = if self.plan.reorder {
            self.prepared.reordered()
        } else {
            None
        };
        let n = g_exec.num_vertices() as u32;
        let mut answers = vec![None; queries.len()];
        // Canonical execution-graph pair per answerable query.
        let mut keyed: Vec<((u32, u32), u32)> = Vec::with_capacity(queries.len());
        for (i, &(u, v)) in queries.iter().enumerate() {
            if u >= n || v >= n || u == v {
                continue;
            }
            let (mut a, mut b) = match remap {
                Some(r) => (r.to_new(u), r.to_new(v)),
                None => (u, v),
            };
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            if g_exec.edge_offset(a, b).is_some() {
                keyed.push(((a, b), i as u32));
            }
        }
        keyed.sort_unstable();
        let mut unique: Vec<(u32, u32)> = Vec::with_capacity(keyed.len());
        for &(pair, _) in &keyed {
            if unique.last() != Some(&pair) {
                unique.push(pair);
            }
        }
        let counts = self.counter.count_pairs(g_exec, &unique, self.tasks);
        let mut at = 0usize;
        for &(pair, qi) in &keyed {
            while unique[at] != pair {
                at += 1;
            }
            answers[qi as usize] = Some(counts[at]);
        }
        BatchAnswers {
            answers,
            unique_pairs: unique.len(),
        }
    }

    /// The cached full-pass counts (original edge offsets), computed on
    /// first use via this session's runner.
    fn bulk_counts(&self) -> Arc<Vec<u32>> {
        {
            let cached = self.bulk.lock().expect("bulk lock poisoned");
            if let Some(c) = cached.as_ref() {
                return Arc::clone(c);
            }
        }
        // Run outside the lock: a bulk pass can take a while and `topk`
        // probes from connection threads must not pile up on a poisoned
        // mutex if it panics. Losing the race just recomputes once.
        let run = self
            .runner
            .try_run_prepared(&self.prepared)
            .expect("session plan already validated");
        let counts = Arc::new(run.into_counts());
        let mut cached = self.bulk.lock().expect("bulk lock poisoned");
        Arc::clone(cached.get_or_insert(counts))
    }

    /// The `k` highest-count edges, ordered by descending count then
    /// ascending `(u, v)` (deterministic across runs), plus the number of
    /// candidate edges *before* truncation to `k` — the untruncated total
    /// the serve protocol reports, mirroring [`BatchSession::scan`].
    ///
    /// Selects the first `k` in `O(|E|)` and sorts only those: the order
    /// is total (no two edges share `(u, v)`), so the result is the prefix
    /// a full sort would give.
    pub fn topk(&self, k: usize) -> (usize, Vec<EdgeCount>) {
        let bulk = self.bulk_counts();
        let g = self.prepared.graph();
        let mut all: Vec<EdgeCount> = g
            .iter_edges()
            .filter(|&(_, u, v)| u < v)
            .map(|(eid, u, v)| EdgeCount {
                u,
                v,
                count: bulk[eid],
            })
            .collect();
        let order = |a: &EdgeCount, b: &EdgeCount| {
            b.count
                .cmp(&a.count)
                .then_with(|| (a.u, a.v).cmp(&(b.u, b.v)))
        };
        let total = all.len();
        if k < total {
            all.select_nth_unstable_by(k, order);
            all.truncate(k);
        }
        all.sort_unstable_by(order);
        (total, all)
    }

    /// Every edge with `count >= threshold`, in `(u, v)` order, truncated
    /// to `limit` entries; the untruncated total comes back alongside.
    pub fn scan(&self, threshold: u32, limit: usize) -> (usize, Vec<EdgeCount>) {
        let bulk = self.bulk_counts();
        let g = self.prepared.graph();
        let mut total = 0usize;
        let mut hits = Vec::new();
        for (eid, u, v) in g.iter_edges() {
            if u < v && bulk[eid] >= threshold {
                total += 1;
                if hits.len() < limit {
                    hits.push(EdgeCount {
                        u,
                        v,
                        count: bulk[eid],
                    });
                }
            }
        }
        (total, hits)
    }
}

fn default_batch_tasks() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_mul(4))
        .unwrap_or(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Algorithm;
    use crate::verify::reference_counts;
    use cnc_graph::datasets::{Dataset, Scale};
    use cnc_graph::ReorderPolicy;
    use rand::{Rng, SeedableRng, StdRng};

    fn session(algorithm: Algorithm) -> (BatchSession, Vec<u32>) {
        let runner = Runner::new(Platform::cpu_parallel(), algorithm);
        let g = Dataset::TwS.build(Scale::Tiny);
        let want = reference_counts(&g);
        let pg = PreparedGraph::from_csr(g, runner.reorder_policy());
        (BatchSession::new(runner, pg).expect("plannable"), want)
    }

    #[test]
    fn batched_answers_match_the_sequential_oracle() {
        for algorithm in [
            Algorithm::MergeBaseline,
            Algorithm::mps(),
            Algorithm::bmp_rf(),
        ] {
            let (s, want) = session(algorithm);
            let g = s.prepared().graph().clone();
            let queries: Vec<(u32, u32)> = g
                .iter_edges()
                .map(|(_, u, v)| (u, v)) // both directions, unsorted
                .collect();
            let out = s.count_batch(&queries);
            for (q, &(u, v)) in queries.iter().enumerate() {
                let eid = g.edge_offset(u, v).expect("query is an edge");
                assert_eq!(
                    out.answers[q],
                    Some(want[eid]),
                    "{algorithm:?} query ({u},{v})"
                );
            }
            // Both directions of each edge coalesce onto one canonical pair.
            assert_eq!(out.unique_pairs, queries.len() / 2, "{algorithm:?}");
        }
    }

    #[test]
    fn duplicates_coalesce_and_non_edges_answer_none() {
        let (s, want) = session(Algorithm::bmp_rf());
        let g = s.prepared().graph().clone();
        let (_, u, v) = g.iter_edges().find(|&(_, u, v)| u < v).expect("an edge");
        let eid = g.edge_offset(u, v).expect("edge");
        let n = g.num_vertices() as u32;
        let non_edge = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .find(|&(a, b)| g.edge_offset(a, b).is_none())
            .expect("analogue graphs are sparse");
        let queries = vec![(u, v), (v, u), non_edge, (u, v), (n, 0), (u, u)];
        let out = s.count_batch(&queries);
        assert_eq!(out.answers[0], Some(want[eid]));
        assert_eq!(out.answers[1], Some(want[eid]));
        assert_eq!(out.answers[3], Some(want[eid]));
        assert_eq!(out.answers[2], None, "non-adjacent pair");
        assert_eq!(out.answers[4], None, "out-of-range vertex");
        assert_eq!(out.answers[5], None, "self-loop");
        assert_eq!(out.unique_pairs, 1, "three aliases of one pair");
        assert!(s.count_batch(&[]).answers.is_empty());
    }

    #[test]
    fn kernel_pool_survives_across_batches() {
        let (s, _) = session(Algorithm::bmp_rf());
        let g = s.prepared().graph().clone();
        let mut rng = StdRng::seed_from_u64(42);
        let edges: Vec<(u32, u32)> = g
            .iter_edges()
            .filter(|&(_, u, v)| u < v)
            .map(|(_, u, v)| (u, v))
            .collect();
        for _ in 0..30 {
            let batch: Vec<(u32, u32)> = (0..64)
                .map(|_| edges[rng.gen_range(0..edges.len())])
                .collect();
            s.count_batch(&batch);
        }
        let stats = s.pool_stats().expect("bmp session has a pool");
        assert!(
            stats.created <= rayon::current_num_threads() * 2 + 1,
            "created {} bitmaps over 30 batches",
            stats.created
        );
        assert!(stats.reused > 0);
    }

    #[test]
    fn count_batch_opens_one_execute_span_and_nothing_beneath() {
        // The daemon always installs a context; a batch must not grow its
        // span tree beyond the one `execute` span.
        let (s, want) = session(Algorithm::bmp_rf());
        let g = s.prepared().graph().clone();
        let queries: Vec<(u32, u32)> = g.iter_edges().map(|(_, u, v)| (u, v)).collect();
        let ctx = Arc::new(ObsContext::new());
        let out = {
            let _installed = ctx.install();
            s.count_batch(&queries)
        };
        for (q, &(u, v)) in queries.iter().enumerate() {
            assert_eq!(
                out.answers[q],
                Some(want[g.edge_offset(u, v).expect("edge")])
            );
        }
        let tree = ctx.recorder().tree();
        assert_eq!(tree.len(), 1, "{tree:?}");
        assert_eq!(tree[0].name, "execute");
        assert!(tree[0].children.is_empty(), "{:?}", tree[0].children);
        let counters = ctx.counters();
        assert!(counters.get(cnc_obs::Counter::DriverTasks) > 0);
        assert_eq!(
            counters.get(cnc_obs::Counter::WorkloadEdgesVisited),
            out.unique_pairs as u64
        );
    }

    #[test]
    fn topk_and_scan_agree_with_reference_counts() {
        let (s, want) = session(Algorithm::mps());
        let g = s.prepared().graph().clone();
        let mut all: Vec<EdgeCount> = g
            .iter_edges()
            .filter(|&(_, u, v)| u < v)
            .map(|(eid, u, v)| EdgeCount {
                u,
                v,
                count: want[eid],
            })
            .collect();
        all.sort_unstable_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| (a.u, a.v).cmp(&(b.u, b.v)))
        });
        // A `k` inside a run of equal counts: the selection must cut the
        // tie run exactly where the full sort's `(u, v)` order does.
        let tie = (2..all.len())
            .find(|&i| all[i - 1].count == all[i].count)
            .expect("tw-s has tied counts");
        for k in [5, 0, tie, all.len(), all.len() + 7] {
            let (top_total, top) = s.topk(k);
            assert_eq!(top_total, all.len(), "k={k}: topk total is pre-truncation");
            assert_eq!(top, all[..k.min(all.len())].to_vec(), "k={k}");
        }
        let (_, top) = s.topk(5);
        let threshold = top[0].count;
        let (total, hits) = s.scan(threshold, 1_000_000);
        assert_eq!(total, all.iter().filter(|e| e.count >= threshold).count());
        assert!(hits.iter().all(|e| e.count >= threshold));
        assert_eq!(total, hits.len());
        let (capped_total, capped) = s.scan(0, 3);
        assert_eq!(capped_total, all.len());
        assert_eq!(capped.len(), 3);
    }

    #[test]
    fn non_cpu_platforms_and_non_cnc_workloads_are_rejected() {
        let g = Dataset::TwS.build(Scale::Tiny);
        let pg = PreparedGraph::from_csr(g, ReorderPolicy::None);
        let scale = 1.0;
        let modeled = Runner::new(Platform::knl_flat(scale), Algorithm::mps());
        match BatchSession::new(modeled, Arc::clone(&pg)) {
            Err(PlanError::UnsupportedBatchPlatform { platform }) => {
                assert_eq!(platform, "knl")
            }
            other => panic!("expected UnsupportedBatchPlatform, got {other:?}"),
        }
        let triangle = Runner::new(Platform::cpu_parallel(), Algorithm::mps())
            .workload(WorkloadKind::Triangle);
        assert!(matches!(
            BatchSession::new(triangle, pg),
            Err(PlanError::UnsupportedWorkload { .. })
        ));
    }
}
