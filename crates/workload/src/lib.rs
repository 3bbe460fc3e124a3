//! The workload abstraction over the source-grouped loop.
//!
//! The paper's machinery — the `FindSrc` stash, per-source kernel state,
//! source-aligned cost-balanced scheduling — is workload-agnostic in shape:
//! nothing in the traversal skeleton cares that the per-pair result is a
//! common-neighbor count scattered into a per-edge array. This crate makes
//! that latent genericity explicit. A [`Workload`] owns three things the
//! driver used to hard-code:
//!
//! 1. **The per-pair visit** — what happens for each canonical (`u < v`)
//!    pair: CNC intersects through the [`PairKernel`] and mirrors the count
//!    into both directed slots; triangle counting accumulates a global sum;
//!    k-clique counting recurses through the collect-flavored intersection
//!    kernels.
//! 2. **The accumulator shape** — a shared scatter target
//!    ([`Workload::Shared`], written disjointly by all tasks) plus a
//!    per-task accumulator ([`Workload::Accum`], merged pairwise by the
//!    parallel reduction). CNC uses `Shared = ScatterVec, Accum = ()`;
//!    the global counters invert that.
//! 3. **Cost-model hooks** — [`Workload::covers`] prunes pairs before they
//!    are priced or visited, and [`Workload::pair_cost`] /
//!    [`Workload::source_cost`] let a workload reshape the balanced
//!    schedule's per-source pricing (k-clique multiplies by its recursion
//!    depth; triangle counting prices only cover edges).
//!
//! The source-grouped loop in `cnc-cpu` is the *only* traversal; it is
//! generic over this trait, and walks either the directed edge range (bulk
//! passes, shard blocks) or an explicit pair list (point-query batches,
//! [`PairCountWorkload`]). [`WorkloadKind`] is the plan-level value
//! describing which workload runs, and [`WorkloadOutput`] the type-erased
//! result that flows through `Backend::execute` and the CLI.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod cnc;
mod kclique;
mod kind;
mod scatter;
mod triangle;

pub use cnc::{meter_reverse, CncWorkload, PairCountWorkload};
pub use kclique::{KCliqueAccum, KCliqueWorkload};
pub use kind::{WorkloadError, WorkloadKind, WorkloadOutput};
pub use scatter::ScatterVec;
pub use triangle::TriangleWorkload;

use cnc_graph::CsrGraph;
use cnc_intersect::{CostModel, Meter, PairKernel};

/// A counting workload executed by the source-grouped loop.
///
/// The loop walks a task's items — a contiguous range of directed edge
/// offsets (skipping non-canonical `u >= v` slots) or a slice of a
/// source-grouped pair list — maintains the kernel's per-source state, and
/// calls [`visit`](Workload::visit) for every covered pair.
/// Implementations must be cheap to share across rayon tasks (`Sync`) and
/// must keep [`visit`](Workload::visit) free of cross-task coordination:
/// all mutation goes through the task-local `Accum` or the disjoint-write
/// `Shared` state.
pub trait Workload: Sync {
    /// Per-run state shared by every task. Writes must be disjoint across
    /// tasks (CNC's [`ScatterVec`] mirror stores); workloads without shared
    /// state use `()`.
    type Shared: Sync;
    /// Per-task accumulator, merged pairwise by the parallel reduction.
    /// May carry scratch buffers — only the merged result survives.
    type Accum: Send;
    /// The workload's final result type.
    type Output;

    /// Build the per-run shared state for `g`.
    fn new_shared(&self, g: &CsrGraph) -> Self::Shared;

    /// Build one task's accumulator for `g`.
    fn new_accum(&self, g: &CsrGraph) -> Self::Accum;

    /// Whether the canonical pair `(u, v)` (guaranteed `u < v`) should be
    /// visited at all. Pairs not covered are skipped by the driver *and*
    /// carry no cost in the balanced schedule, so a pruning workload
    /// visibly reshapes the task decomposition.
    #[inline]
    fn covers(&self, _g: &CsrGraph, _u: u32, _v: u32) -> bool {
        true
    }

    /// Whether this workload consumes the driver-managed [`PairKernel`]
    /// per-source state. Workloads that never call
    /// [`PairKernel::count`] (k-clique recurses through the collect
    /// kernels instead) return `false` so the driver skips
    /// `begin_source`/`end_source` entirely — no bitmap is built for a
    /// kernel nobody probes.
    #[inline]
    fn uses_kernel(&self) -> bool {
        true
    }

    /// Process one covered pair `(u, v)`. `item` is the pair's edge offset
    /// when the loop walks the edge range, its index when it walks a pair
    /// list.
    ///
    /// When [`uses_kernel`](Workload::uses_kernel) is `true`, `kernel` has
    /// `begin_source(N(u))` applied. All work performed must be reported
    /// through `meter`.
    #[allow(clippy::too_many_arguments)]
    fn visit<K: PairKernel, M: Meter>(
        &self,
        g: &CsrGraph,
        shared: &Self::Shared,
        acc: &mut Self::Accum,
        item: usize,
        u: u32,
        v: u32,
        kernel: &mut K,
        meter: &mut M,
    );

    /// Fold one task's accumulator into another (parallel reduction).
    fn merge(&self, into: &mut Self::Accum, from: Self::Accum);

    /// Produce the final output from the run's shared state and the merged
    /// accumulator.
    fn finish(&self, g: &CsrGraph, shared: Self::Shared, acc: Self::Accum) -> Self::Output;

    /// Estimated cost of visiting the covered pair `(u, v)` under `model`
    /// — the balanced scheduler prices only covered pairs through this.
    /// The default is the kernel model's pair cost unchanged (exactly the
    /// historical CNC pricing).
    #[inline]
    fn pair_cost(&self, model: &CostModel, g: &CsrGraph, u: u32, v: u32) -> u64 {
        model.pair_cost(g.degree(u), g.degree(v))
    }

    /// Estimated once-per-source setup cost, charged when a source has at
    /// least one covered pair (mirroring the driver, which only runs
    /// `begin_source` for such pairs).
    #[inline]
    fn source_cost(&self, model: &CostModel, g: &CsrGraph, u: u32) -> u64 {
        model.source_cost(g.degree(u))
    }
}
