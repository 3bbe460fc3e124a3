//! Multicore CPU execution of all-edge common neighbor counting.
//!
//! This crate ports the paper's OpenMP skeleton (Algorithm 3) to
//! `std::thread`: the edge-offset range `[0, |E|)` is cut into fixed
//! `|T|`-sized chunks ([`SchedulePolicy`]), and the run's workers claim task
//! indices from one atomic cursor, as `schedule(dynamic, |T|)` hands out
//! chunks. Only shard blocks ([`cut_source_blocks`]) and serve batches are
//! cut by the cost model, on source boundaries. Each worker keeps one
//! kernel for the whole run, and each task amortizes two pieces of state
//! exactly like the paper's thread-locals:
//!
//! * the previously found source vertex (`FindSrc` stash), and
//! * for BMP, the bitmap index of the current source's neighbor list,
//!   rebuilt only when the source changes.
//!
//! That skeleton is written exactly once: one source-grouped loop, one
//! [`CpuKernel`] → kernel dispatch ([`KernelPool`]) and one [`execute`],
//! instantiated per algorithm through the `PairKernel` strategies of
//! `cnc-intersect`. Bulk passes enter through
//! [`CpuKernel::run_seq_kind`] (one task) and
//! [`CpuKernel::run_par_kind`] / [`CpuKernel::run_par_metered_kind`] (a
//! [`Schedule`]); serve batches through [`BatchCounter`]; shard blocks and
//! the machine-model profiler call [`execute`] with a one-range list.
//!
//! CNC runs return one `u32` count per *directed* edge slot of the CSR
//! (`cnt[e(u,v)]` for every `(u,v)`), with the symmetric assignment
//! technique applied: only `u < v` pairs are intersected and the result is
//! mirrored to `e(v,u)`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

mod batch;
mod driver;
mod pool;
mod schedule;

pub use batch::BatchCounter;
pub use driver::{execute, BmpMode, CpuKernel, KernelPool, RangeTally, TaskMeter, WorkList};
pub use pool::{BitmapPool, PoolStats};
pub use schedule::{
    cut_source_blocks, default_workers, ParConfig, RangeBlock, Schedule, SchedulePolicy,
    DEFAULT_TASK_SIZE,
};
