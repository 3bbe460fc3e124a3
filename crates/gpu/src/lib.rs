//! A CUDA-like GPU simulator and the paper's GPU counting kernels.
//!
//! No NVIDIA GPU is attached to this machine, so the GPU backend is a
//! *functional simulator with a transaction-level cost model* (see
//! DESIGN.md's substitution table):
//!
//! * [`spec::GpuSpec`] models the paper's TITAN Xp — 30 SMs, 2048 threads
//!   and 16 block slots per SM, 48 KB shared memory, 12 GB global memory —
//!   including the occupancy rules the paper quotes (4 warps/block → 16
//!   concurrent blocks/SM → 100% occupancy).
//! * [`kernels`] executes Algorithms 5 and 6 *functionally* (exact counts,
//!   warp-accurate structure: warp-strided edge loops, 8×4 warp block
//!   merges, `__shfl_down` reductions, atomic bitmap construction) while
//!   tallying warp instructions, coalesced bytes and scattered transactions.
//! * [`cost`] prices the tallies with a roofline + latency-hiding model
//!   where occupancy determines how much scattered-access latency is hidden
//!   (the Figure 9 mechanism).
//! * [`mem::UnifiedMemory`] reproduces on-demand paging with LRU eviction,
//!   giving multi-pass processing (Section 4.2.2) its real behavior —
//!   including the thrashing cliff of Figure 8 when the pass count drops
//!   below the paper's estimate.
//! * [`pool::DeviceBitmapPool`] is Algorithm 6's `B_A`/`BS_A` bitmap pool
//!   with CAS acquisition.
//! * [`coprocess`] implements Algorithm 4's CPU–GPU co-processing: the
//!   reverse-offset assignment and the final gather run as sequential
//!   loops on the *real* host CPU, and their reported time is modeled on
//!   the paper's CPU server (the host wall clock is informational only).
//!
//! # Example
//!
//! ```
//! use cnc_graph::datasets::{Dataset, Scale};
//! use cnc_gpu::{GpuAlgo, GpuRunConfig, GpuRunner};
//!
//! let g = Dataset::TwS.build(Scale::Tiny);
//! let gpu = GpuRunner::titan_xp_for(Dataset::TwS.capacity_scale(&g));
//! let run = gpu.run(&g, GpuAlgo::Bmp { rf: true }, &GpuRunConfig::default());
//! assert_eq!(run.counts.len(), g.num_directed_edges());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod coprocess;
pub mod cost;
pub mod kernels;
pub mod mem;
pub mod multipass;
pub mod pool;
pub mod spec;
pub mod warp;

mod runner;

pub use cost::{kernel_time, KernelStats, KernelTime};
pub use kernels::LaunchConfig;
pub use mem::{ArrayId, UnifiedMemory};
pub use multipass::{estimate_passes, pass_ranges, PassPlan};
pub use pool::DeviceBitmapPool;
pub use runner::{GpuAlgo, GpuReport, GpuRun, GpuRunConfig, GpuRunner};
pub use spec::{titan_xp, GpuSpec};
