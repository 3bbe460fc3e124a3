//! Set-intersection kernels for all-edge common neighbor counting.
//!
//! This crate implements the two algorithm families studied in
//! *Accelerating All-Edge Common Neighbor Counting on Three Processors*
//! (Che et al., ICPP 2019):
//!
//! * **Merge-based** kernels over sorted arrays:
//!   * [`merge_count`] — the plain two-pointer merge, the paper's baseline **M**
//!     (Algorithm 1, `IntersectM`);
//!   * [`ps_count`] — the pivot-skip merge **PS** for degree-skewed pairs
//!     (Algorithm 1, `IntersectPS`), built on a galloping lower-bound search
//!     with a vectorized linear-search prefix;
//!   * [`vb_count`] — the vectorized block-wise merge **VB** (Inoue et al.)
//!     with an emulated lane width of 4/8/16 and real AVX2/AVX-512 paths;
//!   * [`mps_count`] — the hybrid **MPS** that picks PS above a degree-skew
//!     ratio threshold `t` and VB otherwise.
//! * **Index-based** kernels:
//!   * [`Bitmap`] — a `|V|`-bit bitmap with set/test/clear-by-list operations,
//!     the dynamic index of algorithm **BMP** (Algorithm 2);
//!   * [`RfBitmap`] — the *range-filtered* bitmap: a small cache-resident
//!     bitmap whose bits summarize ranges of the big bitmap, skipping probes
//!     of all-zero ranges (the paper's **RF** technique).
//!
//! Every kernel comes in a metered flavor: it is generic over a [`Meter`]
//! through which it reports the work it performed (comparisons, vector ops,
//! sequential bytes, random accesses). [`NullMeter`] compiles to nothing, so
//! production callers pay zero overhead; [`CountingMeter`] records exact
//! operation counts which the machine models (`cnc-machine`) turn into
//! modeled elapsed times for the simulated KNL and GPU processors.
//!
//! Wide-vector hot loops (BMP word probes, BMP-RF probes through a dense
//! range filter, the galloping search's linear prefix and final window, VB
//! block compares) dispatch on a process-wide [`SimdTier`] resolved once
//! from the `CNC_SIMD` environment variable / `--simd` CLI flag / host
//! detection. Forcing `scalar` runs the bit-pinned
//! oracle loops; `portable` runs the same 8-wide block shape without vector
//! instructions; `avx2`/`avx512` use real intrinsics. Per-edge counts and
//! the architecture-neutral meter events are identical at every tier.
//!
//! # Preconditions
//!
//! All array inputs are neighbor lists: **strictly increasing** `u32` slices.
//! The kernels `debug_assert!` this; behavior on unsorted input is
//! unspecified (but memory-safe).
//!
//! # Example
//!
//! ```
//! use cnc_intersect::{merge_count, ps_count, mps_count, NullMeter, SimdLevel};
//!
//! let a = [1u32, 3, 5, 7, 9];
//! let b = [2u32, 3, 4, 7, 8];
//! let mut m = NullMeter;
//! assert_eq!(merge_count(&a, &b, &mut m), 2);
//! assert_eq!(ps_count(&a, &b, &mut m), 2);
//! assert_eq!(mps_count(&a, &b, 50, SimdLevel::detect(), &mut m), 2);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

mod bitmap;
mod collect;
mod cost;
mod kernel;
mod merge;
mod meter;
mod mps;
mod pivot_skip;
mod range_filter;
mod search;
mod simd;
mod vb;

pub use bitmap::{bmp_count, bmp_count_tier, Bitmap};
pub use collect::{merge_collect, mps_collect, ps_collect};
pub use cost::CostModel;
pub use kernel::{BmpKernel, MergeKernel, MpsKernel, PairKernel, RfKernel};
pub use merge::merge_count;
pub use meter::{CountingMeter, Meter, NullMeter, WorkCounts};
pub use mps::{mps_count, mps_count_cfg, MpsConfig};
pub use pivot_skip::ps_count;
pub use range_filter::{
    rf_count, rf_count_tier, scaled_rf_ratio, validate_rf_ratio, RfBitmap, RfRatioError,
    DEFAULT_RF_RATIO, MAX_RF_RATIO,
};
pub use search::{
    gallop_lower_bound, gallop_lower_bound_no_prefix, gallop_lower_bound_tier, linear_lower_bound,
    linear_lower_bound_tier, lower_bound,
};
pub use simd::{SimdLevel, SimdTier, SimdTierError};
pub use vb::{vb_count, vb_count_lanes};

/// Reference intersection count via a fresh two-pointer walk.
///
/// This is an intentionally independent implementation used by tests and the
/// verification module of `cnc-core`; it shares no code with the optimized
/// kernels above.
pub fn reference_count(a: &[u32], b: &[u32]) -> u32 {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0u32);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(debug_assertions)]
pub(crate) fn debug_check_sorted(a: &[u32]) {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]),
        "intersection input must be strictly increasing"
    );
}

#[cfg(not(debug_assertions))]
#[inline(always)]
pub(crate) fn debug_check_sorted(_a: &[u32]) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_count_basic() {
        assert_eq!(reference_count(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(reference_count(&[], &[1]), 0);
        assert_eq!(reference_count(&[5], &[5]), 1);
        assert_eq!(reference_count(&[1, 9], &[2, 8]), 0);
    }
}
