//! Bitmap **range filtering** (Section 4.3).
//!
//! Matches in real-world neighbor-set intersections are sparse: most probes
//! of the big `|V|`-bit bitmap miss. RF adds a *small* bitmap in which one
//! bit summarizes a whole range of the big bitmap (the paper's size ratio is
//! 4096, chosen so the small bitmap fits in L1 on the CPU/KNL and in shared
//! memory on the GPU). A probe first peeks at the small bitmap and touches
//! the big one only when the range is known non-empty, trading a cheap
//! cache-resident lookup for an expensive memory access.
//!
//! The per-key filter is a branch, and the branch only predicts when most
//! ranges are empty. So the probe loop picks its path per source, from
//! what [`RfBitmap::set_list`] observed: a filter with more than 1/32 of
//! its range bits set is *dense*, and on the AVX2 and AVX-512 tiers its
//! probes run branch-free, 8 keys per block (one gather of the small words
//! gives the range-hit lanes; a second, masked to those lanes, reads the
//! big words only where the filter passes). A sparse filter, and every
//! filter on the scalar and portable tiers, keeps the per-key oracle loop:
//! a chunked portable version would either keep the branch or read the big
//! bitmap for filtered keys. Both paths report the same
//! architecture-neutral meter events.

use crate::bitmap::Bitmap;
use crate::meter::Meter;
use crate::simd::SimdTier;

/// The paper's default big-to-small size ratio (bits per small-bitmap bit).
pub const DEFAULT_RF_RATIO: usize = 4096;

/// A scale-aware RF ratio: the paper picks 4096 so that the small bitmap of
/// a ~40M-vertex graph fits in L1. At smaller |V| the same ratio collapses
/// the small bitmap to a handful of bits and the filter stops filtering, so
/// this helper targets a small bitmap of ~8K bits (1 KiB — L1-resident on
/// any machine) and clamps to the paper's 4096 at billion-scale.
///
/// For the paper's twitter graph (|V| = 41.6M) this returns exactly 4096.
pub fn scaled_rf_ratio(cardinality: usize) -> usize {
    const TARGET_SMALL_BITS: usize = 8192;
    let raw = cardinality.div_ceil(TARGET_SMALL_BITS).max(2);
    raw.next_power_of_two().clamp(2, DEFAULT_RF_RATIO)
}

/// Why an RF ratio was rejected (see [`RfBitmap::try_with_ratio`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfRatioError {
    /// The ratio is zero or not a power of two, so range boundaries cannot
    /// be computed with a shift.
    NotPowerOfTwo(usize),
    /// The ratio is 1 (or 0): the small bitmap would be as big as the big
    /// one and filter nothing.
    TooSmall(usize),
    /// The ratio is above [`MAX_RF_RATIO`]: shifting a `u32` id right by
    /// 32 or more bits to find its range is undefined.
    TooLarge(usize),
}

impl std::fmt::Display for RfRatioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RfRatioError::NotPowerOfTwo(r) => {
                write!(f, "RF ratio must be a power of two, got {r}")
            }
            RfRatioError::TooSmall(r) => write!(f, "RF ratio must be at least 2, got {r}"),
            RfRatioError::TooLarge(r) => {
                write!(f, "RF ratio must be at most {MAX_RF_RATIO} (2^31), got {r}")
            }
        }
    }
}

impl std::error::Error for RfRatioError {}

/// The largest RF ratio: a range of 2^31 ids is found with a 31-bit shift,
/// the widest a `u32` id allows.
pub const MAX_RF_RATIO: usize = 1 << 31;

/// Check an RF big-to-small ratio: a power of two, at least 2 and at most
/// [`MAX_RF_RATIO`].
pub fn validate_rf_ratio(ratio: usize) -> Result<(), RfRatioError> {
    if !ratio.is_power_of_two() {
        return Err(RfRatioError::NotPowerOfTwo(ratio));
    }
    if ratio < 2 {
        return Err(RfRatioError::TooSmall(ratio));
    }
    if ratio > MAX_RF_RATIO {
        return Err(RfRatioError::TooLarge(ratio));
    }
    Ok(())
}

/// A filter is dense, and its probes take the gather path, when more than
/// one in `DENSE_SHARE` of its range bits is set.
const DENSE_SHARE: usize = 32;

/// A range-filtered bitmap: the big per-vertex bitmap plus the small
/// summarizing filter.
#[derive(Debug, Clone)]
pub struct RfBitmap {
    big: Bitmap,
    small: Bitmap,
    shift: u32,
    /// Whether a `set_list` since the last `clear_list` set more than one
    /// in [`DENSE_SHARE`] of the small bitmap's bits.
    dense: bool,
}

impl RfBitmap {
    /// A zeroed RF bitmap for ids `< cardinality` with the paper-default
    /// ratio of 4096.
    pub fn new(cardinality: usize) -> Self {
        Self::with_ratio(cardinality, DEFAULT_RF_RATIO)
    }

    /// A zeroed RF bitmap with an explicit range size `ratio` (power of two).
    ///
    /// # Panics
    /// On an invalid ratio; use [`RfBitmap::try_with_ratio`] to validate
    /// untrusted configuration instead.
    pub fn with_ratio(cardinality: usize, ratio: usize) -> Self {
        Self::try_with_ratio(cardinality, ratio).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A zeroed RF bitmap with an explicit range size `ratio`, rejecting
    /// zero / one / non-power-of-two ratios and ratios above
    /// [`MAX_RF_RATIO`] with a descriptive error.
    pub fn try_with_ratio(cardinality: usize, ratio: usize) -> Result<Self, RfRatioError> {
        validate_rf_ratio(ratio)?;
        let shift = ratio.trailing_zeros();
        Ok(Self {
            big: Bitmap::new(cardinality),
            small: Bitmap::new(cardinality.div_ceil(ratio).max(1)),
            shift,
            dense: false,
        })
    }

    /// Cardinality of the underlying big bitmap.
    pub fn cardinality(&self) -> usize {
        self.big.cardinality()
    }

    /// The configured range size (big bits per small bit).
    pub fn ratio(&self) -> usize {
        1usize << self.shift
    }

    /// Memory footprint of (big, small) in bytes — Table 3's two columns.
    pub fn bytes(&self) -> (usize, usize) {
        (self.big.bytes(), self.small.bytes())
    }

    /// Set the bits for every id in `list` in both bitmaps.
    ///
    /// Each small bit is set once per run of ids sharing a range, and the
    /// runs are counted: on a sorted list that is the number of distinct
    /// ranges, and above 1/32 of the small bitmap's bits it marks the
    /// filter dense, so [`rf_count`] takes the gather path.
    pub fn set_list<M: Meter>(&mut self, list: &[u32], meter: &mut M) {
        self.big.set_list(list, meter);
        let mut ranges = 0usize;
        let mut prev = None;
        for &v in list {
            let r = v >> self.shift;
            ranges += usize::from(prev != Some(r));
            prev = Some(r);
            self.small.set(r);
        }
        self.dense |= ranges.saturating_mul(DENSE_SHARE) > self.small.cardinality();
        meter.rand_accesses_small(list.len() as u64);
        meter.write_bytes(8 * list.len() as u64);
    }

    /// Clear the bits for every id in `list` in both bitmaps, and mark the
    /// filter sparse again.
    ///
    /// Small-bitmap bits are *cleared*, not flipped: several ids of `list`
    /// may share a small bit, and clearing is idempotent.
    pub fn clear_list<M: Meter>(&mut self, list: &[u32], meter: &mut M) {
        self.big.clear_list(list, meter);
        for &v in list {
            self.small.clear(v >> self.shift);
        }
        self.dense = false;
        meter.rand_accesses_small(list.len() as u64);
        meter.write_bytes(8 * list.len() as u64);
    }

    /// Probe for `v`: small bitmap first, big bitmap only on a range hit.
    #[inline]
    pub fn test<M: Meter>(&self, v: u32, meter: &mut M) -> bool {
        meter.rand_accesses_small(1);
        if !self.small.test(v >> self.shift) {
            return false;
        }
        meter.rand_accesses(1);
        self.big.test(v)
    }

    /// True if both bitmaps are all-zero and the filter is marked sparse.
    pub fn is_empty(&self) -> bool {
        self.big.is_empty() && self.small.is_empty() && !self.dense
    }

    /// Direct read-only access to the big bitmap (used by tests and the GPU
    /// simulator's shared-memory variant).
    pub fn big(&self) -> &Bitmap {
        &self.big
    }

    /// Direct read-only access to the small filter bitmap.
    pub fn small(&self) -> &Bitmap {
        &self.small
    }
}

/// Range-filtered bitmap–array intersection count, executed at the
/// process-wide resolved [`SimdTier`].
///
/// Same contract as [`crate::bmp_count`] but probes through the filter, so
/// sparse-match workloads touch the big bitmap far less often.
#[inline]
pub fn rf_count<M: Meter>(rf: &RfBitmap, arr: &[u32], meter: &mut M) -> u32 {
    // Only a dense filter's path depends on the tier, so a sparse one
    // skips resolving it.
    let tier = if rf.dense {
        SimdTier::resolve()
    } else {
        SimdTier::Scalar
    };
    rf_count_tier(rf, arr, tier, meter)
}

/// [`rf_count`] at an explicit [`SimdTier`]. A dense filter (see
/// [`RfBitmap::set_list`]) probes with gathers on the AVX2 and AVX-512
/// tiers; a sparse one, and every filter on the scalar and portable tiers,
/// runs the per-key oracle loop. A tier the host cannot execute degrades to
/// the oracle loop.
///
/// Every tier and path reports the same architecture-neutral meter events:
/// one `rand_accesses_small` per key, one `rand_accesses` per range hit, 4
/// `seq_bytes` and one `scalar_ops` per key, and one `intersection_done`.
/// Only the tier-attribution events (`simd_blocks`, `simd_tail_elems`)
/// vary. A key past the bitmaps panics, or not, exactly as in the oracle
/// loop, which reads the big bitmap only after a range hit.
#[inline]
pub fn rf_count_tier<M: Meter>(rf: &RfBitmap, arr: &[u32], tier: SimdTier, meter: &mut M) -> u32 {
    crate::debug_check_sorted(arr);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    #[cfg(target_arch = "x86_64")]
    if rf.dense && tier.use_avx2() {
        // SAFETY: `use_avx2` re-checks host support.
        return unsafe { rf_count_gather(rf, arr, meter) };
    }
    let c = rf_probe_oracle(rf, arr, meter);
    meter.seq_bytes(4 * arr.len() as u64);
    meter.scalar_ops(arr.len() as u64);
    meter.intersection_done();
    c
}

/// The bit-pinned oracle: one filtered probe per key, in order.
#[inline]
fn rf_probe_oracle<M: Meter>(rf: &RfBitmap, arr: &[u32], meter: &mut M) -> u32 {
    let mut c = 0u32;
    for &w in arr {
        c += u32::from(rf.test(w, meter));
    }
    c
}

/// The dense-filter path: gathered blocks up to the first key the oracle
/// might panic on, the oracle loop over the rest. Kept out of line, so the
/// sparse path stays the inlined per-key loop.
///
/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
unsafe fn rf_count_gather<M: Meter>(rf: &RfBitmap, arr: &[u32], meter: &mut M) -> u32 {
    // Keys at or past the cardinality go to the oracle loop; a bitmap
    // wider than the u32 ids leaves only `u32::MAX` to it.
    let limit = u32::try_from(rf.big.cardinality()).unwrap_or(u32::MAX);
    // SAFETY: the caller guarantees AVX2; the kernel bounds its gathers.
    let (hits, range_hits, blocks, done) = unsafe {
        crate::simd::rf_count_avx2(rf.small.words(), rf.big.words(), rf.shift, limit, arr)
    };
    let rest = &arr[done..];
    let c = hits + rf_probe_oracle(rf, rest, meter);
    meter.rand_accesses_small(done as u64);
    meter.rand_accesses(range_hits);
    meter.seq_bytes(4 * arr.len() as u64);
    meter.scalar_ops(arr.len() as u64);
    meter.simd_blocks(blocks);
    meter.simd_tail_elems(rest.len() as u64);
    meter.intersection_done();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{CountingMeter, NullMeter};
    use crate::reference_count;

    #[test]
    fn ratio_and_sizes() {
        let rf = RfBitmap::with_ratio(1 << 22, 4096);
        assert_eq!(rf.ratio(), 4096);
        let (big, small) = rf.bytes();
        assert_eq!(big, (1 << 22) / 8);
        assert_eq!(small, (1 << 22) / 4096 / 8);
        // Size ratio between the two bitmaps is exactly the configured ratio.
        assert_eq!(big / small, 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_ratio_rejected() {
        let _ = RfBitmap::with_ratio(1000, 100);
    }

    #[test]
    fn try_with_ratio_reports_clear_errors() {
        assert_eq!(
            RfBitmap::try_with_ratio(1000, 0).unwrap_err(),
            RfRatioError::NotPowerOfTwo(0)
        );
        assert_eq!(
            RfBitmap::try_with_ratio(1000, 1).unwrap_err(),
            RfRatioError::TooSmall(1)
        );
        assert_eq!(
            RfBitmap::try_with_ratio(1000, 100).unwrap_err(),
            RfRatioError::NotPowerOfTwo(100)
        );
        assert_eq!(
            RfRatioError::NotPowerOfTwo(100).to_string(),
            "RF ratio must be a power of two, got 100"
        );
        assert!(RfBitmap::try_with_ratio(1000, 64).is_ok());
        assert!(validate_rf_ratio(4096).is_ok());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn ratios_past_a_u32_shift_are_rejected() {
        // A range shift of 32 or more overflows a `u32` id: such ratios
        // must fail validation, not the kernel.
        for ratio in [1usize << 32, 1 << 33, 1 << 63] {
            assert_eq!(
                RfBitmap::try_with_ratio(1000, ratio).unwrap_err(),
                RfRatioError::TooLarge(ratio)
            );
        }
        assert_eq!(
            RfRatioError::TooLarge(1 << 32).to_string(),
            "RF ratio must be at most 2147483648 (2^31), got 4294967296"
        );
        // The widest valid range: every id of a small graph shares bit 0.
        let mut m = NullMeter;
        let mut rf = RfBitmap::try_with_ratio(1000, MAX_RF_RATIO).expect("2^31 is valid");
        assert_eq!(rf.ratio(), MAX_RF_RATIO);
        rf.set_list(&[5, 700], &mut m);
        assert_eq!(rf_count(&rf, &[0, 5, 6, 700, 999], &mut m), 2);
    }

    #[test]
    fn scaled_ratio_regimes() {
        // Paper scale: twitter's 41.6M vertices → the paper's ratio.
        assert_eq!(scaled_rf_ratio(41_652_230), 4096);
        // Laptop scale: a useful filter remains (small bitmap ~8K bits).
        assert_eq!(scaled_rf_ratio(40_000), 8);
        assert_eq!(scaled_rf_ratio(100), 2);
        // Billion scale clamps at the paper value.
        assert_eq!(scaled_rf_ratio(2_000_000_000), 4096);
    }

    #[test]
    fn probe_agrees_with_plain_bitmap() {
        let mut m = NullMeter;
        let ids = [3u32, 4096, 4097, 100_000, 250_001];
        let mut rf = RfBitmap::with_ratio(300_000, 4096);
        rf.set_list(&ids, &mut m);
        for v in [
            0u32, 3, 4, 4095, 4096, 4097, 99_999, 100_000, 250_001, 299_999,
        ] {
            assert_eq!(rf.test(v, &mut m), ids.contains(&v), "v={v}");
        }
    }

    #[test]
    fn rf_count_matches_reference() {
        let mut m = NullMeter;
        let a: Vec<u32> = (0..500).map(|x| x * 977).collect(); // sparse over 500k
        let b: Vec<u32> = (0..500).map(|x| x * 991).collect();
        let mut rf = RfBitmap::new(500_000);
        rf.set_list(&a, &mut m);
        assert_eq!(rf_count(&rf, &b, &mut m), reference_count(&a, &b));
    }

    #[test]
    fn filter_reduces_big_bitmap_accesses_on_sparse_matches() {
        let mut m0 = NullMeter;
        // N(u) clustered in one small range; probes scattered everywhere.
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..1000).map(|x| x * 4096).collect();
        let mut rf = RfBitmap::with_ratio(1 << 22, 4096);
        rf.set_list(&a, &mut m0);
        let mut m = CountingMeter::new();
        rf_count(&rf, &b, &mut m);
        // Only probes landing in the single non-empty range touch the big
        // bitmap: that's the probe at id 0 only.
        assert_eq!(m.counts.rand_accesses, 1);
        assert_eq!(m.counts.rand_accesses_small, 1000);
    }

    #[test]
    fn clear_list_resets_shared_small_bits() {
        let mut m = NullMeter;
        let mut rf = RfBitmap::with_ratio(10_000, 64);
        // 5 and 6 share a small bit (range 64).
        rf.set_list(&[5, 6], &mut m);
        rf.clear_list(&[5, 6], &mut m);
        assert!(rf.is_empty(), "shared small bit must clear idempotently");
    }

    #[test]
    fn density_counts_the_distinct_ranges_set() {
        let mut m = NullMeter;
        // 64 ranges of 16 ids: dense above 2 of them (1/32).
        let mut rf = RfBitmap::with_ratio(1024, 16);
        rf.set_list(&[0, 1, 2, 15, 16, 17, 31], &mut m);
        assert!(!rf.dense, "2 ranges of 64 is not above 1/32");
        rf.clear_list(&[0, 1, 2, 15, 16, 17, 31], &mut m);
        rf.set_list(&[0, 16, 1000], &mut m);
        assert!(rf.dense, "3 ranges of 64 is above 1/32");
    }

    #[test]
    fn clear_list_leaves_the_filter_sparse() {
        // A pooled kernel must come back reset (`PairKernel::is_reset`):
        // bitmaps zero and the next source's path chosen afresh.
        let mut m = NullMeter;
        let ids: Vec<u32> = (0..1000).step_by(5).collect();
        let mut rf = RfBitmap::with_ratio(1000, 8);
        rf.set_list(&ids, &mut m);
        assert!(rf.dense && !rf.is_empty());
        rf.clear_list(&ids, &mut m);
        assert!(!rf.dense);
        assert!(rf.is_empty());
    }

    #[test]
    fn set_clear_cycles_reusable() {
        let mut m = NullMeter;
        let mut rf = RfBitmap::new(50_000);
        for round in 0..5u32 {
            let ids: Vec<u32> = (0..64).map(|x| x * 631 + round).collect();
            rf.set_list(&ids, &mut m);
            assert_eq!(rf_count(&rf, &ids, &mut m), 64);
            rf.clear_list(&ids, &mut m);
            assert!(rf.is_empty());
        }
    }
}
