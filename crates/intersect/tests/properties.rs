//! Property-based tests: every intersection kernel must agree with a
//! `BTreeSet` intersection oracle on arbitrary strictly-sorted inputs.

use std::collections::BTreeSet;

use cnc_intersect::{
    bmp_count, merge_count, mps_count, ps_count, rf_count, rf_count_tier, vb_count, Bitmap,
    CountingMeter, NullMeter, RfBitmap, SimdLevel, SimdTier,
};
use proptest::prelude::*;

/// Oracle: set intersection size via BTreeSet.
fn oracle(a: &[u32], b: &[u32]) -> u32 {
    let sa: BTreeSet<u32> = a.iter().copied().collect();
    let sb: BTreeSet<u32> = b.iter().copied().collect();
    sa.intersection(&sb).count() as u32
}

/// Strategy: a strictly increasing u32 vector with values below `max`.
fn sorted_set(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..max, 0..len).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_matches_oracle(a in sorted_set(2_000, 300), b in sorted_set(2_000, 300)) {
        let mut m = NullMeter;
        prop_assert_eq!(merge_count(&a, &b, &mut m), oracle(&a, &b));
    }

    #[test]
    fn ps_matches_oracle(a in sorted_set(50_000, 400), b in sorted_set(50_000, 40)) {
        let mut m = NullMeter;
        prop_assert_eq!(ps_count(&a, &b, &mut m), oracle(&a, &b));
        prop_assert_eq!(ps_count(&b, &a, &mut m), oracle(&a, &b));
    }

    #[test]
    fn vb_matches_oracle_all_levels(a in sorted_set(3_000, 300), b in sorted_set(3_000, 300)) {
        let want = oracle(&a, &b);
        let mut m = NullMeter;
        for level in [SimdLevel::Scalar, SimdLevel::Sse4, SimdLevel::Avx2, SimdLevel::Avx512] {
            prop_assert_eq!(vb_count(&a, &b, level, &mut m), want);
        }
    }

    #[test]
    fn mps_matches_oracle(
        a in sorted_set(10_000, 500),
        b in sorted_set(10_000, 500),
        t in 0u32..100,
    ) {
        let mut m = NullMeter;
        prop_assert_eq!(mps_count(&a, &b, t, SimdLevel::Avx2, &mut m), oracle(&a, &b));
    }

    #[test]
    fn bmp_matches_oracle(a in sorted_set(5_000, 300), b in sorted_set(5_000, 300)) {
        let mut m = NullMeter;
        let mut bm = Bitmap::new(5_000);
        bm.set_list(&a, &mut m);
        prop_assert_eq!(bmp_count(&bm, &b, &mut m), oracle(&a, &b));
        // Clearing restores the all-zero invariant for reuse.
        bm.clear_list(&a, &mut m);
        prop_assert!(bm.is_empty());
    }

    #[test]
    fn rf_matches_oracle_any_ratio(
        a in sorted_set(100_000, 200),
        b in sorted_set(100_000, 200),
        ratio_log2 in 1u32..14,
    ) {
        let mut m = NullMeter;
        let mut rf = RfBitmap::with_ratio(100_000, 1usize << ratio_log2);
        rf.set_list(&a, &mut m);
        let want = oracle(&a, &b);
        prop_assert_eq!(rf_count(&rf, &b, &mut m), want);
        for tier in SimdTier::ALL {
            prop_assert_eq!(rf_count_tier(&rf, &b, tier, &mut m), want, "tier={}", tier.label());
        }
        rf.clear_list(&a, &mut m);
        prop_assert!(rf.is_empty());
    }

    #[test]
    fn all_kernels_agree_with_each_other(
        a in sorted_set(20_000, 400),
        b in sorted_set(20_000, 400),
    ) {
        let mut m = NullMeter;
        let r_merge = merge_count(&a, &b, &mut m);
        let r_ps = ps_count(&a, &b, &mut m);
        let r_vb = vb_count(&a, &b, SimdLevel::Avx2, &mut m);
        let mut bm = Bitmap::new(20_000);
        bm.set_list(&a, &mut m);
        let r_bmp = bmp_count(&bm, &b, &mut m);
        prop_assert_eq!(r_merge, r_ps);
        prop_assert_eq!(r_merge, r_vb);
        prop_assert_eq!(r_merge, r_bmp);
    }

    #[test]
    fn meter_totals_are_monotone_in_input(a in sorted_set(4_000, 300), b in sorted_set(4_000, 300)) {
        // Sanity on instrumentation: work on (a,b) is at least the work on
        // the prefix halves — catches accidental double-resets of meters.
        let mut full = CountingMeter::new();
        merge_count(&a, &b, &mut full);
        let mut half = CountingMeter::new();
        merge_count(&a[..a.len() / 2], &b[..b.len() / 2], &mut half);
        prop_assert!(full.counts.seq_bytes >= half.counts.seq_bytes);
    }

    #[test]
    fn intersection_is_commutative_and_bounded(
        a in sorted_set(8_000, 300),
        b in sorted_set(8_000, 300),
    ) {
        let mut m = NullMeter;
        let ab = mps_count(&a, &b, 50, SimdLevel::Avx2, &mut m);
        let ba = mps_count(&b, &a, 50, SimdLevel::Avx2, &mut m);
        prop_assert_eq!(ab, ba);
        prop_assert!(ab as usize <= a.len().min(b.len()));
    }
}
