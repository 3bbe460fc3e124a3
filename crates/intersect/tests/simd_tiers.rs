//! Bit-identity property tests for the vectorized kernels: every
//! [`SimdTier`] must return exactly what the scalar oracle loop returns, on
//! inputs crafted to stress the places vector code goes wrong — 64-bit word
//! boundaries, values with the sign bit set (where a signed vector compare
//! silently flips), galloping starts landing in every phase, and short
//! end-of-array windows.
//!
//! These run through the explicit `_tier` entry points rather than
//! `SimdTier::force`, which mutates process-global state and would race
//! across the parallel test harness. The environment-variable path is
//! exercised end to end by the CI matrix (`CNC_SIMD=scalar|portable|avx2`).

use std::collections::BTreeSet;

use cnc_intersect::{
    bmp_count_tier, gallop_lower_bound_tier, linear_lower_bound_tier, lower_bound, rf_count_tier,
    Bitmap, CountingMeter, NullMeter, RfBitmap, SimdTier, WorkCounts,
};
use proptest::prelude::*;

/// The tiers to sweep. Unsupported hardware tiers are skipped inside the
/// kernels themselves (`use_avx2`/`use_avx512` re-check at runtime), so the
/// sweep is safe on any host.
const TIERS: [SimdTier; 4] = SimdTier::ALL;

/// Strategy: a strictly increasing u32 vector with values below `max`.
fn sorted_set(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..max, 0..len).prop_map(|s| s.into_iter().collect())
}

/// Strategy: strictly increasing values clustered *around 64-bit word
/// boundaries* — each element is `64 * word + bit` with `bit` drawn from the
/// corners `{0, 1, 62, 63}`. Gather-based probes index `words[v >> 6]` and
/// shift by `v & 63`; an off-by-one in either shows up here first.
fn word_boundary_set(words: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set((0..words, 0usize..4), 0..len).prop_map(|s| {
        let corners = [0u32, 1, 62, 63];
        let set: BTreeSet<u32> = s.into_iter().map(|(w, b)| w * 64 + corners[b]).collect();
        set.into_iter().collect()
    })
}

/// Strategy: strictly increasing values in the top half of the u32 range
/// (sign bit set when reinterpreted as i32). The AVX2 path compares unsigned
/// keys with a signed instruction via the sign-bias trick; these inputs
/// catch a missing bias immediately.
fn high_bit_set(len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set((1u32 << 31)..u32::MAX, 0..len)
        .prop_map(|s| s.into_iter().collect())
}

/// The architecture-neutral part of a meter's counts: everything but the
/// tier-attribution events, which are zeroed.
fn neutral(counts: &WorkCounts) -> WorkCounts {
    WorkCounts {
        simd_blocks: 0,
        simd_tail_elems: 0,
        ..*counts
    }
}

/// `rf_count_tier` at every tier against the scalar oracle: the count and
/// every architecture-neutral meter event must match. Returns the wide
/// tier-attribution `(simd_blocks, simd_tail_elems)` seen at the AVX2
/// tier.
fn assert_rf_tiers_match(rf: &RfBitmap, probe: &[u32], what: &str) -> (u64, u64) {
    let mut oracle = CountingMeter::new();
    let want = rf_count_tier(rf, probe, SimdTier::Scalar, &mut oracle);
    assert_eq!(oracle.counts.simd_blocks, 0, "{what}");
    let mut avx2 = (0, 0);
    for tier in TIERS {
        let mut got = CountingMeter::new();
        assert_eq!(
            rf_count_tier(rf, probe, tier, &mut got),
            want,
            "{what} tier={}",
            tier.label()
        );
        assert_eq!(
            neutral(&got.counts),
            neutral(&oracle.counts),
            "{what} tier={}",
            tier.label()
        );
        if tier == SimdTier::Avx2 {
            avx2 = (got.counts.simd_blocks, got.counts.simd_tail_elems);
        }
    }
    avx2
}

/// RF probes, deterministic sweep: ratios 2 … 4096, a dense and a sparse
/// filter each, probe keys on range and word boundaries, and every
/// final-block length from 0 to 16 past 0, 1 and 2 full 8-key blocks. The
/// dense filter holds id 0, so a disabled lane of a partial final block
/// (loaded as key 0) that is not masked out counts a false hit.
#[test]
fn rf_tiers_match_oracle_on_range_and_word_boundaries() {
    let card = 1usize << 16;
    for ratio_log2 in 1..=12u32 {
        let ratio = 1u32 << ratio_log2;
        let small_bits = card >> ratio_log2;
        // Dense: one id in each of about half the ranges, at corners.
        let dense: Vec<u32> = (0..small_bits as u32)
            .filter(|r| r % 2 == 0)
            .map(|r| r * ratio + (r / 2) % ratio.min(64))
            .chain([card as u32 - 1])
            .collect::<BTreeSet<u32>>()
            .into_iter()
            .collect();
        // Sparse: at most five ranges, under 1/32 of them at every ratio up
        // to 2^9; from 2^10 on the small bitmap has so few bits that these
        // ranges make it dense, which the assertions below allow.
        let sparse: Vec<u32> = [0u32, 1, 63, 64, 5 * ratio, 5 * ratio + 1, 9 * ratio]
            .into_iter()
            .filter(|&v| (v as usize) < card)
            .collect::<BTreeSet<u32>>()
            .into_iter()
            .collect();
        // Probe keys: each range's first and last id, and the ids around
        // the 64-bit word edges of the first words.
        let mut keys: BTreeSet<u32> = (0..small_bits as u32)
            .flat_map(|r| [r * ratio, r * ratio + ratio - 1])
            .collect();
        keys.extend([62u32, 63, 64, 65, 127, 128, 129]);
        let keys: Vec<u32> = keys.into_iter().collect();
        for (label, set) in [("dense", &dense), ("sparse", &sparse)] {
            let mut rf = RfBitmap::with_ratio(card, ratio as usize);
            rf.set_list(set, &mut NullMeter);
            // The density rule: more than 1/32 of the ranges set.
            let ranges = set.iter().map(|v| v >> ratio_log2).collect::<BTreeSet<_>>();
            let gathered = ranges.len() * 32 > small_bits && SimdTier::Avx2.supported();
            let (blocks, tail) = assert_rf_tiers_match(&rf, &keys, label);
            let want_blocks = if gathered { keys.len().div_ceil(8) } else { 0 };
            assert_eq!(
                (blocks, tail),
                (want_blocks as u64, 0),
                "{label} ratio={ratio}"
            );
            for start in [0usize, 8, 16] {
                for len in 0..=16usize {
                    let Some(probe) = keys.get(start..start + len) else {
                        continue;
                    };
                    let what = format!("{label} ratio={ratio} start={start} len={len}");
                    let (blocks, _) = assert_rf_tiers_match(&rf, probe, &what);
                    let want = if gathered { len.div_ceil(8) } else { 0 };
                    assert_eq!(blocks, want as u64, "{what}");
                }
            }
            // The probe set equal to the indexed set hits every key.
            let mut m = NullMeter;
            for tier in TIERS {
                assert_eq!(rf_count_tier(&rf, set, tier, &mut m) as usize, set.len());
            }
            rf.clear_list(set, &mut NullMeter);
            assert!(rf.is_empty());
        }
    }
}

/// Keys past the bitmaps: the oracle reads the big bitmap only after a
/// range hit, so a key past the cardinality panics (in debug builds) or
/// past the big bitmap's words panics (always) only when its range bit is
/// set. Every tier must panic, or not, exactly when the oracle does, and
/// otherwise return the oracle's count.
#[test]
fn rf_tiers_panic_exactly_like_the_oracle_past_the_bitmaps() {
    // 1000 ids: the big bitmap's words reach 1024, the small bitmap (range
    // 8) has 125 bits in two words (128 bits).
    let card = 1000usize;
    let dense: Vec<u32> = (0..card as u32).step_by(3).collect();
    let low: Vec<u32> = (0..40).map(|k| k * 7).collect();
    let tails: [&[u32]; 6] = [
        &[],
        &[999],
        &[1000],
        &[1003, 1023],
        &[1024, 1030],
        &[2000, u32::MAX],
    ];
    for set in [dense, vec![990, 995]] {
        let mut rf = RfBitmap::with_ratio(card, 8);
        rf.set_list(&set, &mut NullMeter);
        for take in [0usize, 5, 8, 13, 16, 40] {
            for tail in tails {
                let probe: Vec<u32> = low[..take].iter().chain(tail).copied().collect();
                let run = |tier: SimdTier| {
                    std::panic::catch_unwind(|| rf_count_tier(&rf, &probe, tier, &mut NullMeter))
                        .ok()
                };
                let want = run(SimdTier::Scalar);
                for tier in TIERS {
                    assert_eq!(
                        run(tier),
                        want,
                        "tier={} set={} probe={probe:?}",
                        tier.label(),
                        set.len()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// RF probes: dense and sparse filters at every ratio 2 … 4096 over
    /// word-boundary sets; all tiers agree with the oracle on the count and
    /// on every architecture-neutral meter event.
    #[test]
    fn rf_tiers_bit_identical_on_word_boundaries(
        set in word_boundary_set(400, 600),
        probe in word_boundary_set(400, 300),
        ratio_log2 in 1u32..13,
    ) {
        let mut rf = RfBitmap::with_ratio(400 * 64, 1usize << ratio_log2);
        rf.set_list(&set, &mut NullMeter);
        assert_rf_tiers_match(&rf, &probe, "proptest");
        rf.clear_list(&set, &mut NullMeter);
        prop_assert!(rf.is_empty());
    }

    /// BMP probes: all tiers agree with the scalar oracle on word-boundary
    /// probe sets, and the architecture-neutral meter events are identical.
    #[test]
    fn bmp_tiers_bit_identical_on_word_boundaries(
        set in word_boundary_set(200, 300),
        probe in word_boundary_set(200, 300),
    ) {
        let mut m = NullMeter;
        let mut bm = Bitmap::new(200 * 64);
        bm.set_list(&set, &mut m);
        let mut scalar = CountingMeter::new();
        let want = bmp_count_tier(&bm, &probe, SimdTier::Scalar, &mut scalar);
        for tier in TIERS {
            let mut got = CountingMeter::new();
            prop_assert_eq!(bmp_count_tier(&bm, &probe, tier, &mut got), want, "tier={}", tier.label());
            // Tier-invariant events: the modeled machines must see the same
            // work regardless of which host ISA executed the probes.
            prop_assert_eq!(got.counts.scalar_ops, scalar.counts.scalar_ops);
            prop_assert_eq!(got.counts.seq_bytes, scalar.counts.seq_bytes);
            prop_assert_eq!(got.counts.rand_accesses, scalar.counts.rand_accesses);
            prop_assert_eq!(got.counts.intersections, scalar.counts.intersections);
        }
        bm.clear_list(&set, &mut m);
        prop_assert!(bm.is_empty());
    }

    /// BMP probes over arbitrary (non-boundary-biased) sets, larger domain so
    /// the probe array exercises both full vector blocks and scalar tails.
    #[test]
    fn bmp_tiers_bit_identical_random(
        set in sorted_set(40_000, 400),
        probe in sorted_set(40_000, 400),
    ) {
        let mut m = NullMeter;
        let mut bm = Bitmap::new(40_000);
        bm.set_list(&set, &mut m);
        let want = bmp_count_tier(&bm, &probe, SimdTier::Scalar, &mut m);
        for tier in TIERS {
            prop_assert_eq!(bmp_count_tier(&bm, &probe, tier, &mut m), want, "tier={}", tier.label());
        }
    }

    /// Galloping lower bound: every tier lands on the same index as the
    /// scalar oracle from every start offset, so the linear prefix, the
    /// exponential phase and the final window resolution all agree.
    #[test]
    fn gallop_tiers_bit_identical(
        a in sorted_set(1 << 20, 600),
        start_frac in 0u32..100,
        target in 0u32..(1 << 20),
    ) {
        let start = a.len() * start_frac as usize / 100;
        let mut m = NullMeter;
        let want = gallop_lower_bound_tier(&a, start, target, SimdTier::Scalar, &mut m);
        for tier in TIERS {
            prop_assert_eq!(
                gallop_lower_bound_tier(&a, start, target, tier, &mut m),
                want,
                "tier={} start={} target={}", tier.label(), start, target
            );
        }
        // The index is a true lower bound.
        prop_assert_eq!(want.max(start), lower_bound(&a, target).max(start));
    }

    /// Galloping over values with the sign bit set: unsigned/signed compare
    /// confusion in the vector probe would misdirect the search here.
    #[test]
    fn gallop_tiers_high_bit_values(
        a in high_bit_set(500),
        target in 0u32..u32::MAX,
    ) {
        let mut m = NullMeter;
        let want = gallop_lower_bound_tier(&a, 0, target, SimdTier::Scalar, &mut m);
        for tier in TIERS {
            prop_assert_eq!(
                gallop_lower_bound_tier(&a, 0, target, tier, &mut m),
                want,
                "tier={} target={}", tier.label(), target
            );
        }
    }

    /// The vectorized linear prefix handles short end-of-array windows
    /// (fewer than 16 elements left) identically to the scalar scan, on low
    /// and sign-bit values alike. The last 16 starts of each array leave an
    /// end-of-list window of every length 1..=16: a masked-off lane that
    /// counts as "less than", or a signed compare, changes the answer there.
    #[test]
    fn linear_prefix_tiers_bit_identical(
        low in sorted_set(10_000, 64),
        high in high_bit_set(64),
        start_frac in 0u32..101,
        pick in 0usize..64,
        target in 0u32..10_000,
    ) {
        let mut m = NullMeter;
        for a in [&low, &high] {
            let mut starts = vec![a.len() * start_frac as usize / 100];
            starts.extend(a.len().saturating_sub(16)..a.len());
            let mut targets = vec![target, target | (1 << 31)];
            if let Some(&x) = a.get(pick % a.len().max(1)) {
                targets.extend([x, x.saturating_add(1)]);
            }
            for &start in &starts {
                for &t in &targets {
                    let want = linear_lower_bound_tier(a, start, t, SimdTier::Scalar, &mut m);
                    for tier in TIERS {
                        prop_assert_eq!(
                            linear_lower_bound_tier(a, start, t, tier, &mut m),
                            want,
                            "tier={} start={} target={}", tier.label(), start, t
                        );
                    }
                }
            }
        }
    }

    /// High-bit probe values through the BMP path: bitmap large enough to
    /// cover them is too big for a test, so probe a window offset near the
    /// top of a small domain instead — keys at `2^31 + k` against a bitmap
    /// of matching cardinality would OOB-panic identically at every tier,
    /// which the in-crate unit tests cover; here we pin the guard boundary:
    /// the last representable id of the bitmap, at the end of its last word.
    #[test]
    fn bmp_last_word_boundary(card_words in 1usize..64, probe in sorted_set(4_096, 200)) {
        let card = card_words * 64;
        let probe: Vec<u32> = probe.into_iter().filter(|&v| (v as usize) < card).collect();
        let mut m = NullMeter;
        let mut bm = Bitmap::new(card);
        // Set exactly the last id so every hit is at the final bit of the
        // final word — the far edge of the gather's valid range.
        let last = (card - 1) as u32;
        bm.set_list(&[last], &mut m);
        let want = u32::from(probe.contains(&last));
        for tier in TIERS {
            prop_assert_eq!(bmp_count_tier(&bm, &probe, tier, &mut m), want, "tier={}", tier.label());
        }
    }
}

/// Deterministic gallop sweep: targets placed to stop the search in every
/// phase — inside the 16-element linear prefix, in early and deep
/// exponential steps (final windows from 16 to 2^16 elements, which halve
/// before the vector compare), and past the end of the array.
#[test]
fn gallop_every_phase_deterministic() {
    let a: Vec<u32> = (0..200_000u32).map(|x| x * 3).collect();
    let starts = [0usize, 1, 7, 15, 16, 17, 100, 199_990, 199_999, 200_000];
    // Distances from start chosen to land in: prefix (0..16), the first
    // exponential windows, deep windows (skip ≥ 2^12), and OOB.
    let distances = [0usize, 1, 15, 16, 17, 100, 1_000, 5_000, 70_000, 500_000];
    let mut m = NullMeter;
    for &start in &starts {
        for &d in &distances {
            let idx = (start + d).min(a.len());
            let target = if idx < a.len() { a[idx] } else { u32::MAX };
            let want = gallop_lower_bound_tier(&a, start, target, SimdTier::Scalar, &mut m);
            for tier in TIERS {
                assert_eq!(
                    gallop_lower_bound_tier(&a, start, target, tier, &mut m),
                    want,
                    "tier={} start={start} dist={d}",
                    tier.label()
                );
                // Also probe target-1 and target+1 to land between elements.
                for t in [target.saturating_sub(1), target.saturating_add(1)] {
                    let w = gallop_lower_bound_tier(&a, start, t, SimdTier::Scalar, &mut m);
                    assert_eq!(
                        gallop_lower_bound_tier(&a, start, t, tier, &mut m),
                        w,
                        "tier={} start={start} dist={d} t={t}",
                        tier.label()
                    );
                }
            }
        }
    }
}

/// Deterministic word-boundary sweep for the bitmap probe: ids exactly at
/// 63/64/127/128 and the neighbors of every probed word edge.
#[test]
fn bmp_word_boundaries_deterministic() {
    let ids = [
        0u32, 1, 62, 63, 64, 65, 126, 127, 128, 191, 192, 255, 256, 319,
    ];
    let mut m = NullMeter;
    let mut bm = Bitmap::new(512);
    bm.set_list(&ids, &mut m);
    // Probe every id in 0..512 in one sorted array: 8 full vector blocks.
    let probe: Vec<u32> = (0..512).collect();
    for tier in TIERS {
        assert_eq!(
            bmp_count_tier(&bm, &probe, tier, &mut m),
            ids.len() as u32,
            "tier={}",
            tier.label()
        );
    }
    // Probe arrays of every length 1..=40 starting at each boundary, so
    // every (block, tail) split crosses a word edge somewhere.
    for &edge in &[62u32, 63, 64, 127, 128] {
        for len in 1..=40usize {
            let probe: Vec<u32> = (0..len as u32).map(|k| edge + k).collect();
            let want = bmp_count_tier(&bm, &probe, SimdTier::Scalar, &mut m);
            for tier in TIERS {
                assert_eq!(
                    bmp_count_tier(&bm, &probe, tier, &mut m),
                    want,
                    "tier={} edge={edge} len={len}",
                    tier.label()
                );
            }
        }
    }
}
