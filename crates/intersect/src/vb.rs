//! Vectorized block-wise merge (**VB**, Section 3.1 / Figure 1 of the paper,
//! after Inoue et al., PVLDB 2014).
//!
//! The merge advances a *block* of `L` elements per side at a time. For each
//! pair of blocks it performs an all-pair equality comparison, accumulates
//! the match count, and then advances the block whose last element is
//! smaller. The tail (fewer than `L` elements remaining on either side) falls
//! back to the scalar merge.
//!
//! The metered work of one block comparison is `L` vector ops, the paper's
//! `L` rotations of one register with one compare each. On the host the
//! 8-lane (AVX2) and 16-lane (AVX-512) blocks instead broadcast each element
//! of one block and compare it against the other: the same `L` compares, but
//! independent of one another rather than chained through `L` serial
//! permutes.

use crate::merge::merge_count;
use crate::meter::Meter;
use crate::simd::{SimdLevel, SimdTier};

/// All-pair equality count of `a[i..i+L]` vs `b[j..j+L]`, portable version.
#[inline]
fn block_pairs_eq_scalar(a: &[u32], b: &[u32]) -> u32 {
    let mut c = 0u32;
    for &x in a {
        // Strictly sorted inputs: each x matches at most once.
        c += u32::from(b.contains(&x));
    }
    c
}

/// The block-advance loop at one lane width. Returns the updated offsets
/// and the matches found. Stops when either side has fewer than `LANES`
/// elements left.
#[inline]
fn block_loop<const LANES: usize, M: Meter>(
    a: &[u32],
    b: &[u32],
    mut i: usize,
    mut j: usize,
    meter: &mut M,
) -> (usize, usize, u32) {
    let tier = SimdTier::resolve();
    let mut c = 0u32;
    let mut blocks = 0u64;
    while i + LANES <= a.len() && j + LANES <= b.len() {
        let ab = &a[i..i + LANES];
        let bb = &b[j..j + LANES];
        c += dispatch_block::<LANES>(ab, bb, tier);
        blocks += 1;
        let (alast, blast) = (ab[LANES - 1], bb[LANES - 1]);
        // Advance the exhausted side(s); on equal last elements both move.
        i += LANES * usize::from(alast <= blast);
        j += LANES * usize::from(blast <= alast);
    }
    // Each block comparison is LANES vector ops (one per rotation) plus two
    // block loads.
    meter.vector_ops(blocks * LANES as u64);
    meter.seq_bytes(blocks * 2 * 4 * LANES as u64);
    (i, j, c)
}

/// Block-wise merge with a compile-time lane count, scalar-emulated.
///
/// Performs exactly the block structure of the SIMD kernel — same block
/// advances, same number of all-pair block comparisons — so the metered work
/// is identical to the hardware path. Used both as the portable fallback and
/// as the "what would a 16-lane machine do" oracle for the KNL model.
///
/// Blocks *cascade*: after the full-width loop exhausts, remaining elements
/// are merged with 4-lane blocks (a narrower vector still beats the scalar
/// loop on short tails — important on real graphs where most neighbor lists
/// are shorter than a 512-bit register) and finally a scalar tail.
pub fn vb_count_lanes<const LANES: usize, M: Meter>(a: &[u32], b: &[u32], meter: &mut M) -> u32 {
    crate::debug_check_sorted(a);
    crate::debug_check_sorted(b);
    let (mut i, mut j, mut c) = block_loop::<LANES, M>(a, b, 0, 0, meter);
    if LANES > 4 {
        let (i2, j2, c2) = block_loop::<4, M>(a, b, i, j, meter);
        i = i2;
        j = j2;
        c += c2;
    }
    // Scalar tail.
    c + tail_merge(&a[i..], &b[j..], meter)
}

/// Tail merge that does not emit an extra `intersection_done`.
fn tail_merge<M: Meter>(a: &[u32], b: &[u32], meter: &mut M) -> u32 {
    struct NoDone<'m, M: Meter>(&'m mut M);
    impl<M: Meter> Meter for NoDone<'_, M> {
        #[inline]
        fn scalar_ops(&mut self, n: u64) {
            self.0.scalar_ops(n)
        }
        #[inline]
        fn vector_ops(&mut self, n: u64) {
            self.0.vector_ops(n)
        }
        #[inline]
        fn seq_bytes(&mut self, n: u64) {
            self.0.seq_bytes(n)
        }
        #[inline]
        fn rand_accesses(&mut self, n: u64) {
            self.0.rand_accesses(n)
        }
        #[inline]
        fn rand_accesses_small(&mut self, n: u64) {
            self.0.rand_accesses_small(n)
        }
        #[inline]
        fn write_bytes(&mut self, n: u64) {
            self.0.write_bytes(n)
        }
        #[inline]
        fn intersection_done(&mut self) {}
        #[inline]
        fn simd_blocks(&mut self, n: u64) {
            self.0.simd_blocks(n)
        }
        #[inline]
        fn simd_tail_elems(&mut self, n: u64) {
            self.0.simd_tail_elems(n)
        }
    }
    merge_count(a, b, &mut NoDone(meter))
}

/// Pick the fastest implementation for one block pair that the resolved
/// [`SimdTier`] permits. The lane count is the *work shape* (any level can
/// be emulated anywhere); the tier decides whether real intrinsics run, so a
/// forced `scalar`/`portable` run executes the same blocks without vector
/// instructions.
#[inline]
fn dispatch_block<const LANES: usize>(ab: &[u32], bb: &[u32], tier: SimdTier) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if LANES == 8 && tier.use_avx2() {
            // SAFETY: tier gate re-checks AVX2; slices have length LANES == 8.
            return unsafe { crate::simd::block_pairs_eq_8(ab, bb) };
        }
        if LANES == 16 && tier.use_avx512() {
            // SAFETY: tier gate re-checks AVX-512F; slices have length LANES == 16.
            return unsafe { crate::simd::block_pairs_eq_16(ab, bb) };
        }
    }
    let _ = tier;
    block_pairs_eq_scalar(ab, bb)
}

/// Vectorized block-wise merge at a runtime-selected [`SimdLevel`].
///
/// `SimdLevel::Scalar` degrades to the plain merge (the paper's
/// un-vectorized `MPS` still uses pivot-skip but merges scalar-wise).
#[inline]
pub fn vb_count<M: Meter>(a: &[u32], b: &[u32], level: SimdLevel, meter: &mut M) -> u32 {
    match level {
        SimdLevel::Scalar => {
            // merge_count emits intersection_done; callers of vb_count expect
            // a single completion event, which merge_count already provides.
            merge_count(a, b, meter)
        }
        SimdLevel::Sse4 => {
            let c = vb_count_lanes::<4, M>(a, b, meter);
            meter.intersection_done();
            c
        }
        SimdLevel::Avx2 => {
            let c = vb_count_lanes::<8, M>(a, b, meter);
            meter.intersection_done();
            c
        }
        SimdLevel::Avx512 => {
            let c = vb_count_lanes::<16, M>(a, b, meter);
            meter.intersection_done();
            c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{CountingMeter, NullMeter};
    use crate::reference_count;

    fn sorted_unique(seed: u64, len: usize, range: u64) -> Vec<u32> {
        let mut x = seed | 1;
        let mut v: Vec<u32> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % range) as u32
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn block_pairs_scalar_counts() {
        let a = [1u32, 3, 5, 9];
        let b = [3u32, 4, 5, 10];
        assert_eq!(block_pairs_eq_scalar(&a, &b), 2);
    }

    /// Pin the `LANES`-wide block compare at every tier to the scalar
    /// oracle: identical, disjoint, one shared element at every (lane of
    /// `a`, lane of `b`) position, and random overlaps — each also shifted
    /// into the sign-bit range, where a signed compare would misorder.
    fn block_compare_matches_scalar_at_every_tier<const LANES: usize>() {
        let n = LANES as u32;
        let evens: Vec<u32> = (0..n).map(|x| 2 * x).collect();
        let odds: Vec<u32> = evens.iter().map(|x| x + 1).collect();
        let mut cases = vec![(evens.clone(), evens.clone()), (odds, evens)];
        // `b` steps by 3 through `a[i]` at lane `j`; `a` steps by 32, so no
        // other element of `b` can land on one of `a`.
        let spaced: Vec<u32> = (0..n).map(|x| 1000 + 32 * x).collect();
        for i in 0..LANES {
            for j in 0..LANES {
                let b: Vec<u32> = (0..n).map(|k| spaced[i] + 3 * k - 3 * j as u32).collect();
                assert_eq!(block_pairs_eq_scalar(&spaced, &b), 1, "i={i} j={j}");
                cases.push((spaced.clone(), b));
            }
        }
        for seed in 1..=20u64 {
            let a = sorted_unique(seed, 4 * LANES, 3 * n as u64);
            let b = sorted_unique(seed.wrapping_mul(7919), 4 * LANES, 3 * n as u64);
            cases.push((a[..LANES].to_vec(), b[..LANES].to_vec()));
        }
        for shift in [0u32, 1 << 31, u32::MAX - 2000] {
            for (a, b) in &cases {
                let a: Vec<u32> = a.iter().map(|&x| x + shift).collect();
                let b: Vec<u32> = b.iter().map(|&x| x + shift).collect();
                let want = block_pairs_eq_scalar(&a, &b);
                for tier in SimdTier::ALL {
                    assert_eq!(
                        dispatch_block::<LANES>(&a, &b, tier),
                        want,
                        "lanes={LANES} tier={tier:?} a={a:?} b={b:?}"
                    );
                    assert_eq!(dispatch_block::<LANES>(&b, &a, tier), want);
                }
            }
        }
    }

    #[test]
    fn block_compare_matches_scalar_at_every_lane_width_and_tier() {
        block_compare_matches_scalar_at_every_tier::<4>();
        block_compare_matches_scalar_at_every_tier::<8>();
        block_compare_matches_scalar_at_every_tier::<16>();
    }

    #[test]
    fn all_levels_match_reference() {
        for seed in 1..=10u64 {
            let a = sorted_unique(seed, 100, 400);
            let b = sorted_unique(seed.wrapping_mul(7919), 140, 400);
            let want = reference_count(&a, &b);
            let mut m = NullMeter;
            for level in [
                SimdLevel::Scalar,
                SimdLevel::Sse4,
                SimdLevel::Avx2,
                SimdLevel::Avx512,
            ] {
                assert_eq!(vb_count(&a, &b, level, &mut m), want, "level={level:?}");
            }
        }
    }

    #[test]
    fn short_inputs_hit_tail_path() {
        let mut m = NullMeter;
        let a = [1u32, 2, 3];
        let b = [2u32, 3, 4];
        for level in [SimdLevel::Sse4, SimdLevel::Avx2, SimdLevel::Avx512] {
            assert_eq!(vb_count(&a, &b, level, &mut m), 2);
        }
        assert_eq!(vb_count(&[], &b, SimdLevel::Avx2, &mut m), 0);
    }

    #[test]
    fn wider_lanes_use_fewer_vector_calls_per_element() {
        let a: Vec<u32> = (0..4096).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..4096).map(|x| x * 2 + 1).collect();
        let mut m8 = CountingMeter::new();
        vb_count_lanes::<8, _>(&a, &b, &mut m8);
        let mut m16 = CountingMeter::new();
        vb_count_lanes::<16, _>(&a, &b, &mut m16);
        // 16-lane blocks: half as many block steps but each costs 16
        // rotations vs 8 → total vector ops comparable, block count halves.
        // The win shows in seq_bytes per op and fewer iterations; check the
        // block count via seq_bytes: 2*4*L bytes per block.
        let blocks8 = m8.counts.seq_bytes / (2 * 4 * 8);
        let blocks16 = m16.counts.seq_bytes / (2 * 4 * 16);
        assert!(blocks16 * 2 <= blocks8 + 1);
    }

    #[test]
    fn exact_block_boundary() {
        // Lengths exactly divisible by lane width exercise the "no tail" path.
        let a: Vec<u32> = (0..32).map(|x| x * 3).collect();
        let b: Vec<u32> = (0..32).map(|x| x * 2).collect();
        let want = reference_count(&a, &b);
        let mut m = NullMeter;
        assert_eq!(vb_count_lanes::<8, _>(&a, &b, &mut m), want);
        assert_eq!(vb_count_lanes::<16, _>(&a, &b, &mut m), want);
        assert_eq!(vb_count_lanes::<4, _>(&a, &b, &mut m), want);
    }

    #[test]
    fn identical_arrays_all_match() {
        let a: Vec<u32> = (0..100).map(|x| x * 7).collect();
        let mut m = NullMeter;
        for level in [SimdLevel::Sse4, SimdLevel::Avx2, SimdLevel::Avx512] {
            assert_eq!(vb_count(&a, &a, level, &mut m), 100);
        }
    }
}
