//! Dynamic bitmap index (**BMP**, Algorithm 2).
//!
//! A bitmap of cardinality `|V|` (one bit per vertex id) is constructed for
//! `N(u)`, reused for every intersection `N(u) ∩ N(v)` with `v ∈ N(u)`, and
//! then cleared by resetting exactly the bits that were set — an amortized
//! constant cost per intersection. Lookup and insert are single word
//! operations, which is why the paper picks a bitmap over hash/skip/tree
//! indexes.
//!
//! The probe loop is the BMP hot path and is vectorized per the resolved
//! [`SimdTier`]: 8 keys per step with AVX2 (two 4-wide `vpgatherdq` of the
//! `words[v >> 6]` words, `vpsrlvq` by `v & 63`, mask bit 0, 64-bit lane
//! accumulate), 16 keys per step with AVX-512F, and an 8-wide chunked-scalar
//! fallback on the portable tier. The plain per-key loop is kept as the
//! bit-pinned oracle (`SimdTier::Scalar`). Construction (`set_list` /
//! `clear_list`) is not gather-friendly — it is a scatter, and pre-AVX-512
//! x86 has no scatter instruction — so it instead folds consecutive ids
//! sharing a 64-bit word into a single read-modify-write, which is where
//! sorted neighbor lists actually spend their construction time.

use crate::meter::Meter;
use crate::simd::SimdTier;

/// A fixed-cardinality bitmap over vertex ids `[0, cardinality)`.
#[derive(Debug, Clone)]
pub struct Bitmap {
    words: Vec<u64>,
    cardinality: usize,
}

impl Bitmap {
    /// An all-zero bitmap able to hold ids `< cardinality`.
    pub fn new(cardinality: usize) -> Self {
        Self {
            words: vec![0u64; cardinality.div_ceil(64)],
            cardinality,
        }
    }

    /// Number of ids this bitmap can hold.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// Memory footprint in bytes (the paper's `|V|/8`, rounded to words).
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Set the bit for `v`.
    #[inline]
    pub fn set(&mut self, v: u32) {
        debug_assert!((v as usize) < self.cardinality);
        self.words[v as usize >> 6] |= 1u64 << (v & 63);
    }

    /// Test the bit for `v`.
    #[inline]
    pub fn test(&self, v: u32) -> bool {
        debug_assert!((v as usize) < self.cardinality);
        (self.words[v as usize >> 6] >> (v & 63)) & 1 != 0
    }

    /// Clear the bit for `v`.
    #[inline]
    pub fn clear(&mut self, v: u32) {
        debug_assert!((v as usize) < self.cardinality);
        self.words[v as usize >> 6] &= !(1u64 << (v & 63));
    }

    /// Set the bits of every id in `list` (bitmap construction, Algorithm 2
    /// lines 3–4). Reports one random access + 8 written bytes per element.
    ///
    /// Consecutive ids that land in the same 64-bit word are folded into one
    /// read-modify-write; bit-identical to calling [`Bitmap::set`] per id.
    pub fn set_list<M: Meter>(&mut self, list: &[u32], meter: &mut M) {
        self.fold_words::<true>(list);
        meter.rand_accesses(list.len() as u64);
        meter.write_bytes(8 * list.len() as u64);
        meter.seq_bytes(4 * list.len() as u64);
    }

    /// Clear the bits of every id in `list` (Algorithm 2 lines 8–9).
    ///
    /// Uses explicit clears rather than flips so the operation is idempotent;
    /// the result is all-zero again provided only `list`'s bits were set.
    /// Word-folded like [`Bitmap::set_list`].
    pub fn clear_list<M: Meter>(&mut self, list: &[u32], meter: &mut M) {
        self.fold_words::<false>(list);
        meter.rand_accesses(list.len() as u64);
        meter.write_bytes(8 * list.len() as u64);
        meter.seq_bytes(4 * list.len() as u64);
    }

    /// Apply `list`'s bits with one read-modify-write per *run* of ids
    /// sharing a 64-bit word. After degree reordering, sorted neighbor lists
    /// are dense in the low ids, so runs of 8–64 ids per word are common and
    /// the fold removes most of the per-id memory traffic.
    fn fold_words<const SET: bool>(&mut self, list: &[u32]) {
        let mut i = 0;
        while i < list.len() {
            let v = list[i];
            debug_assert!((v as usize) < self.cardinality);
            let w = (v >> 6) as usize;
            let mut bits = 1u64 << (v & 63);
            i += 1;
            while i < list.len() && (list[i] >> 6) as usize == w {
                debug_assert!((list[i] as usize) < self.cardinality);
                bits |= 1u64 << (list[i] & 63);
                i += 1;
            }
            if SET {
                self.words[w] |= bits;
            } else {
                self.words[w] &= !bits;
            }
        }
    }

    /// The backing words, bit `v` at bit `v & 63` of word `v >> 6`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// True if no bit is set (used to validate pool recycling).
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Bitmap–array intersection count (Algorithm 2, `IntersectBMP`): loop over
/// the sorted array and count hits in the bitmap. `O(|arr|)` probes,
/// executed at the process-wide resolved [`SimdTier`].
#[inline]
pub fn bmp_count<M: Meter>(bitmap: &Bitmap, arr: &[u32], meter: &mut M) -> u32 {
    bmp_count_tier(bitmap, arr, SimdTier::resolve(), meter)
}

/// [`bmp_count`] at an explicit [`SimdTier`] — lets benchmarks and
/// differential tests sweep tiers inside one process. A tier the host cannot
/// execute silently degrades to the portable path (never to an illegal
/// instruction).
///
/// The architecture-neutral meter events (`seq_bytes`, `rand_accesses`,
/// `scalar_ops`, `intersection_done`) are identical at every tier, so the
/// modeled KNL/GPU platforms stay reproducible; only the tier-attribution
/// events (`simd_blocks`, `simd_tail_elems`) vary.
pub fn bmp_count_tier<M: Meter>(
    bitmap: &Bitmap,
    arr: &[u32],
    tier: SimdTier,
    meter: &mut M,
) -> u32 {
    crate::debug_check_sorted(arr);
    debug_assert!(
        arr.iter().all(|&v| (v as usize) < bitmap.cardinality),
        "probe ids must be < bitmap cardinality"
    );
    let (c, blocks, tail) = bmp_hits(bitmap, arr, tier);
    meter.seq_bytes(4 * arr.len() as u64);
    meter.rand_accesses(arr.len() as u64);
    meter.scalar_ops(arr.len() as u64);
    meter.simd_blocks(blocks);
    meter.simd_tail_elems(tail);
    meter.intersection_done();
    c
}

/// Tier dispatch for the probe loop. Returns `(hits, wide_blocks, tail)`.
fn bmp_hits(bitmap: &Bitmap, arr: &[u32], tier: SimdTier) -> (u32, u64, u64) {
    #[cfg(target_arch = "x86_64")]
    {
        if tier.use_avx512() {
            // SAFETY: `use_avx512` re-checks host support; the intrinsics
            // guard their own gather bounds.
            return unsafe { crate::simd::bmp_count_avx512(&bitmap.words, arr) };
        }
        if tier.use_avx2() {
            // SAFETY: as above for AVX2.
            return unsafe { crate::simd::bmp_count_avx2(&bitmap.words, arr) };
        }
    }
    match tier {
        SimdTier::Scalar => (bmp_hits_scalar(bitmap, arr), 0, 0),
        _ => bmp_hits_portable(bitmap, arr),
    }
}

/// The bit-pinned oracle: one probe per key, in order.
fn bmp_hits_scalar(bitmap: &Bitmap, arr: &[u32]) -> u32 {
    let mut c = 0u32;
    for &w in arr {
        c += u32::from(bitmap.test(w));
    }
    c
}

/// Portable wide path: 8 keys per block with independent accumulator
/// chains (manual ILP), same block/tail shape as the vector paths.
fn bmp_hits_portable(bitmap: &Bitmap, arr: &[u32]) -> (u32, u64, u64) {
    let words = &bitmap.words;
    let mut acc = [0u32; 8];
    let mut chunks = arr.chunks_exact(8);
    let mut blocks = 0u64;
    for ch in chunks.by_ref() {
        for l in 0..8 {
            acc[l] += ((words[(ch[l] >> 6) as usize] >> (ch[l] & 63)) & 1) as u32;
        }
        blocks += 1;
    }
    let tail = chunks.remainder();
    let mut c: u32 = acc.iter().sum();
    for &k in tail {
        c += ((words[(k >> 6) as usize] >> (k & 63)) & 1) as u32;
    }
    (c, blocks, tail.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{CountingMeter, NullMeter};
    use crate::reference_count;

    #[test]
    fn set_test_clear_roundtrip() {
        let mut bm = Bitmap::new(200);
        assert!(!bm.test(63));
        bm.set(63);
        bm.set(64);
        bm.set(0);
        bm.set(199);
        assert!(bm.test(63) && bm.test(64) && bm.test(0) && bm.test(199));
        assert_eq!(bm.count_ones(), 4);
        bm.clear(63);
        assert!(!bm.test(63));
        assert!(bm.test(64));
    }

    #[test]
    fn bytes_matches_paper_formula() {
        // |V|/8 bytes, rounded up to 8-byte words.
        let bm = Bitmap::new(1 << 20);
        assert_eq!(bm.bytes(), (1 << 20) / 8);
        let bm2 = Bitmap::new(100);
        assert_eq!(bm2.bytes(), 16);
    }

    #[test]
    fn set_list_then_clear_list_is_identity() {
        let mut m = NullMeter;
        let mut bm = Bitmap::new(1000);
        let list = [5u32, 77, 128, 512, 999];
        bm.set_list(&list, &mut m);
        assert_eq!(bm.count_ones(), 5);
        bm.clear_list(&list, &mut m);
        assert!(bm.is_empty());
    }

    #[test]
    fn clear_list_idempotent_unlike_flip() {
        let mut m = NullMeter;
        let mut bm = Bitmap::new(100);
        bm.set_list(&[1, 2, 3], &mut m);
        bm.clear_list(&[1, 2, 3], &mut m);
        bm.clear_list(&[1, 2, 3], &mut m); // double clear must not resurrect bits
        assert!(bm.is_empty());
    }

    #[test]
    fn word_fold_matches_per_key_oracle() {
        // set_list/clear_list fold runs of ids sharing a word; the per-key
        // set/clear loops are the oracle they must match bit for bit.
        let lists: [&[u32]; 5] = [
            &[0, 1, 2, 3, 62, 63, 64, 65, 127, 128, 129, 700],
            &[63],
            &[64, 191, 192],
            &[0, 64, 128, 192, 256], // one id per word: no folding possible
            &(0..640).collect::<Vec<u32>>(), // dense: maximal folding
        ];
        for list in lists {
            let mut m = NullMeter;
            let mut folded = Bitmap::new(1024);
            folded.set_list(list, &mut m);
            let mut oracle = Bitmap::new(1024);
            for &v in list {
                oracle.set(v);
            }
            assert_eq!(folded.words, oracle.words, "set_list {list:?}");
            folded.clear_list(list, &mut m);
            assert!(folded.is_empty(), "clear_list {list:?}");
        }
    }

    #[test]
    fn bmp_count_matches_reference() {
        let mut m = NullMeter;
        let a: Vec<u32> = (0..150).map(|x| x * 3).collect(); // the indexed set N(u)
        let b: Vec<u32> = (0..150).map(|x| x * 2).collect(); // the probing set N(v)
        let mut bm = Bitmap::new(500);
        bm.set_list(&a, &mut m);
        assert_eq!(bmp_count(&bm, &b, &mut m), reference_count(&a, &b));
    }

    #[test]
    fn all_tiers_agree_with_scalar_oracle() {
        let mut m = NullMeter;
        // Bits straddling word boundaries plus a long dense run.
        let a: Vec<u32> = (0..400)
            .map(|x| x * 7 % 2000)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut bm = Bitmap::new(2048);
        bm.set_list(&a, &mut m);
        // Probe lengths exercising the tail (0..=17 extra keys past a block).
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 150] {
            let probe: Vec<u32> = (0..len as u32)
                .map(|x| x * 13 % 2048)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let want = bmp_count_tier(&bm, &probe, SimdTier::Scalar, &mut m);
            for tier in SimdTier::ALL {
                let got = bmp_count_tier(&bm, &probe, tier, &mut m);
                assert_eq!(got, want, "tier={tier:?} len={len}");
            }
        }
    }

    #[test]
    fn tier_counters_attribute_blocks_and_tail() {
        let mut m0 = NullMeter;
        let a: Vec<u32> = (0..100).collect();
        let mut bm = Bitmap::new(128);
        bm.set_list(&a, &mut m0);
        let probe: Vec<u32> = (0..27).collect(); // 3 blocks of 8 + tail of 3
        let mut scalar = CountingMeter::new();
        bmp_count_tier(&bm, &probe, SimdTier::Scalar, &mut scalar);
        assert_eq!(scalar.counts.simd_blocks, 0);
        assert_eq!(scalar.counts.simd_tail_elems, 0);
        let mut wide = CountingMeter::new();
        bmp_count_tier(&bm, &probe, SimdTier::Portable, &mut wide);
        assert_eq!(wide.counts.simd_blocks, 3);
        assert_eq!(wide.counts.simd_tail_elems, 3);
        // Architecture-neutral events are identical across tiers.
        assert_eq!(scalar.counts.scalar_ops, wide.counts.scalar_ops);
        assert_eq!(scalar.counts.rand_accesses, wide.counts.rand_accesses);
        assert_eq!(scalar.counts.seq_bytes, wide.counts.seq_bytes);
    }

    #[test]
    fn bmp_probe_cost_is_linear_in_probe_array() {
        let mut m0 = NullMeter;
        let a: Vec<u32> = (0..10_000).collect();
        let mut bm = Bitmap::new(10_000);
        bm.set_list(&a, &mut m0);
        let probe = [1u32, 5_000, 9_999];
        let mut m = CountingMeter::new();
        assert_eq!(bmp_count(&bm, &probe, &mut m), 3);
        assert_eq!(m.counts.rand_accesses, 3);
        assert_eq!(m.counts.scalar_ops, 3);
    }

    #[test]
    fn empty_probe_array() {
        let mut m = NullMeter;
        let bm = Bitmap::new(64);
        assert_eq!(bmp_count(&bm, &[], &mut m), 0);
        for tier in SimdTier::ALL {
            let mut m = NullMeter;
            assert_eq!(bmp_count_tier(&bm, &[], tier, &mut m), 0);
        }
    }
}
