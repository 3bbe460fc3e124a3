//! Runtime-dispatched SIMD support.
//!
//! The paper vectorizes the block-wise merge with AVX2 on the CPU and
//! AVX-512 on the KNL. `std::simd` is nightly-only, so this crate uses the
//! stable `core::arch::x86_64` intrinsics behind runtime feature detection,
//! with portable scalar *lane emulation* as a fallback. The emulated kernels
//! perform the same block-structured work (and report identical meter
//! events), which is what the KNL machine model keys on; the real intrinsics
//! give the wall-clock speedups measured on the host CPU.
//!
//! Two orthogonal notions live here:
//!
//! * [`SimdLevel`] — the *lane width* of a block-structured kernel (how the
//!   work is shaped). Any level can be emulated on any host; the machine
//!   models request specific levels regardless of host ISA.
//! * [`SimdTier`] — the *instruction tier* actually used to execute wide
//!   operations on this host. Resolved once per process from `CNC_SIMD` /
//!   `--simd` / feature detection; every intrinsics call site is gated on
//!   the resolved tier so a forced `scalar` or `portable` run never executes
//!   a vector instruction.

use std::sync::atomic::{AtomicU8, Ordering};

/// Vector lane configuration for 32-bit integer kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// No vectorization: scalar merge blocks of 4 (paper's plain `MPS`).
    Scalar,
    /// 128-bit vectors, 4 × u32 lanes (SSE-class; always emulatable).
    Sse4,
    /// 256-bit vectors, 8 × u32 lanes (the paper's CPU: AVX2).
    Avx2,
    /// 512-bit vectors, 16 × u32 lanes (the paper's KNL: AVX-512).
    Avx512,
}

impl SimdLevel {
    /// Number of 32-bit lanes at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse4 => 4,
            SimdLevel::Avx2 => 8,
            SimdLevel::Avx512 => 16,
        }
    }

    /// Lane width matching the process-wide [`SimdTier`].
    ///
    /// Emulated execution works at any level on any host; `detect` is about
    /// the default work shape for the real CPU backend. It follows the
    /// resolved tier so `CNC_SIMD=scalar` also degrades the block-structured
    /// kernels, keeping forced runs honest end to end.
    pub fn detect() -> Self {
        match SimdTier::resolve() {
            SimdTier::Scalar => SimdLevel::Scalar,
            // The portable tier keeps the paper's CPU block shape (8 lanes)
            // and emulates it with scalar instructions.
            SimdTier::Portable => SimdLevel::Avx2,
            SimdTier::Avx2 => SimdLevel::Avx2,
            SimdTier::Avx512 => SimdLevel::Avx512,
        }
    }

    /// Human-readable name matching the paper's labels (`MPS-AVX2`, …).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse4 => "sse4",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// The instruction tier the wide kernels dispatch to, resolved once per
/// process.
///
/// Ordering is by capability: every tier can execute the work of the tiers
/// below it. `Scalar` runs the bit-pinned oracle loops; `Portable` runs the
/// same 8-wide block shape with chunked scalar code (manual ILP, no ISA
/// requirement); `Avx2`/`Avx512` use real intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdTier {
    /// Plain scalar loops — the oracle paths every vector path is tested
    /// against bit for bit.
    Scalar,
    /// ISA-free chunked-scalar fallback with the same 8-wide block shape as
    /// the vector paths (what non-x86 targets run).
    Portable,
    /// Real AVX2 intrinsics: 8 × u32 probes, 4 × u64 gathers.
    Avx2,
    /// Real AVX-512F intrinsics: 16 × u32 probes, 8 × u64 gathers.
    Avx512,
}

/// Error returned when a [`SimdTier`] cannot be forced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimdTierError {
    /// The name did not parse; holds the offending string.
    Unknown(String),
    /// The tier parsed but the host CPU lacks the instructions.
    Unsupported(SimdTier),
}

impl std::fmt::Display for SimdTierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimdTierError::Unknown(s) => write!(
                f,
                "unknown SIMD tier {s:?} (expected scalar|portable|avx2|avx512)"
            ),
            SimdTierError::Unsupported(t) => {
                write!(f, "SIMD tier '{}' is not supported by this CPU", t.label())
            }
        }
    }
}

impl std::error::Error for SimdTierError {}

/// 0 = unresolved; otherwise `SimdTier::encode`.
static RESOLVED_TIER: AtomicU8 = AtomicU8::new(0);

impl SimdTier {
    /// All tiers, narrowest first (useful for sweeps in tests and benches).
    pub const ALL: [SimdTier; 4] = [
        SimdTier::Scalar,
        SimdTier::Portable,
        SimdTier::Avx2,
        SimdTier::Avx512,
    ];

    /// Name used by `CNC_SIMD` / `--simd` and reported in metrics.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Portable => "portable",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Parse a tier name as accepted by `CNC_SIMD` / `--simd`.
    pub fn from_name(name: &str) -> Option<SimdTier> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdTier::Scalar),
            "portable" => Some(SimdTier::Portable),
            "avx2" => Some(SimdTier::Avx2),
            "avx512" => Some(SimdTier::Avx512),
            _ => None,
        }
    }

    /// Whether this host can execute the tier.
    pub fn supported(self) -> bool {
        match self {
            SimdTier::Scalar | SimdTier::Portable => true,
            SimdTier::Avx2 => avx2_available(),
            // The AVX-512 paths also lean on AVX2 helpers (e.g. the
            // 16-element window compare), so require both.
            SimdTier::Avx512 => avx512_available() && avx2_available(),
        }
    }

    /// Best tier the host supports (`Portable` when no x86 vector ISA is
    /// present, so every target gets the same code shape).
    pub fn detect_host() -> SimdTier {
        if SimdTier::Avx512.supported() {
            SimdTier::Avx512
        } else if SimdTier::Avx2.supported() {
            SimdTier::Avx2
        } else {
            SimdTier::Portable
        }
    }

    /// The process-wide tier: `CNC_SIMD` if set and valid, else host
    /// detection. Resolved once; later calls return the cached value.
    ///
    /// An unknown or unsupported `CNC_SIMD` value warns on stderr and falls
    /// back to detection (the env var is advisory); the `--simd` CLI flag
    /// goes through [`SimdTier::force`], which fails loudly instead.
    pub fn resolve() -> SimdTier {
        if let Some(t) = SimdTier::decode(RESOLVED_TIER.load(Ordering::Relaxed)) {
            return t;
        }
        let t = SimdTier::from_env_or_detect();
        match RESOLVED_TIER.compare_exchange(0, t.encode(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => t,
            // Another thread resolved first; agree with it.
            Err(prev) => SimdTier::decode(prev).unwrap_or(t),
        }
    }

    /// Force the process-wide tier (the `--simd` flag, and tier sweeps in
    /// benchmarks). Fails if the host cannot execute the tier.
    pub fn force(tier: SimdTier) -> Result<(), SimdTierError> {
        if !tier.supported() {
            return Err(SimdTierError::Unsupported(tier));
        }
        RESOLVED_TIER.store(tier.encode(), Ordering::Relaxed);
        Ok(())
    }

    /// [`SimdTier::force`] by name (CLI plumbing).
    pub fn force_named(name: &str) -> Result<SimdTier, SimdTierError> {
        let tier =
            SimdTier::from_name(name).ok_or_else(|| SimdTierError::Unknown(name.to_string()))?;
        SimdTier::force(tier)?;
        Ok(tier)
    }

    /// Whether call sites may execute AVX2 intrinsics under this tier.
    ///
    /// Availability is re-checked so a hand-constructed tier value (tests,
    /// `_tier` APIs) can never reach an illegal instruction.
    #[inline]
    pub(crate) fn use_avx2(self) -> bool {
        self >= SimdTier::Avx2 && avx2_available()
    }

    /// Whether call sites may execute AVX-512F intrinsics under this tier.
    #[inline]
    pub(crate) fn use_avx512(self) -> bool {
        self == SimdTier::Avx512 && avx512_available() && avx2_available()
    }

    fn encode(self) -> u8 {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Portable => 2,
            SimdTier::Avx2 => 3,
            SimdTier::Avx512 => 4,
        }
    }

    fn decode(v: u8) -> Option<SimdTier> {
        match v {
            1 => Some(SimdTier::Scalar),
            2 => Some(SimdTier::Portable),
            3 => Some(SimdTier::Avx2),
            4 => Some(SimdTier::Avx512),
            _ => None,
        }
    }

    fn from_env_or_detect() -> SimdTier {
        match std::env::var("CNC_SIMD") {
            Ok(raw) => match SimdTier::from_name(&raw) {
                Some(t) if t.supported() => t,
                Some(t) => {
                    eprintln!(
                        "warning: CNC_SIMD={} is not supported by this CPU; using {}",
                        t.label(),
                        SimdTier::detect_host().label()
                    );
                    SimdTier::detect_host()
                }
                None => {
                    eprintln!(
                        "warning: unrecognized CNC_SIMD value {raw:?} \
                         (expected scalar|portable|avx2|avx512); using {}",
                        SimdTier::detect_host().label()
                    );
                    SimdTier::detect_host()
                }
            },
            Err(_) => SimdTier::detect_host(),
        }
    }
}

/// Whether real AVX2 intrinsics can be used on this host.
#[inline]
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CACHED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *CACHED.get_or_init(|| is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether real AVX-512F intrinsics can be used on this host.
#[inline]
pub(crate) fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CACHED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *CACHED.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// `-1` in the first 16 entries, `0` in the last 16: for `n <= 16`, the
    /// eight entries starting at `16 - n` enable the first `min(n, 8)`
    /// lanes, and the eight after them the first `n - 8` (none if `n <= 8`).
    static LEADING_LANES: [i32; 32] = {
        let mut t = [0i32; 32];
        let mut i = 0;
        while i < 16 {
            t[i] = -1;
            i += 1;
        }
        t
    };

    /// Count the elements of a sorted window of at most 16 that are
    /// `< target` (so the result is also the lower-bound offset) with two
    /// masked 8-lane loads. Lanes past the window are neither read nor
    /// counted, so end-of-list windows need no padded copy.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `window.len() <= 16`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_less_than_avx2(window: &[u32], target: u32) -> usize {
        debug_assert!(window.len() <= 16);
        // SAFETY: `16 - len` is in 0..=16, so both 8-entry mask reads stay
        // inside the 32-entry table. A masked load touches only its enabled
        // lanes, which are the first `len` elements of `window`; the high
        // half's address is formed with `wrapping_add` because it may lie
        // past the slice when every one of its lanes is disabled.
        unsafe {
            let masks = LEADING_LANES.as_ptr().add(16 - window.len());
            let m_lo = _mm256_loadu_si256(masks.cast());
            let m_hi = _mm256_loadu_si256(masks.add(8).cast());
            let ptr = window.as_ptr().cast::<i32>();
            let lo = _mm256_maskload_epi32(ptr, m_lo);
            let hi = _mm256_maskload_epi32(ptr.wrapping_add(8), m_hi);
            // Unsigned `x < t` via the signed-compare bias trick: flip the
            // sign bit of both operands, then signed gt.
            let bias = _mm256_set1_epi32(i32::MIN);
            let tb = _mm256_xor_si256(_mm256_set1_epi32(target as i32), bias);
            let lt_lo = _mm256_cmpgt_epi32(tb, _mm256_xor_si256(lo, bias));
            let lt_hi = _mm256_cmpgt_epi32(tb, _mm256_xor_si256(hi, bias));
            // A disabled lane loads as 0, which is below every nonzero
            // target: keep only the enabled lanes' results.
            let lt_lo = _mm256_and_si256(lt_lo, m_lo);
            let lt_hi = _mm256_and_si256(lt_hi, m_hi);
            let m_lo = _mm256_movemask_ps(_mm256_castsi256_ps(lt_lo)) as u32;
            let m_hi = _mm256_movemask_ps(_mm256_castsi256_ps(lt_hi)) as u32;
            (m_lo.count_ones() + m_hi.count_ones()) as usize
        }
    }

    /// All-pairs equality count of two 8-element blocks: broadcast each
    /// element of `a` and compare it against all of `b`. The compares are
    /// independent of one another; their OR marks every lane of `b` that
    /// matched. Each lane of `b` matches at most one element of `a`
    /// (strictly sorted inputs), so the marked lanes count the matches.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and both slices have length 8.
    #[target_feature(enable = "avx2")]
    pub unsafe fn block_pairs_eq_8(a: &[u32], b: &[u32]) -> u32 {
        debug_assert_eq!(a.len(), 8);
        debug_assert_eq!(b.len(), 8);
        // SAFETY: 8 readable u32s on both sides.
        unsafe {
            let vb = _mm256_loadu_si256(b.as_ptr().cast());
            let pa = a.as_ptr();
            let mut hit = _mm256_setzero_si256();
            for k in 0..8 {
                let eq = _mm256_cmpeq_epi32(_mm256_set1_epi32(*pa.add(k) as i32), vb);
                hit = _mm256_or_si256(hit, eq);
            }
            (_mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32).count_ones()
        }
    }

    /// [`block_pairs_eq_8`] for two 16-element blocks with AVX-512.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is available and both slices have length 16.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn block_pairs_eq_16(a: &[u32], b: &[u32]) -> u32 {
        debug_assert_eq!(a.len(), 16);
        debug_assert_eq!(b.len(), 16);
        // SAFETY: 16 readable u32s on both sides.
        unsafe {
            let vb = _mm512_loadu_si512(b.as_ptr().cast());
            let pa = a.as_ptr();
            let mut hit: __mmask16 = 0;
            for k in 0..16 {
                hit |= _mm512_cmpeq_epi32_mask(_mm512_set1_epi32(*pa.add(k) as i32), vb);
            }
            hit.count_ones()
        }
    }

    /// Bitmap probe loop, AVX2: for each 8-key chunk of `arr`, gather the
    /// `words[key >> 6]` 64-bit words (two 4-wide `vpgatherdq`), shift by
    /// `key & 63` (`vpsrlvq`), mask bit 0 and accumulate in 64-bit lanes.
    ///
    /// Returns `(hits, wide_blocks, tail_elems)`. A chunk containing a key
    /// whose word index would fall outside `words` is probed with the scalar
    /// loop instead, which panics via slice indexing exactly like the scalar
    /// oracle (inputs are only debug-checked for sortedness, so the vector
    /// path must stay memory-safe on arbitrary release-mode input).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bmp_count_avx2(words: &[u64], arr: &[u32]) -> (u32, u64, u64) {
        // Exclusive key bound with an in-range word index; `None` when the
        // bitmap covers every u32 key, so no key can be out of range.
        let limit = u32::try_from(words.len().saturating_mul(64)).ok();
        let no_oob = limit.is_none();
        let mut chunks = arr.chunks_exact(8);
        let mut hits = 0u32;
        let mut blocks = 0u64;
        // SAFETY: loads read 8 in-bounds u32s per chunk; gathers are guarded
        // by the `limit` compare so every word index is < words.len().
        unsafe {
            let base = words.as_ptr().cast::<i64>();
            let bias = _mm256_set1_epi32(i32::MIN);
            let limit_b =
                _mm256_xor_si256(_mm256_set1_epi32(limit.unwrap_or_default() as i32), bias);
            let sh_mask = _mm256_set1_epi32(63);
            let one = _mm256_set1_epi64x(1);
            let mut acc = _mm256_setzero_si256();
            for chunk in chunks.by_ref() {
                let kv = _mm256_loadu_si256(chunk.as_ptr().cast());
                if !no_oob {
                    // Unsigned `key >= limit` via the bias trick: any lane
                    // out of range sends the whole chunk to the scalar loop.
                    let kb = _mm256_xor_si256(kv, bias);
                    let ge = _mm256_cmpgt_epi32(kb, limit_b);
                    let eq = _mm256_cmpeq_epi32(kb, limit_b);
                    let oob = _mm256_or_si256(ge, eq);
                    if _mm256_movemask_ps(_mm256_castsi256_ps(oob)) != 0 {
                        for &k in chunk {
                            hits += ((words[(k >> 6) as usize] >> (k & 63)) & 1) as u32;
                        }
                        blocks += 1;
                        continue;
                    }
                }
                let idx = _mm256_srli_epi32::<6>(kv);
                let idx_lo = _mm256_castsi256_si128(idx);
                let idx_hi = _mm256_extracti128_si256::<1>(idx);
                let w_lo = _mm256_i32gather_epi64::<8>(base, idx_lo);
                let w_hi = _mm256_i32gather_epi64::<8>(base, idx_hi);
                let sh = _mm256_and_si256(kv, sh_mask);
                let sh_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(sh));
                let sh_hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(sh));
                let b_lo = _mm256_and_si256(_mm256_srlv_epi64(w_lo, sh_lo), one);
                let b_hi = _mm256_and_si256(_mm256_srlv_epi64(w_hi, sh_hi), one);
                acc = _mm256_add_epi64(acc, _mm256_add_epi64(b_lo, b_hi));
                blocks += 1;
            }
            // Horizontal sum of the four 64-bit lanes.
            let lo = _mm256_castsi256_si128(acc);
            let hi = _mm256_extracti128_si256::<1>(acc);
            let s = _mm_add_epi64(lo, hi);
            let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
            // At most one hit per key, like the scalar loop's u32 count.
            hits += u32::try_from(_mm_cvtsi128_si64(s)).expect("probe hits fit the u32 count");
        }
        let tail = chunks.remainder();
        for &k in tail {
            hits += ((words[(k >> 6) as usize] >> (k & 63)) & 1) as u32;
        }
        (hits, blocks, tail.len() as u64)
    }

    /// Range-filtered bitmap probe loop, AVX2: 8 keys per block, with
    /// 32-bit gathers over the `u64` bitmap words read as `u32`s (bit `i`
    /// is bit `i & 31` of `u32` number `i >> 5` on little-endian x86). One
    /// gather of the small words moves each key's range bit to its lane's
    /// sign bit, which is the range-hit mask; a second gather, masked to
    /// those lanes, reads the big words only where the scalar filter reads
    /// them. Every block loads under a [`LEADING_LANES`] mask, so the final
    /// partial block needs no scalar tail: its disabled lanes gather
    /// nothing and count nothing.
    ///
    /// `shift` is the range size's log2 and `limit` the exclusive bound of
    /// the keys the scalar probe accepts without a panic (the big bitmap's
    /// cardinality). The loop stops at the first block holding a key at or
    /// past `limit`, and does not start if `limit`'s words lie outside
    /// either slice. Returns `(hits, range_hits, blocks, done)`: the vector
    /// blocks probed `arr[..done]`, and the caller probes the rest with
    /// the scalar loop, which panics, or not, exactly as the oracle does.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rf_count_avx2(
        small: &[u64],
        big: &[u64],
        shift: u32,
        limit: u32,
        arr: &[u32],
    ) -> (u32, u64, u64, usize) {
        // The range index as the scalar probe's `u32 >> shift` computes it.
        let shift = shift & 31;
        let Some(last) = limit.checked_sub(1) else {
            return (0, 0, 0, 0);
        };
        if (last >> 6) as usize >= big.len() || ((last >> shift) >> 6) as usize >= small.len() {
            return (0, 0, 0, 0);
        }
        let mut blocks = 0u64;
        let mut done = 0usize;
        // SAFETY: each block's load is masked to the `n <= 8` keys left at
        // `done`, and `16 - n` keeps the 8-entry mask read inside the
        // 32-entry table. Every enabled lane's key is `<= last` (disabled
        // lanes read as key 0), so each gather index addresses a `u32` of
        // the word holding bit `key >> shift` or bit `key`, which the check
        // on `last` above puts inside `small` and `big`.
        let (range_hits, hits) = unsafe {
            let small_base = small.as_ptr().cast::<i32>();
            let big_base = big.as_ptr().cast::<i32>();
            let last_v = _mm256_set1_epi32(last as i32);
            let shift_v = _mm_cvtsi32_si128(shift as i32);
            let low5 = _mm256_set1_epi32(31);
            let zero = _mm256_setzero_si256();
            let mut acc_range = zero;
            let mut acc_hits = zero;
            while done < arr.len() {
                let n = (arr.len() - done).min(8);
                let lanes = _mm256_loadu_si256(LEADING_LANES.as_ptr().add(16 - n).cast());
                let kv = _mm256_maskload_epi32(arr.as_ptr().add(done).cast(), lanes);
                // Unsigned `key <= last` in every lane, else the scalar
                // loop takes over from this block.
                let in_range = _mm256_cmpeq_epi32(_mm256_max_epu32(kv, last_v), last_v);
                if _mm256_movemask_ps(_mm256_castsi256_ps(in_range)) != 0xff {
                    break;
                }
                // `x << (31 - (i & 31))` moves bit `i & 31` of `x` to the
                // sign bit, which is what the masked gathers test.
                let range_ids = _mm256_srl_epi32(kv, shift_v);
                let small_w = _mm256_mask_i32gather_epi32::<4>(
                    zero,
                    small_base,
                    _mm256_srli_epi32::<5>(range_ids),
                    lanes,
                );
                let range = _mm256_sllv_epi32(small_w, _mm256_andnot_si256(range_ids, low5));
                let big_w = _mm256_mask_i32gather_epi32::<4>(
                    zero,
                    big_base,
                    _mm256_srli_epi32::<5>(kv),
                    range,
                );
                let hit = _mm256_sllv_epi32(big_w, _mm256_andnot_si256(kv, low5));
                // A set sign bit shifts arithmetically to -1. A lane counts
                // at most once per block, so strictly increasing u32 keys
                // (at most 2^29 blocks) cannot wrap it.
                acc_range = _mm256_sub_epi32(acc_range, _mm256_srai_epi32::<31>(range));
                acc_hits = _mm256_sub_epi32(acc_hits, _mm256_srai_epi32::<31>(hit));
                blocks += 1;
                done += n;
            }
            (sum_lanes(acc_range), sum_lanes(acc_hits))
        };
        // At most one hit per key, like the scalar loop's u32 count.
        let hits = u32::try_from(hits).expect("probe hits fit the u32 count");
        (hits, range_hits, blocks, done)
    }

    /// Sum of the eight `u32` lanes of `v`.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_lanes(v: __m256i) -> u64 {
        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` holds 32 writable bytes.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
        lanes.iter().map(|&x| u64::from(x)).sum()
    }

    /// Bitmap probe loop, AVX-512F: 16 keys per iteration via two 8-wide
    /// 64-bit gathers. Same contract as [`bmp_count_avx2`].
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn bmp_count_avx512(words: &[u64], arr: &[u32]) -> (u32, u64, u64) {
        let limit = u32::try_from(words.len().saturating_mul(64)).ok();
        let no_oob = limit.is_none();
        let mut chunks = arr.chunks_exact(16);
        let mut hits = 0u32;
        let mut blocks = 0u64;
        // SAFETY: loads read 16 in-bounds u32s per chunk; gathers are
        // guarded by the unsigned `limit` compare mask.
        unsafe {
            let base = words.as_ptr().cast::<i64>();
            let limit_v = _mm512_set1_epi32(limit.unwrap_or_default() as i32);
            let sh_mask = _mm512_set1_epi32(63);
            let one = _mm512_set1_epi64(1);
            let mut acc = _mm512_setzero_si512();
            for chunk in chunks.by_ref() {
                let kv = _mm512_loadu_si512(chunk.as_ptr().cast());
                if !no_oob {
                    // _MM_CMPINT_NLT: unsigned `key >= limit`.
                    let oob = _mm512_cmp_epu32_mask::<5>(kv, limit_v);
                    if oob != 0 {
                        for &k in chunk {
                            hits += ((words[(k >> 6) as usize] >> (k & 63)) & 1) as u32;
                        }
                        blocks += 1;
                        continue;
                    }
                }
                let idx = _mm512_srli_epi32::<6>(kv);
                let idx_lo = _mm512_castsi512_si256(idx);
                let idx_hi = _mm512_extracti64x4_epi64::<1>(idx);
                let w_lo = _mm512_i32gather_epi64::<8>(idx_lo, base);
                let w_hi = _mm512_i32gather_epi64::<8>(idx_hi, base);
                let sh = _mm512_and_si512(kv, sh_mask);
                let sh_lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(sh));
                let sh_hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(sh));
                let b_lo = _mm512_and_si512(_mm512_srlv_epi64(w_lo, sh_lo), one);
                let b_hi = _mm512_and_si512(_mm512_srlv_epi64(w_hi, sh_hi), one);
                acc = _mm512_add_epi64(acc, _mm512_add_epi64(b_lo, b_hi));
                blocks += 1;
            }
            // At most one hit per key, like the scalar loop's u32 count.
            hits +=
                u32::try_from(_mm512_reduce_add_epi64(acc)).expect("probe hits fit the u32 count");
        }
        let tail = chunks.remainder();
        for &k in tail {
            hits += ((words[(k >> 6) as usize] >> (k & 63)) & 1) as u32;
        }
        (hits, blocks, tail.len() as u64)
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{
    block_pairs_eq_16, block_pairs_eq_8, bmp_count_avx2, bmp_count_avx512, count_less_than_avx2,
    rf_count_avx2,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_and_labels() {
        assert_eq!(SimdLevel::Scalar.lanes(), 1);
        assert_eq!(SimdLevel::Sse4.lanes(), 4);
        assert_eq!(SimdLevel::Avx2.lanes(), 8);
        assert_eq!(SimdLevel::Avx512.lanes(), 16);
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
    }

    #[test]
    fn detect_is_stable() {
        // Whatever the host supports, repeated calls agree.
        assert_eq!(SimdLevel::detect(), SimdLevel::detect());
        assert_eq!(SimdTier::resolve(), SimdTier::resolve());
    }

    #[test]
    fn tier_names_roundtrip() {
        for t in SimdTier::ALL {
            assert_eq!(SimdTier::from_name(t.label()), Some(t));
        }
        assert_eq!(SimdTier::from_name(" AVX2 "), Some(SimdTier::Avx2));
        assert_eq!(SimdTier::from_name("neon"), None);
    }

    #[test]
    fn scalar_and_portable_always_supported() {
        assert!(SimdTier::Scalar.supported());
        assert!(SimdTier::Portable.supported());
        assert!(SimdTier::detect_host() >= SimdTier::Portable);
    }

    #[test]
    fn tier_gates_respect_availability() {
        // A hand-constructed wide tier never claims intrinsics the host
        // lacks — `_tier` APIs rely on this for memory safety.
        assert!(!SimdTier::Scalar.use_avx2());
        assert!(!SimdTier::Portable.use_avx2());
        assert_eq!(SimdTier::Avx2.use_avx2(), avx2_available());
        assert_eq!(
            SimdTier::Avx512.use_avx512(),
            avx512_available() && avx2_available()
        );
    }

    #[test]
    fn unknown_tier_error_is_descriptive() {
        let e = SimdTierError::Unknown("fast".into());
        assert!(e.to_string().contains("fast"));
        let e = SimdTierError::Unsupported(SimdTier::Avx512);
        assert!(e.to_string().contains("avx512"));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn rf_gathers_read_big_words_only_on_range_hits() {
        if !avx2_available() {
            return;
        }
        // Every big bit set but only the even ranges (of 8 ids) marked: a
        // key in an odd range must miss, as the filter says, and would hit
        // if the big gather read it.
        let big = [u64::MAX; 4];
        let small = [0x5555_5555_5555_5555u64];
        let keys: Vec<u32> = (0..256).collect();
        for len in (0..=40).chain([255, 256]) {
            let probe = &keys[..len];
            // SAFETY: AVX2 checked.
            let got = unsafe { rf_count_avx2(&small, &big, 3, 256, probe) };
            let want = probe.iter().filter(|&&k| (k >> 3) % 2 == 0).count();
            let want = (want as u32, want as u64, len.div_ceil(8) as u64, len);
            assert_eq!(got, want, "len={len}");
        }
        // The first block holding a key at or past the limit ends the loop.
        // SAFETY: AVX2 checked.
        let (_, _, blocks, done) = unsafe { rf_count_avx2(&small, &big, 3, 100, &keys) };
        assert_eq!((blocks, done), (12, 96));
        // A limit whose words lie past either slice runs no block.
        // SAFETY: AVX2 checked.
        let stop = unsafe { rf_count_avx2(&small, &big, 3, 257, &keys[..8]) };
        assert_eq!(stop, (0, 0, 0, 0));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn masked_count_less_than_matches_scalar_at_every_length() {
        if !avx2_available() {
            return;
        }
        // Windows of every length 0..=16 that end where their allocation
        // ends, with low and sign-bit values: a disabled lane must never be
        // read or counted, and the compare must be unsigned.
        let low: Vec<u32> = (0..16).map(|x| x * 5 + 2).collect();
        let high: Vec<u32> = (0..16).map(|x| u32::MAX - 160 + x * 10).collect();
        for w in [&low, &high] {
            let mut targets = vec![0u32, u32::MAX];
            for &x in w.iter() {
                targets.extend([x - 1, x, x + 1]);
            }
            for len in 0..=16 {
                let win = &w[16 - len..];
                for &t in &targets {
                    let want = win.iter().filter(|&&x| x < t).count();
                    // SAFETY: AVX2 checked; the window holds at most 16.
                    let got = unsafe { count_less_than_avx2(win, t) };
                    assert_eq!(got, want, "len={len} t={t}");
                }
            }
        }
    }
}
