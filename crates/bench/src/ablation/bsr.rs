//! Sparse bitmap set representation (**BSR** — base and state), the third
//! intersection family of the paper's related work (Section 2.2.1,
//! citations [1, 13, 16]: EmptyHeaded, Han et al.'s SIGMOD'18 study,
//! Roaring).
//!
//! A sorted set is stored as two aligned arrays: `base[i]` is a word index
//! (element value divided by the word width) and `state[i]` is the 32-bit
//! occupancy mask of that word. Intersecting two BSRs merges the base
//! arrays and ANDs the states on base matches — very fast when neighbor ids
//! cluster (the bits share words), degenerating gracefully to a plain merge
//! when they do not.
//!
//! The paper chose the dynamic dense bitmap over BSR because BSR "requires
//! graph reordering … performed offline" to make states compact; this
//! implementation exists as the faithful comparator (see the
//! `ablation_index` bench).

use cnc_intersect::Meter;

use super::debug_check_sorted;

/// Word width of the state mask.
const BITS: u32 = 32;

/// A set of `u32`s in base-and-state form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BsrSet {
    base: Vec<u32>,
    state: Vec<u32>,
}

impl BsrSet {
    /// Build from a strictly increasing slice.
    pub fn from_sorted(values: &[u32]) -> Self {
        debug_check_sorted(values);
        let mut base = Vec::new();
        let mut state = Vec::new();
        for &v in values {
            let b = v / BITS;
            let bit = 1u32 << (v % BITS);
            // `base` and `state` grow in lockstep, so matching on both
            // lets the compiler see the pair exists together.
            match (base.last(), state.last_mut()) {
                (Some(&last), Some(s)) if last == b => *s |= bit,
                _ => {
                    base.push(b);
                    state.push(bit);
                }
            }
        }
        Self { base, state }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.state.iter().map(|s| s.count_ones() as usize).sum()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Number of (base, state) words — the compression unit count.
    pub fn words(&self) -> usize {
        self.base.len()
    }

    /// Memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.base.len() * 8
    }

    /// Decompress back to a sorted vector.
    pub fn to_sorted_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        for (&b, &s) in self.base.iter().zip(&self.state) {
            let mut bits = s;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                out.push(b * BITS + tz);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Does the set contain `v`?
    pub fn contains(&self, v: u32) -> bool {
        match self.base.binary_search(&(v / BITS)) {
            Ok(i) => self.state[i] & (1 << (v % BITS)) != 0,
            Err(_) => false,
        }
    }
}

/// Count `|a ∩ b|` of two BSR sets: merge the base arrays, popcount the
/// ANDed states on matches.
pub fn bsr_count<M: Meter>(a: &BsrSet, b: &BsrSet, meter: &mut M) -> u32 {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0u32);
    let mut iters = 0u64;
    while i < a.base.len() && j < b.base.len() {
        iters += 1;
        let (x, y) = (a.base[i], b.base[j]);
        if x == y {
            c += (a.state[i] & b.state[j]).count_ones();
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    meter.scalar_ops(iters);
    meter.seq_bytes(8 * (i + j) as u64);
    meter.intersection_done();
    c
}

/// Materialize `a ∩ b` as a new BSR set.
pub fn bsr_intersect<M: Meter>(a: &BsrSet, b: &BsrSet, meter: &mut M) -> BsrSet {
    let mut out = BsrSet::default();
    let (mut i, mut j) = (0usize, 0usize);
    let mut iters = 0u64;
    while i < a.base.len() && j < b.base.len() {
        iters += 1;
        let (x, y) = (a.base[i], b.base[j]);
        if x == y {
            let s = a.state[i] & b.state[j];
            if s != 0 {
                out.base.push(x);
                out.state.push(s);
            }
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    meter.scalar_ops(iters);
    meter.seq_bytes(8 * (i + j) as u64);
    meter.intersection_done();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_intersect::{reference_count, CountingMeter, NullMeter};

    #[test]
    fn roundtrip() {
        let v = vec![0u32, 1, 31, 32, 33, 64, 1000, 1001, 1031];
        let s = BsrSet::from_sorted(&v);
        assert_eq!(s.to_sorted_vec(), v);
        assert_eq!(s.len(), v.len());
        // 0,1,31 share word 0; 32,33 word 1; 64 word 2; 1000.. words 31/32.
        assert_eq!(s.words(), 5);
        assert!(s.contains(31));
        assert!(!s.contains(30));
        assert!(!s.contains(5000));
    }

    #[test]
    fn empty_set() {
        let s = BsrSet::from_sorted(&[]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        let mut m = NullMeter;
        assert_eq!(bsr_count(&s, &BsrSet::from_sorted(&[1, 2]), &mut m), 0);
    }

    #[test]
    fn count_matches_reference_randomized() {
        let mut x = 0x1234_5678_9abcu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut m = NullMeter;
        for round in 0..50 {
            // Alternate clustered and scattered universes: BSR's best and
            // worst cases.
            let range = if round % 2 == 0 { 600 } else { 100_000 };
            let mut a: Vec<u32> = (0..200).map(|_| (next() % range) as u32).collect();
            let mut b: Vec<u32> = (0..200).map(|_| (next() % range) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let (sa, sb) = (BsrSet::from_sorted(&a), BsrSet::from_sorted(&b));
            assert_eq!(bsr_count(&sa, &sb, &mut m), reference_count(&a, &b));
            let inter = bsr_intersect(&sa, &sb, &mut m);
            let want: Vec<u32> = a.iter().filter(|x| b.contains(x)).copied().collect();
            assert_eq!(inter.to_sorted_vec(), want);
        }
    }

    #[test]
    fn clustered_ids_compress_and_speed_up() {
        // Dense run of 320 consecutive ids starting mid-word → 11 words
        // (1000/32 = 31.25: words 31 through 41) instead of 320 elements.
        let dense: Vec<u32> = (1000..1320).collect();
        let s = BsrSet::from_sorted(&dense);
        assert_eq!(s.words(), 11);
        // Intersection work is word-level, not element-level.
        let mut m = CountingMeter::new();
        bsr_count(&s, &s, &mut m);
        assert!(m.counts.scalar_ops <= 11);
        assert_eq!(bsr_count(&s, &s, &mut NullMeter), 320);
    }

    #[test]
    fn scattered_ids_degenerate_to_merge() {
        let sparse: Vec<u32> = (0..100).map(|x| x * 1000).collect();
        let s = BsrSet::from_sorted(&sparse);
        assert_eq!(s.words(), 100, "one word per element when scattered");
    }
}
