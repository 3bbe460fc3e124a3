//! Hash-index intersection — the other index-based family from the related
//! work (Section 2.2.1, citations [5, 12, 20]): invest memory in an
//! auxiliary structure, then run an indexed nested-loop join.
//!
//! The paper argues the dynamic bitmap beats hash tables because put/lookup
//! are "actual constant time … via simple bit operations"; this module is
//! the comparator that lets the claim be benchmarked (`ablation_index`
//! bench). The table is open-addressed with linear probing and a
//! power-of-two capacity, rebuilt per indexed set like BMP's bitmap.

use cnc_intersect::Meter;

use super::debug_check_sorted;

/// Sentinel for an empty slot (vertex ids are `< u32::MAX` by construction:
/// ids live in `[0, |V|)` and `|V| ≤ u32::MAX`).
const EMPTY: u32 = u32::MAX;

/// An open-addressing hash set of `u32`s with linear probing.
#[derive(Debug, Clone)]
pub struct HashIndex {
    slots: Vec<u32>,
    mask: usize,
    len: usize,
}

impl HashIndex {
    /// An empty index able to hold `capacity` elements at ≤ 50% load.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(1) * 2).next_power_of_two();
        Self {
            slots: vec![EMPTY; slots],
            mask: slots - 1,
            len: 0,
        }
    }

    /// Fibonacci hashing: cheap and good enough for vertex ids.
    #[inline]
    fn slot_of(&self, v: u32) -> usize {
        (v.wrapping_mul(2654435769) as usize) & self.mask
    }

    /// Insert `v` (ignoring duplicates). Panics if the table is full.
    pub fn insert(&mut self, v: u32) {
        debug_assert_ne!(v, EMPTY);
        let mut s = self.slot_of(v);
        loop {
            match self.slots[s] {
                x if x == EMPTY => {
                    self.slots[s] = v;
                    self.len += 1;
                    return;
                }
                x if x == v => return,
                _ => s = (s + 1) & self.mask,
            }
        }
    }

    /// Build the index over a list (BMP-style dynamic construction).
    pub fn build<M: Meter>(&mut self, list: &[u32], meter: &mut M) {
        for &v in list {
            self.insert(v);
        }
        meter.rand_accesses(list.len() as u64);
        meter.write_bytes(4 * list.len() as u64);
        meter.seq_bytes(4 * list.len() as u64);
    }

    /// Membership probe.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        let mut s = self.slot_of(v);
        loop {
            match self.slots[s] {
                x if x == v => return true,
                x if x == EMPTY => return false,
                _ => s = (s + 1) & self.mask,
            }
        }
    }

    /// Remove all entries of `list` (the amortized clearing trick — the
    /// table stays allocated like BMP's bitmap). Uses backward-shift
    /// deletion to keep probe chains intact.
    pub fn clear_list<M: Meter>(&mut self, list: &[u32], meter: &mut M) {
        for &v in list {
            self.remove(v);
        }
        meter.rand_accesses(list.len() as u64);
        meter.write_bytes(4 * list.len() as u64);
    }

    fn remove(&mut self, v: u32) {
        let mut s = self.slot_of(v);
        loop {
            match self.slots[s] {
                x if x == v => break,
                x if x == EMPTY => return, // absent
                _ => s = (s + 1) & self.mask,
            }
        }
        self.len -= 1;
        // Backward-shift: re-seat the rest of the cluster.
        let mut hole = s;
        let mut probe = (s + 1) & self.mask;
        while self.slots[probe] != EMPTY {
            let ideal = self.slot_of(self.slots[probe]);
            // Move candidate back if its ideal slot is "at or before" the
            // hole along the probe order.
            let between = if hole <= probe {
                ideal <= hole || ideal > probe
            } else {
                ideal <= hole && ideal > probe
            };
            if between {
                self.slots[hole] = self.slots[probe];
                hole = probe;
            }
            probe = (probe + 1) & self.mask;
        }
        self.slots[hole] = EMPTY;
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.slots.len() * 4
    }
}

/// Indexed nested-loop count: probe each element of `arr` against the index
/// (the hash-table analogue of `bmp_count`).
pub fn hash_count<M: Meter>(index: &HashIndex, arr: &[u32], meter: &mut M) -> u32 {
    debug_check_sorted(arr);
    let mut c = 0u32;
    for &w in arr {
        c += u32::from(index.contains(w));
    }
    meter.seq_bytes(4 * arr.len() as u64);
    meter.rand_accesses(arr.len() as u64);
    meter.scalar_ops(arr.len() as u64);
    meter.intersection_done();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_intersect::{reference_count, NullMeter};

    #[test]
    fn insert_contains_basic() {
        let mut h = HashIndex::with_capacity(8);
        for v in [3u32, 7, 1000, 3] {
            h.insert(v);
        }
        assert_eq!(h.len(), 3, "duplicates ignored");
        assert!(h.contains(3) && h.contains(7) && h.contains(1000));
        assert!(!h.contains(4));
    }

    #[test]
    fn build_probe_clear_cycle() {
        let mut m = NullMeter;
        let mut h = HashIndex::with_capacity(64);
        let list: Vec<u32> = (0..50).map(|x| x * 17).collect();
        h.build(&list, &mut m);
        assert_eq!(h.len(), 50);
        h.clear_list(&list, &mut m);
        assert!(h.is_empty());
        // Reusable after clearing.
        h.build(&[5, 6, 7], &mut m);
        assert!(h.contains(6));
        assert!(!h.contains(0));
    }

    #[test]
    fn backward_shift_preserves_cluster_members() {
        // Force collisions: capacity 4 → 8 slots; insert ids that collide.
        let mut h = HashIndex::with_capacity(4);
        let vals = [1u32, 9, 17, 25, 33]; // many will cluster
        for &v in &vals {
            h.insert(v);
        }
        h.remove(9);
        for &v in &vals {
            assert_eq!(h.contains(v), v != 9, "v={v}");
        }
    }

    #[test]
    fn hash_count_matches_reference_randomized() {
        let mut x = 77u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut m = NullMeter;
        for _ in 0..40 {
            let mut a: Vec<u32> = (0..150).map(|_| (next() % 2000) as u32).collect();
            let mut b: Vec<u32> = (0..150).map(|_| (next() % 2000) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let mut h = HashIndex::with_capacity(a.len());
            h.build(&a, &mut m);
            assert_eq!(hash_count(&h, &b, &mut m), reference_count(&a, &b));
            h.clear_list(&a, &mut m);
            assert!(h.is_empty());
        }
    }

    #[test]
    fn heavy_collision_stress() {
        let mut h = HashIndex::with_capacity(256);
        let vals: Vec<u32> = (0..256).collect();
        for &v in &vals {
            h.insert(v);
        }
        // Remove every other element, verify the rest still resolve.
        for v in vals.iter().step_by(2) {
            h.remove(*v);
        }
        for &v in &vals {
            assert_eq!(h.contains(v), v % 2 == 1, "v={v}");
        }
    }
}
