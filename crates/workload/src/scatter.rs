//! Race-free scatter writes into the shared counts array.
//!
//! The parallel drivers write `cnt[e(u,v)]` and the mirrored `cnt[e(v,u)]`
//! from the task that owns the edge offset `e(u,v)` (with `u < v`). The
//! offset `e(v,u)` belongs to a *different* task's range, so tasks write
//! outside their own partition — but each slot is written **exactly once**:
//!
//! * slot `e(u,v)` with `u < v` is written only by its owning task;
//! * slot `e(v,u)` with `v > u` is written only by the task owning `e(u,v)`
//!   (the task owning `e(v,u)` itself skips it because its source exceeds
//!   its destination).
//!
//! [`ScatterVec`] encapsulates the `unsafe` this requires, and in debug
//! builds verifies the exactly-once discipline with an atomic flag per
//! slot. It is one zeroed allocation from [`ScatterVec::new`] to
//! [`ScatterVec::into_vec`]: the allocator hands a large array out as
//! untouched zero pages, so no pass fills it, and `into_vec` returns that
//! same buffer, so no pass copies it. It lives in this crate because it is
//! the [`Shared`](crate::Workload::Shared) state of the CNC and pair-count
//! workloads.

use std::cell::UnsafeCell;
use std::mem::ManuallyDrop;

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};

/// A `u32` slot with the layout of `u32`: `repr(transparent)` over
/// `UnsafeCell<u32>`, which has the in-memory representation of `u32`.
#[repr(transparent)]
struct SyncCell(UnsafeCell<u32>);

// SAFETY: concurrent access is governed by the exactly-once write discipline
// documented on ScatterVec; disjoint writes to different slots are data-race
// free, and no slot is read until `into_vec` takes back unique ownership.
unsafe impl Sync for SyncCell {}

/// A fixed-length `u32` array supporting disjoint scatter writes from many
/// threads.
pub struct ScatterVec {
    data: Vec<SyncCell>,
    #[cfg(debug_assertions)]
    written: Box<[AtomicBool]>,
}

impl ScatterVec {
    /// A zero-initialized array of `len` slots: one zeroed allocation.
    pub fn new(len: usize) -> Self {
        let mut zeroed = ManuallyDrop::new(vec![0u32; len]);
        // SAFETY: `SyncCell` has the layout of `u32`, so the allocation,
        // with its length and capacity, is a valid `Vec<SyncCell>` of
        // zeros; `zeroed` is never dropped, so the allocation has one owner.
        let data = unsafe {
            Vec::from_raw_parts(
                zeroed.as_mut_ptr().cast::<SyncCell>(),
                zeroed.len(),
                zeroed.capacity(),
            )
        };
        Self {
            data,
            #[cfg(debug_assertions)]
            written: (0..len).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if there are no slots.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Write `value` into `idx`.
    ///
    /// # Panics
    /// In debug builds, panics if `idx` is written twice (which would be a
    /// data race in release builds — the exactly-once invariant is the
    /// caller's obligation).
    #[inline]
    pub fn set(&self, idx: usize, value: u32) {
        #[cfg(debug_assertions)]
        {
            let prev = self.written[idx].swap(true, Ordering::Relaxed);
            assert!(!prev, "ScatterVec slot {idx} written twice");
        }
        // SAFETY: slots are written exactly once across all threads (checked
        // in debug builds above) and never read concurrently with writes.
        unsafe { *self.data[idx].0.get() = value };
    }

    /// Consume and return the plain vector: the same buffer, not a copy.
    pub fn into_vec(self) -> Vec<u32> {
        let mut data = ManuallyDrop::new(self.data);
        // SAFETY: `self` is owned here, so no other thread holds a reference
        // and every write has happened; `SyncCell` has the layout of `u32`
        // (see `new`), and `data` is never dropped, so the allocation passes
        // to the returned vector alone.
        unsafe { Vec::from_raw_parts(data.as_mut_ptr().cast::<u32>(), data.len(), data.capacity()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_set_and_collect() {
        let s = ScatterVec::new(4);
        s.set(2, 7);
        s.set(0, 1);
        s.set(1, 3);
        s.set(3, 9);
        assert_eq!(s.into_vec(), vec![1, 3, 7, 9]);
    }

    #[test]
    fn parallel_disjoint_writes() {
        let n = 100_000;
        let s = ScatterVec::new(n);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || (t..n).step_by(4).for_each(|i| s.set(i, i as u32 * 2)));
            }
        });
        let v = s.into_vec();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 * 2));
    }

    #[test]
    fn unwritten_slots_default_to_zero() {
        let s = ScatterVec::new(3);
        s.set(1, 5);
        assert_eq!(s.into_vec(), vec![0, 5, 0]);
    }

    #[test]
    fn large_array_comes_back_with_every_slot() {
        // Past the allocator's threshold for fresh zero pages: the returned
        // buffer is the zeroed allocation itself.
        let n = (1 << 22) + 3;
        let s = ScatterVec::new(n);
        for i in (0..n).step_by(7) {
            s.set(i, i as u32 | 1);
        }
        let v = s.into_vec();
        assert_eq!(v.len(), n);
        for (i, &x) in v.iter().enumerate() {
            let want = if i % 7 == 0 { i as u32 | 1 } else { 0 };
            assert_eq!(x, want, "slot {i}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "written twice")]
    fn double_write_caught_in_debug() {
        let s = ScatterVec::new(2);
        s.set(0, 1);
        s.set(0, 2);
    }
}
