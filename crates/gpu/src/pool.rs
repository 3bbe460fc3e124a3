//! The device bitmap pool of Algorithm 6 (`B_A` + `BS_A`).
//!
//! BMP on the GPU allocates one `|V|`-bit bitmap per concurrent thread block
//! (`sms × n_C` bitmaps) directly in device memory — *not* unified memory,
//! to keep the hot random accesses off the page-migration path. A block
//! acquires a bitmap by atomically scanning the occupation status array with
//! compare-and-swap (`AcquireBitmap`, Algorithm 6 lines 22–26) and releases
//! it after clearing.

use std::sync::atomic::{AtomicU32, Ordering};

use cnc_intersect::Bitmap;
use std::sync::Mutex;

/// A pool of device bitmaps with an atomic occupation status array.
pub struct DeviceBitmapPool {
    /// `B_A`: the bitmaps, index-addressed.
    bitmaps: Vec<Mutex<Bitmap>>,
    /// `BS_A`: 0 = free, 1 = occupied.
    status: Vec<AtomicU32>,
    /// CAS attempts (for tallying atomics).
    cas_attempts: AtomicU32,
}

/// A bitmap held by a "thread block"; released (and checked clean) on drop
/// via [`DeviceBitmapPool::release`].
pub struct AcquiredBitmap {
    /// Pool slot index.
    pub slot: usize,
}

impl DeviceBitmapPool {
    /// Allocate `count` bitmaps of cardinality `num_vertices`.
    pub fn new(count: usize, num_vertices: usize) -> Self {
        assert!(count >= 1);
        Self {
            bitmaps: (0..count)
                .map(|_| Mutex::new(Bitmap::new(num_vertices)))
                .collect(),
            status: (0..count).map(|_| AtomicU32::new(0)).collect(),
            cas_attempts: AtomicU32::new(0),
        }
    }

    /// Number of bitmaps (`sms × n_C`).
    pub fn len(&self) -> usize {
        self.bitmaps.len()
    }

    /// True if the pool has no bitmaps (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.bitmaps.is_empty()
    }

    /// Total device memory the pool occupies (the paper's `Mem_B_A`).
    pub fn device_bytes(&self) -> u64 {
        self.bitmaps
            .iter()
            .map(|b| b.lock().expect("pool lock poisoned").bytes() as u64)
            .sum()
    }

    /// `AcquireBitmap`: scan `BS_A` with CAS until a free slot is claimed.
    ///
    /// # Panics
    /// Panics if all slots are occupied — on the real device that cannot
    /// happen because at most `sms × n_C` blocks are resident; the simulator
    /// enforces the same bound by sizing the pool accordingly.
    pub fn acquire(&self) -> AcquiredBitmap {
        for (slot, st) in self.status.iter().enumerate() {
            self.cas_attempts.fetch_add(1, Ordering::Relaxed);
            if st
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return AcquiredBitmap { slot };
            }
        }
        panic!("bitmap pool exhausted: more concurrent blocks than sms * n_C");
    }

    /// Run `f` with mutable access to the acquired bitmap.
    pub fn with<R>(&self, handle: &AcquiredBitmap, f: impl FnOnce(&mut Bitmap) -> R) -> R {
        f(&mut self.bitmaps[handle.slot]
            .lock()
            .expect("pool lock poisoned"))
    }

    /// `ReleaseBitmap`: mark the slot free again. Debug-checks the clearing
    /// contract (Algorithm 6 line 21 clears before releasing).
    pub fn release(&self, handle: AcquiredBitmap) {
        debug_assert!(
            self.bitmaps[handle.slot]
                .lock()
                .expect("pool lock poisoned")
                .is_empty(),
            "bitmap must be cleared before release"
        );
        self.status[handle.slot].store(0, Ordering::Release);
    }

    /// CAS operations performed so far (feeds the atomics tally).
    pub fn cas_count(&self) -> u32 {
        self.cas_attempts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_intersect::NullMeter;

    #[test]
    fn acquire_release_cycle() {
        let pool = DeviceBitmapPool::new(4, 100);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_ne!(a.slot, b.slot);
        pool.with(&a, |bm| {
            bm.set_list(&[1, 2, 3], &mut NullMeter);
            bm.clear_list(&[1, 2, 3], &mut NullMeter);
        });
        pool.release(a);
        pool.release(b);
        let c = pool.acquire();
        assert_eq!(c.slot, 0, "freed slot is reusable");
        pool.release(c);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let pool = DeviceBitmapPool::new(1, 10);
        let _a = pool.acquire();
        let _b = pool.acquire();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cleared before release")]
    fn dirty_release_caught() {
        let pool = DeviceBitmapPool::new(1, 10);
        let a = pool.acquire();
        pool.with(&a, |bm| bm.set(3));
        pool.release(a);
    }

    #[test]
    fn device_bytes_is_pool_times_bitmap() {
        // Paper Table 6 regime: 480 bitmaps of |V|/8 bytes each.
        let pool = DeviceBitmapPool::new(480, 41_652_230);
        let per_bitmap = Bitmap::new(41_652_230).bytes() as u64;
        assert_eq!(pool.device_bytes(), 480 * per_bitmap);
        // ≈ 2.5 GB, matching the paper's Mem_B_A for TW.
        let gb = pool.device_bytes() as f64 / (1u64 << 30) as f64;
        assert!((2.0..3.0).contains(&gb), "{gb} GB");
    }

    #[test]
    fn concurrent_acquires_are_disjoint() {
        let pool = DeviceBitmapPool::new(64, 100);
        let slots: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..16).map(|_| pool.acquire().slot).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("acquiring thread"))
                .collect()
        });
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "every block got its own bitmap");
    }
}
