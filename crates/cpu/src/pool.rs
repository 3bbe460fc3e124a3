//! A shared pool of reusable bitmaps.
//!
//! BMP's bitmap has `|V|` bits: allocating one per run would dominate a
//! point-query batch. A small lock-protected pool (mirroring the GPU
//! kernel's `B_A`/`BS_A` bitmap pool, Algorithm 6) hands each worker of a
//! run one clean bitmap and takes it back cleared when the worker is done,
//! so a pool kept across runs holds one bitmap per worker thread at steady
//! state.

use std::sync::Mutex;

/// Statistics of pool usage (exported for tests and the memory tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bitmaps created over the pool's lifetime.
    pub created: usize,
    /// Acquire calls served from the free list.
    pub reused: usize,
}

/// Free list and usage statistics, guarded together: acquire and release
/// each take exactly one lock.
struct PoolInner<T> {
    free: Vec<T>,
    stats: PoolStats,
}

/// A pool of `T` values (bitmaps) created on demand by a factory.
pub struct BitmapPool<T> {
    inner: Mutex<PoolInner<T>>,
    factory: Box<dyn Fn() -> T + Send + Sync>,
}

impl<T> BitmapPool<T> {
    /// An empty pool whose bitmaps are built by `factory`.
    pub fn new(factory: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Self {
            inner: Mutex::new(PoolInner {
                free: Vec::new(),
                stats: PoolStats::default(),
            }),
            factory: Box::new(factory),
        }
    }

    /// Take a value from the pool, creating one if none is free.
    ///
    /// The caller must return the value *clean* (all-zero bitmap) via
    /// [`BitmapPool::release`].
    pub fn acquire(&self) -> T {
        {
            let mut inner = self.inner.lock().expect("pool lock poisoned");
            if let Some(v) = inner.free.pop() {
                inner.stats.reused += 1;
                return v;
            }
            inner.stats.created += 1;
            // Drop the lock before running the factory: building a |V|-bit
            // bitmap is the expensive path and must not serialize peers.
        }
        (self.factory)()
    }

    /// Return a (clean) value to the pool.
    pub fn release(&self, v: T) {
        self.inner.lock().expect("pool lock poisoned").free.push(v);
    }

    /// Usage statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().expect("pool lock poisoned").stats
    }

    /// Number of values currently on the free list.
    pub fn idle(&self) -> usize {
        self.inner.lock().expect("pool lock poisoned").free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_intersect::Bitmap;

    #[test]
    fn acquire_creates_then_reuses() {
        let pool = BitmapPool::new(|| Bitmap::new(128));
        let a = pool.acquire();
        assert_eq!(pool.stats().created, 1);
        pool.release(a);
        let _b = pool.acquire();
        let s = pool.stats();
        assert_eq!(s.created, 1);
        assert_eq!(s.reused, 1);
    }

    #[test]
    fn steady_state_bounded_by_concurrency() {
        const THREADS: usize = 4;
        let pool = BitmapPool::new(|| Bitmap::new(64));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..250 {
                        let bm = pool.acquire();
                        // ... would use the bitmap here ...
                        pool.release(bm);
                    }
                });
            }
        });
        let s = pool.stats();
        assert!(s.created <= THREADS);
        assert_eq!(s.created + s.reused, THREADS * 250);
        assert_eq!(pool.idle(), s.created);
    }

    #[test]
    fn released_bitmaps_must_be_clean_contract() {
        // The pool does not scrub: this test documents the contract by
        // showing a dirty release is observable (and thus testable upstream).
        let pool = BitmapPool::new(|| Bitmap::new(32));
        let mut bm = pool.acquire();
        bm.set(5);
        pool.release(bm);
        let back = pool.acquire();
        assert!(
            !back.is_empty(),
            "pool hands back exactly what was released"
        );
    }
}
