//! Work instrumentation for the intersection kernels.
//!
//! The simulated processors (`cnc-knl`, `cnc-gpu`) need exact operation and
//! byte counts to drive their performance models. Rather than maintaining
//! instrumented copies of every kernel, each kernel is generic over a
//! [`Meter`]. The [`NullMeter`] implementation has empty inlined methods, so
//! the un-instrumented specialization is identical to hand-written
//! un-instrumented code after optimization.

/// Sink for work events emitted by intersection kernels.
///
/// Counts are *architecture neutral*: they describe algorithmic work
/// (comparisons performed, bytes streamed, random lookups issued), and the
/// machine models assign costs per event.
pub trait Meter {
    /// `n` scalar comparisons / branchy loop iterations.
    fn scalar_ops(&mut self, n: u64);
    /// `n` SIMD block operations (one per all-pair comparison of one rotation).
    fn vector_ops(&mut self, n: u64);
    /// `n` bytes read with a streaming / sequential pattern.
    fn seq_bytes(&mut self, n: u64);
    /// `n` random accesses whose working set is the *large* structure
    /// (the `|V|`-bit bitmap or a binary-search over a long array).
    fn rand_accesses(&mut self, n: u64);
    /// `n` random accesses guaranteed to hit a small cache-resident
    /// structure (the RF small bitmap, galloping within a cache line).
    fn rand_accesses_small(&mut self, n: u64);
    /// `n` bytes written (count stores, bitmap construction).
    fn write_bytes(&mut self, n: u64);
    /// One neighbor-set intersection completed.
    fn intersection_done(&mut self);
    /// `n` wide probe blocks (8/16 keys each) executed by a vector or
    /// chunked-portable path (BMP and RF word probes, gallop pivot blocks).
    ///
    /// Unlike the counts above, this event is **tier-dependent**: it
    /// attributes measured wall-clock to the [`SimdTier`] that actually ran
    /// and is deliberately *not* consumed by the machine models, whose
    /// inputs must be identical on every host.
    ///
    /// [`SimdTier`]: crate::SimdTier
    #[inline]
    fn simd_blocks(&mut self, n: u64) {
        let _ = n;
    }
    /// `n` keys handled by the scalar tail after a wide probe loop ran out
    /// of full blocks, or stopped at a key past its bitmaps (RF probes).
    /// Tier-dependent, like [`Meter::simd_blocks`].
    #[inline]
    fn simd_tail_elems(&mut self, n: u64) {
        let _ = n;
    }
}

/// A meter that ignores everything; compiles to no code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMeter;

impl Meter for NullMeter {
    #[inline(always)]
    fn scalar_ops(&mut self, _n: u64) {}
    #[inline(always)]
    fn vector_ops(&mut self, _n: u64) {}
    #[inline(always)]
    fn seq_bytes(&mut self, _n: u64) {}
    #[inline(always)]
    fn rand_accesses(&mut self, _n: u64) {}
    #[inline(always)]
    fn rand_accesses_small(&mut self, _n: u64) {}
    #[inline(always)]
    fn write_bytes(&mut self, _n: u64) {}
    #[inline(always)]
    fn intersection_done(&mut self) {}
}

/// Exact tallies of the work a kernel performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Scalar comparisons / branchy iterations.
    pub scalar_ops: u64,
    /// SIMD block operations.
    pub vector_ops: u64,
    /// Bytes streamed sequentially.
    pub seq_bytes: u64,
    /// Random accesses into large working sets.
    pub rand_accesses: u64,
    /// Random accesses into small cache-resident structures.
    pub rand_accesses_small: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Number of completed set intersections.
    pub intersections: u64,
    /// Wide probe blocks executed (tier-dependent; see
    /// [`Meter::simd_blocks`]).
    pub simd_blocks: u64,
    /// Keys handled by scalar tails after wide probe loops
    /// (tier-dependent; see [`Meter::simd_tail_elems`]).
    pub simd_tail_elems: u64,
}

impl WorkCounts {
    /// Merge another tally into this one (used when combining per-task meters).
    pub fn merge(&mut self, other: &WorkCounts) {
        self.scalar_ops += other.scalar_ops;
        self.vector_ops += other.vector_ops;
        self.seq_bytes += other.seq_bytes;
        self.rand_accesses += other.rand_accesses;
        self.rand_accesses_small += other.rand_accesses_small;
        self.write_bytes += other.write_bytes;
        self.intersections += other.intersections;
        self.simd_blocks += other.simd_blocks;
        self.simd_tail_elems += other.simd_tail_elems;
    }

    /// Total dynamic operations (scalar + vector), a rough work measure.
    pub fn total_ops(&self) -> u64 {
        self.scalar_ops + self.vector_ops
    }

    /// Record these tallies into a metrics sink under the `kernel.*`
    /// counters — the bridge from per-run meters to the structured
    /// observability registry.
    pub fn record_to(&self, sink: &dyn cnc_obs::MetricsSink) {
        use cnc_obs::Counter as C;
        sink.add(C::KernelScalarOps, self.scalar_ops);
        sink.add(C::KernelVectorOps, self.vector_ops);
        sink.add(C::KernelSeqBytes, self.seq_bytes);
        sink.add(C::KernelRandAccesses, self.rand_accesses);
        sink.add(C::KernelRandAccessesSmall, self.rand_accesses_small);
        sink.add(C::KernelWriteBytes, self.write_bytes);
        sink.add(C::KernelIntersections, self.intersections);
        sink.add(C::KernelSimdBlocks, self.simd_blocks);
        sink.add(C::KernelSimdTailElems, self.simd_tail_elems);
    }
}

/// A meter that records exact [`WorkCounts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingMeter {
    /// The tallies recorded so far.
    pub counts: WorkCounts,
}

impl CountingMeter {
    /// A fresh meter with zeroed tallies.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Meter for CountingMeter {
    #[inline]
    fn scalar_ops(&mut self, n: u64) {
        self.counts.scalar_ops += n;
    }
    #[inline]
    fn vector_ops(&mut self, n: u64) {
        self.counts.vector_ops += n;
    }
    #[inline]
    fn seq_bytes(&mut self, n: u64) {
        self.counts.seq_bytes += n;
    }
    #[inline]
    fn rand_accesses(&mut self, n: u64) {
        self.counts.rand_accesses += n;
    }
    #[inline]
    fn rand_accesses_small(&mut self, n: u64) {
        self.counts.rand_accesses_small += n;
    }
    #[inline]
    fn write_bytes(&mut self, n: u64) {
        self.counts.write_bytes += n;
    }
    #[inline]
    fn intersection_done(&mut self) {
        self.counts.intersections += 1;
    }
    #[inline]
    fn simd_blocks(&mut self, n: u64) {
        self.counts.simd_blocks += n;
    }
    #[inline]
    fn simd_tail_elems(&mut self, n: u64) {
        self.counts.simd_tail_elems += n;
    }
}

impl Meter for &mut CountingMeter {
    #[inline]
    fn scalar_ops(&mut self, n: u64) {
        (**self).scalar_ops(n)
    }
    #[inline]
    fn vector_ops(&mut self, n: u64) {
        (**self).vector_ops(n)
    }
    #[inline]
    fn seq_bytes(&mut self, n: u64) {
        (**self).seq_bytes(n)
    }
    #[inline]
    fn rand_accesses(&mut self, n: u64) {
        (**self).rand_accesses(n)
    }
    #[inline]
    fn rand_accesses_small(&mut self, n: u64) {
        (**self).rand_accesses_small(n)
    }
    #[inline]
    fn write_bytes(&mut self, n: u64) {
        (**self).write_bytes(n)
    }
    #[inline]
    fn intersection_done(&mut self) {
        (**self).intersection_done()
    }
    #[inline]
    fn simd_blocks(&mut self, n: u64) {
        (**self).simd_blocks(n)
    }
    #[inline]
    fn simd_tail_elems(&mut self, n: u64) {
        (**self).simd_tail_elems(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_meter_accumulates() {
        let mut m = CountingMeter::new();
        m.scalar_ops(3);
        m.scalar_ops(4);
        m.vector_ops(2);
        m.seq_bytes(16);
        m.rand_accesses(5);
        m.rand_accesses_small(6);
        m.write_bytes(8);
        m.intersection_done();
        m.simd_blocks(9);
        m.simd_tail_elems(10);
        assert_eq!(
            m.counts,
            WorkCounts {
                scalar_ops: 7,
                vector_ops: 2,
                seq_bytes: 16,
                rand_accesses: 5,
                rand_accesses_small: 6,
                write_bytes: 8,
                intersections: 1,
                simd_blocks: 9,
                simd_tail_elems: 10,
            }
        );
    }

    #[test]
    fn merge_combines_fields() {
        let a = WorkCounts {
            scalar_ops: 1,
            vector_ops: 2,
            seq_bytes: 3,
            rand_accesses: 4,
            rand_accesses_small: 5,
            write_bytes: 6,
            intersections: 7,
            simd_blocks: 8,
            simd_tail_elems: 9,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.scalar_ops, 2);
        assert_eq!(b.intersections, 14);
        assert_eq!(b.simd_blocks, 16);
        assert_eq!(b.simd_tail_elems, 18);
        assert_eq!(b.total_ops(), 6);
    }

    #[test]
    fn record_to_maps_every_field() {
        use cnc_obs::{Counter as C, MetricsSink, ShardedRegistry};
        let r = ShardedRegistry::new();
        let w = WorkCounts {
            scalar_ops: 1,
            vector_ops: 2,
            seq_bytes: 3,
            rand_accesses: 4,
            rand_accesses_small: 5,
            write_bytes: 6,
            intersections: 7,
            simd_blocks: 8,
            simd_tail_elems: 9,
        };
        w.record_to(&r);
        let s = r.snapshot();
        assert_eq!(s.get(C::KernelScalarOps), 1);
        assert_eq!(s.get(C::KernelVectorOps), 2);
        assert_eq!(s.get(C::KernelSeqBytes), 3);
        assert_eq!(s.get(C::KernelRandAccesses), 4);
        assert_eq!(s.get(C::KernelRandAccessesSmall), 5);
        assert_eq!(s.get(C::KernelWriteBytes), 6);
        assert_eq!(s.get(C::KernelIntersections), 7);
        assert_eq!(s.get(C::KernelSimdBlocks), 8);
        assert_eq!(s.get(C::KernelSimdTailElems), 9);
    }

    #[test]
    fn mut_ref_meter_forwards() {
        let mut m = CountingMeter::new();
        {
            let mut r: &mut CountingMeter = &mut m;
            let r = &mut r;
            r.scalar_ops(5);
            r.intersection_done();
        }
        assert_eq!(m.counts.scalar_ops, 5);
        assert_eq!(m.counts.intersections, 1);
    }
}
