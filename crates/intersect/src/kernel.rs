//! The per-pair counting strategy behind every CPU-side driver.
//!
//! All of the paper's CPU/KNL algorithms share one shape: walk `u < v`
//! neighbor pairs grouped by the source vertex `u`, with optional
//! *per-source* state amortized across all of `u`'s pairs (BMP's dynamic
//! bitmap index, Algorithm 2 line 3). [`PairKernel`] captures exactly that
//! shape, so the edge-range task loop in `cnc-cpu` can be written once and
//! instantiated per algorithm:
//!
//! | kernel | paper name | per-source state |
//! |--------|------------|------------------|
//! | [`MergeKernel`] | **M** | none |
//! | [`MpsKernel`] | **MPS** | none |
//! | [`BmpKernel`] | **BMP** | `\|V\|`-bit bitmap of `N(u)` |
//! | [`RfKernel`] | **BMP-RF** | range-filtered bitmap of `N(u)` |
//!
//! Every method is generic over a [`Meter`], so the same kernel serves the
//! un-instrumented production drivers ([`NullMeter`](crate::NullMeter)
//! compiles to nothing) and the exact work profiling that feeds the KNL and
//! GPU machine models.

use crate::bitmap::{bmp_count, Bitmap};
use crate::merge::merge_count;
use crate::meter::Meter;
use crate::mps::{mps_count_cfg, MpsConfig};
use crate::range_filter::{rf_count, RfBitmap, RfRatioError};

/// A per-source-amortized intersection-counting strategy.
///
/// # Contract
///
/// The driver calls, for each source vertex `u` that has at least one
/// `u < v` pair in its range:
///
/// 1. [`begin_source`](PairKernel::begin_source)`(N(u))` once — or the
///    part of `N(u)` that `u`'s probes can hit, when the workload names one
///    (the triangle workload passes `N(u)` past `u`);
/// 2. [`count`](PairKernel::count)`(N(u), N(v))` for each pair;
/// 3. [`end_source`](PairKernel::end_source) once with the same list,
///    before the next `begin_source` or when the range ends.
///
/// After `end_source` the kernel must be *reset* (all per-source state
/// cleared, [`is_reset`](PairKernel::is_reset) true) so it can be reused —
/// possibly by another task, via a kernel pool.
pub trait PairKernel {
    /// Build per-source state for `nu`: `N(u)`, or the part of it every
    /// probe of this source can hit (no-op for merge kernels).
    fn begin_source<M: Meter>(&mut self, nu: &[u32], meter: &mut M);

    /// Tear down per-source state for the `nu` that `begin_source` got
    /// (no-op for merge kernels).
    fn end_source<M: Meter>(&mut self, nu: &[u32], meter: &mut M);

    /// Count `|nu ∩ nv|` for the current source.
    ///
    /// `nu` is the slice last passed to `begin_source`, or a suffix of it
    /// that keeps every element `nv` can hold (the triangle workload passes
    /// `N(u)` past `v` with `nv` = `N(v)` past `v`); index kernels ignore it
    /// and probe their per-source structure instead.
    fn count<M: Meter>(&mut self, nu: &[u32], nv: &[u32], meter: &mut M) -> u32;

    /// True if all per-source state is cleared (the pool-release contract).
    fn is_reset(&self) -> bool {
        true
    }
}

/// The plain two-pointer merge — the paper's baseline **M**.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeKernel;

impl PairKernel for MergeKernel {
    #[inline]
    fn begin_source<M: Meter>(&mut self, _nu: &[u32], _meter: &mut M) {}

    #[inline]
    fn end_source<M: Meter>(&mut self, _nu: &[u32], _meter: &mut M) {}

    #[inline]
    fn count<M: Meter>(&mut self, nu: &[u32], nv: &[u32], meter: &mut M) -> u32 {
        merge_count(nu, nv, meter)
    }
}

/// The hybrid pivot-skip / vectorized block merge — **MPS** (Algorithm 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MpsKernel {
    /// Skew threshold and SIMD level.
    pub cfg: MpsConfig,
}

impl MpsKernel {
    /// An MPS kernel with the given configuration.
    pub fn new(cfg: MpsConfig) -> Self {
        Self { cfg }
    }
}

impl PairKernel for MpsKernel {
    #[inline]
    fn begin_source<M: Meter>(&mut self, _nu: &[u32], _meter: &mut M) {}

    #[inline]
    fn end_source<M: Meter>(&mut self, _nu: &[u32], _meter: &mut M) {}

    #[inline]
    fn count<M: Meter>(&mut self, nu: &[u32], nv: &[u32], meter: &mut M) -> u32 {
        mps_count_cfg(nu, nv, &self.cfg, meter)
    }
}

/// The dynamic bitmap index — **BMP** (Algorithm 2).
#[derive(Debug, Clone)]
pub struct BmpKernel {
    bm: Bitmap,
}

impl BmpKernel {
    /// A BMP kernel for vertex ids `< cardinality`, bitmap zeroed.
    pub fn new(cardinality: usize) -> Self {
        Self {
            bm: Bitmap::new(cardinality),
        }
    }
}

impl PairKernel for BmpKernel {
    #[inline]
    fn begin_source<M: Meter>(&mut self, nu: &[u32], meter: &mut M) {
        self.bm.set_list(nu, meter);
    }

    #[inline]
    fn end_source<M: Meter>(&mut self, nu: &[u32], meter: &mut M) {
        self.bm.clear_list(nu, meter);
    }

    #[inline]
    fn count<M: Meter>(&mut self, _nu: &[u32], nv: &[u32], meter: &mut M) -> u32 {
        bmp_count(&self.bm, nv, meter)
    }

    fn is_reset(&self) -> bool {
        self.bm.is_empty()
    }
}

/// The range-filtered bitmap index — **BMP-RF** (Section 4.3).
#[derive(Debug, Clone)]
pub struct RfKernel {
    rf: RfBitmap,
}

impl RfKernel {
    /// An RF kernel for vertex ids `< cardinality` with the given
    /// big-to-small ratio. Fails on a zero / non-power-of-two ratio.
    pub fn new(cardinality: usize, ratio: usize) -> Result<Self, RfRatioError> {
        Ok(Self {
            rf: RfBitmap::try_with_ratio(cardinality, ratio)?,
        })
    }

    /// An RF kernel for a ratio the caller has already validated (plan
    /// construction runs [`validate_rf_ratio`](crate::validate_rf_ratio)
    /// before any kernel is built). Debug builds assert the contract; the
    /// underlying bitmap still refuses a broken ratio rather than silently
    /// mis-filtering.
    pub fn prevalidated(cardinality: usize, ratio: usize) -> Self {
        debug_assert!(
            crate::validate_rf_ratio(ratio).is_ok(),
            "RF ratio {ratio} must be a power of two >= 2 — validate at plan time"
        );
        Self {
            rf: RfBitmap::with_ratio(cardinality, ratio),
        }
    }
}

impl PairKernel for RfKernel {
    #[inline]
    fn begin_source<M: Meter>(&mut self, nu: &[u32], meter: &mut M) {
        self.rf.set_list(nu, meter);
    }

    #[inline]
    fn end_source<M: Meter>(&mut self, nu: &[u32], meter: &mut M) {
        self.rf.clear_list(nu, meter);
    }

    #[inline]
    fn count<M: Meter>(&mut self, _nu: &[u32], nv: &[u32], meter: &mut M) -> u32 {
        rf_count(&self.rf, nv, meter)
    }

    fn is_reset(&self) -> bool {
        self.rf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{CountingMeter, NullMeter};
    use crate::reference_count;

    fn drive<K: PairKernel>(kernel: &mut K, nu: &[u32], probes: &[&[u32]]) -> Vec<u32> {
        let mut m = NullMeter;
        kernel.begin_source(nu, &mut m);
        let out = probes
            .iter()
            .map(|nv| kernel.count(nu, nv, &mut m))
            .collect();
        kernel.end_source(nu, &mut m);
        assert!(kernel.is_reset(), "kernel must be clean after end_source");
        out
    }

    #[test]
    fn all_kernels_agree_with_reference() {
        let nu: Vec<u32> = vec![1, 3, 5, 7, 9, 40, 80];
        let probes: Vec<Vec<u32>> = vec![
            vec![2, 3, 4, 7, 8],
            vec![],
            vec![40, 41, 80, 99],
            (0..100).collect(),
        ];
        let probe_refs: Vec<&[u32]> = probes.iter().map(|p| p.as_slice()).collect();
        let want: Vec<u32> = probes.iter().map(|nv| reference_count(&nu, nv)).collect();
        assert_eq!(drive(&mut MergeKernel, &nu, &probe_refs), want);
        assert_eq!(
            drive(&mut MpsKernel::new(MpsConfig::default()), &nu, &probe_refs),
            want
        );
        assert_eq!(drive(&mut BmpKernel::new(100), &nu, &probe_refs), want);
        assert_eq!(
            drive(&mut RfKernel::new(100, 8).unwrap(), &nu, &probe_refs),
            want
        );
    }

    #[test]
    fn index_kernels_reusable_across_sources() {
        let mut k = BmpKernel::new(64);
        for round in 0..3u32 {
            let nu: Vec<u32> = (0..10).map(|x| x * 5 + round).collect();
            let got = drive(&mut k, &nu, &[&nu]);
            assert_eq!(got, vec![10]);
        }
    }

    #[test]
    fn rf_kernel_rejects_bad_ratios() {
        assert!(RfKernel::new(100, 0).is_err());
        assert!(RfKernel::new(100, 100).is_err());
        assert!(RfKernel::new(100, 64).is_ok());
    }

    #[test]
    fn merge_kernels_report_no_reset_state() {
        assert!(MergeKernel.is_reset());
        assert!(MpsKernel::default().is_reset());
    }

    #[test]
    fn kernels_meter_their_work() {
        let nu: Vec<u32> = (0..50).collect();
        let nv: Vec<u32> = (25..75).collect();
        let mut m = CountingMeter::new();
        let mut k = BmpKernel::new(100);
        k.begin_source(&nu, &mut m);
        k.count(&nu, &nv, &mut m);
        k.end_source(&nu, &mut m);
        assert!(m.counts.rand_accesses > 0);
        assert!(m.counts.write_bytes > 0);
        assert_eq!(m.counts.intersections, 1);
    }
}
