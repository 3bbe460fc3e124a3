//! Kernel-aware work estimation for cost-balanced cuts.
//!
//! Equal edge counts are not equal work: under power-law skew a range that
//! lands on a hub source can carry orders of magnitude more intersection
//! work than its neighbors. [`CostModel`] estimates, per kernel family, how
//! expensive a single `(u, v)` pair is (`pair_cost`) and how expensive the
//! once-per-source setup is (`source_cost`), in abstract work units. The
//! cuts that cannot rely on workers claiming small chunks — shard blocks
//! and serve batches — prefix-sum these over sources and pick cut points
//! of near-equal estimated cost; a parallel pass reports its chunks'
//! estimates as `schedule.est_cost_*`.
//!
//! The estimates mirror the asymptotics the paper establishes:
//!
//! * **M / VB** — the two-pointer/blocked merge walks both lists:
//!   `O(d_u + d_v)`.
//! * **MPS** — above the skew threshold `t` the pivot-skip path gallops the
//!   long list from the short one: `O(d_s · log d_l)`; below it, the VB
//!   merge cost applies (Algorithm 1, footnote 1).
//! * **BMP / RF** — the `|V|`-bit bitmap costs `O(d_u)` to build and clear
//!   once per source (the amortized rebuild the schedule tries not to
//!   repeat), then each pair probes the bitmap in `O(d_v)`.
//!
//! Units are "abstract scalar ops", comparable only within one model; the
//! scheduler only ever compares costs produced by the same model, so no
//! cross-family calibration is needed.

use crate::mps::MpsConfig;

/// Per-kernel-family cost estimator behind the cost-balanced cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Merge-family kernels (M and VB): both lists are walked.
    Merge,
    /// The hybrid MPS kernel: pivot-skip above the skew threshold,
    /// blocked merge below it.
    Mps {
        /// Degree-skew ratio above which the pivot-skip path is taken
        /// (the paper's empirical default is 50).
        skew_threshold: u32,
    },
    /// Bitmap kernels (BMP and BMP-RF): per-source build/clear plus a
    /// per-pair probe of the short list.
    Bmp,
}

impl CostModel {
    /// Estimated once-per-source setup cost for a source of degree `du`.
    ///
    /// Only the bitmap family pays this: building and later clearing the
    /// `|V|`-bit bitmap touches each of the source's `du` neighbors twice.
    #[inline]
    pub fn source_cost(&self, du: usize) -> u64 {
        match self {
            CostModel::Merge | CostModel::Mps { .. } => 0,
            CostModel::Bmp => 2 * du as u64,
        }
    }

    /// Estimated cost of intersecting one `(u, v)` pair with degrees
    /// `(du, dv)`.
    ///
    /// Always at least 1, so even degenerate pairs carry the per-edge loop
    /// overhead and a schedule over an all-isolated-vertex graph still
    /// spreads edges across tasks.
    #[inline]
    pub fn pair_cost(&self, du: usize, dv: usize) -> u64 {
        let cost = match self {
            CostModel::Merge => (du + dv) as u64,
            CostModel::Mps { skew_threshold } => {
                let cfg = MpsConfig {
                    skew_threshold: *skew_threshold,
                    simd: crate::simd::SimdLevel::Scalar,
                };
                if cfg.is_skewed(du, dv) {
                    let (s, l) = if du < dv { (du, dv) } else { (dv, du) };
                    s as u64 * (l.max(2).ilog2() as u64 + 1)
                } else {
                    (du + dv) as u64
                }
            }
            // The source bitmap is already built; each pair probes it once
            // per neighbor of the non-source endpoint.
            CostModel::Bmp => dv as u64,
        };
        cost.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_symmetric_and_linear() {
        let m = CostModel::Merge;
        assert_eq!(m.pair_cost(10, 30), m.pair_cost(30, 10));
        assert_eq!(m.pair_cost(10, 30), 40);
        assert_eq!(m.source_cost(1000), 0);
    }

    #[test]
    fn degenerate_pairs_still_cost_one() {
        for model in [
            CostModel::Merge,
            CostModel::Mps { skew_threshold: 50 },
            CostModel::Bmp,
        ] {
            assert_eq!(model.pair_cost(0, 0), 1, "{model:?}");
        }
    }

    #[test]
    fn mps_skewed_pairs_are_sublinear() {
        let m = CostModel::Mps { skew_threshold: 50 };
        // 3 vs 100_000 is far above the threshold: galloping, not merging.
        let skewed = m.pair_cost(3, 100_000);
        let merged = CostModel::Merge.pair_cost(3, 100_000);
        assert!(
            skewed < merged / 100,
            "skewed {skewed} should be far below merge {merged}"
        );
        // Balanced pairs fall back to the merge estimate.
        assert_eq!(m.pair_cost(64, 64), 128);
        // Exactly t*s is NOT skewed (strict >), matching MpsConfig.
        assert_eq!(m.pair_cost(10, 500), 510);
    }

    #[test]
    fn bmp_charges_source_build_and_per_pair_probe() {
        let m = CostModel::Bmp;
        assert_eq!(m.source_cost(40), 80);
        assert_eq!(m.pair_cost(40, 7), 7);
        // The probe depends only on the non-source endpoint.
        assert_eq!(m.pair_cost(9999, 7), 7);
    }
}
