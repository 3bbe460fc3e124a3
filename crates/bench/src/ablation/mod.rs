//! Comparator index structures for the `ablation_index_structures` bench
//! (`benches/ablations.rs`): the two related-work intersection families
//! the paper argues its dynamic bitmap beats (Section 2.2.1). They are
//! bench-only — no counting path uses them.

mod bsr;
mod hash_index;

pub use bsr::{bsr_count, bsr_intersect, BsrSet};
pub use hash_index::{hash_count, HashIndex};

/// Debug-build check of the neighbor-list precondition: strictly
/// increasing input.
fn debug_check_sorted(a: &[u32]) {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]),
        "intersection input must be strictly increasing"
    );
}
