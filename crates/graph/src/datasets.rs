//! Scaled-down analogues of the paper's five evaluation graphs.
//!
//! The paper's datasets (Table 1) are SNAP / WebGraph downloads of up to
//! 1.8 billion edges. This repository cannot ship them, so each dataset is
//! replaced by a seeded generator tuned to land in the same *regime* for the
//! two statistics the paper's analysis keys on:
//!
//! | analogue | paper graph    | degree shape            | skew regime (Table 2) |
//! |----------|----------------|-------------------------|-----------------------|
//! | `lj-s`   | livejournal    | power law, avg ≈ 17     | low-moderate          |
//! | `or-s`   | orkut          | power law, avg ≈ 76     | low                   |
//! | `wi-s`   | web-it         | extreme hubs, avg ≈ 28  | high                  |
//! | `tw-s`   | twitter        | heavy tail + hubs       | high (~31 % in paper) |
//! | `fr-s`   | friendster     | near-uniform, avg ≈ 29  | ≈ 0                   |
//!
//! Absolute sizes are scaled down so that the complete experiment suite runs
//! on a laptop; EXPERIMENTS.md records the actual statistics produced.

use crate::csr::CsrGraph;
use crate::edgelist::EdgeList;
use crate::generators;

/// Size multiplier for the dataset analogues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Very small — for unit and integration tests (hundreds of vertices).
    Tiny,
    /// Default — for the repro harness (tens of thousands of vertices).
    Small,
    /// Larger — for longer benchmark runs.
    Medium,
}

impl Scale {
    fn factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.15,
            Scale::Small => 1.0,
            Scale::Medium => 4.0,
        }
    }

    /// Stable lower-case tag (`tiny` / `small` / `medium`), used in CLI
    /// arguments and prepared-graph cache file names.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
        }
    }
}

/// One of the five dataset analogues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// livejournal-like: power law, moderate average degree.
    LjS,
    /// orkut-like: power law, high average degree.
    OrS,
    /// web-it-like: a few extreme hubs over a power-law body.
    WiS,
    /// twitter-like: heavy tail plus hubs; high skewed-intersection share.
    TwS,
    /// friendster-like: near-uniform degrees.
    FrS,
}

impl Dataset {
    /// All five, in the paper's Table 1 order.
    pub const ALL: [Dataset; 5] = [
        Dataset::LjS,
        Dataset::OrS,
        Dataset::WiS,
        Dataset::TwS,
        Dataset::FrS,
    ];

    /// Short name used in tables and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::LjS => "lj-s",
            Dataset::OrS => "or-s",
            Dataset::WiS => "wi-s",
            Dataset::TwS => "tw-s",
            Dataset::FrS => "fr-s",
        }
    }

    /// The paper dataset this analogue stands in for.
    pub fn paper_name(self) -> &'static str {
        match self {
            Dataset::LjS => "livejournal (LJ)",
            Dataset::OrS => "orkut (OR)",
            Dataset::WiS => "web-it (WI)",
            Dataset::TwS => "twitter (TW)",
            Dataset::FrS => "friendster (FR)",
        }
    }

    /// The paper's Table 1 |V| for the original dataset.
    pub fn paper_vertices(self) -> u64 {
        match self {
            Dataset::LjS => 4_036_538,
            Dataset::OrS => 3_072_627,
            Dataset::WiS => 41_291_083,
            Dataset::TwS => 41_652_230,
            Dataset::FrS => 124_836_180,
        }
    }

    /// The paper's Table 1 |E| (directed CSR slots) for the original dataset.
    pub fn paper_edges(self) -> u64 {
        match self {
            Dataset::LjS => 34_681_189,
            Dataset::OrS => 117_185_083,
            Dataset::WiS => 583_044_292,
            Dataset::TwS => 684_500_375,
            Dataset::FrS => 1_806_067_135,
        }
    }

    /// Capacity-scaling factor for the machine models: how much smaller this
    /// analogue is than the paper's dataset (ratio of undirected edge
    /// counts; Table 1's |E| counts undirected edges — e.g. friendster's
    /// 1.806 B edges at average degree 28.9 over 124.8 M vertices). Model
    /// runs shrink cache/memory capacities by this factor so that all
    /// working-set-vs-capacity ratios match the paper's regime.
    pub fn capacity_scale(self, g: &CsrGraph) -> f64 {
        g.num_undirected_edges() as f64 / self.paper_edges() as f64
    }

    /// Generate the edge list at the given scale. Deterministic.
    pub fn edge_list(self, scale: Scale) -> EdgeList {
        let f = scale.factor();
        let n = |base: usize| ((base as f64 * f) as usize).max(64);
        match self {
            // Power law, avg degree ~17, like livejournal.
            Dataset::LjS => generators::chung_lu(n(24_000), 17.0, 2.35, xlj_seed()),
            // Power law, dense: avg degree ~50 stands in for orkut's 76.
            Dataset::OrS => generators::chung_lu(n(12_000), 60.0, 2.5, xor_seed()),
            // A couple of extreme hubs covering much of the graph + body.
            Dataset::WiS => generators::hub_web(n(24_000), 24.0, 3, 0.50, xwi_seed()),
            // Heavy tail with hubs: highest skewed-intersection share.
            Dataset::TwS => generators::hub_web(n(24_000), 24.0, 6, 0.50, xtw_seed()),
            // Near-uniform: G(n, m) with avg degree ~29.
            Dataset::FrS => {
                let nv = n(40_000);
                generators::gnm(nv, nv * 29 / 2, xfr_seed())
            }
        }
    }

    /// Generate and convert to CSR with [`CsrGraph::from_edge_list`]: the
    /// generators emit normalized lists, so the builder scatters them as
    /// they stand, with no sort. The whole edge list is held in memory;
    /// bounded-memory preparation is [`Dataset::prepare`]'s cold path under
    /// `CNC_PREP_MEM_BYTES` ([`crate::stream`]).
    pub fn build(self, scale: Scale) -> CsrGraph {
        CsrGraph::from_edge_list(&self.edge_list(scale))
    }

    /// The shared prepared form of this dataset: reorder, remap tables and
    /// statistics computed once per process and cached on disk. See
    /// [`crate::prepare::prepared`].
    pub fn prepare(
        self,
        scale: Scale,
        policy: crate::prepare::ReorderPolicy,
    ) -> std::sync::Arc<crate::prepare::PreparedGraph> {
        crate::prepare::prepared(self, scale, policy)
    }
}

// Seeds are arbitrary but fixed so every build of the repository produces
// bit-identical analogues.
#[allow(non_snake_case)]
fn xlj_seed() -> u64 {
    0x006c_6a00
}
#[allow(non_snake_case)]
fn xor_seed() -> u64 {
    0x006f_7200
}
#[allow(non_snake_case)]
fn xwi_seed() -> u64 {
    0x0077_6900
}
#[allow(non_snake_case)]
fn xtw_seed() -> u64 {
    0x0074_7700
}
#[allow(non_snake_case)]
fn xfr_seed() -> u64 {
    0x0066_7200
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::skew_percentage;

    #[test]
    fn all_tiny_analogues_are_valid() {
        for d in Dataset::ALL {
            let g = d.build(Scale::Tiny);
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name()));
            assert!(g.num_vertices() >= 64, "{} too small", d.name());
        }
    }

    #[test]
    fn analogues_are_deterministic() {
        let a = Dataset::TwS.edge_list(Scale::Tiny);
        let b = Dataset::TwS.edge_list(Scale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn skew_regimes_match_paper() {
        // Table 2's ordering: TW and WI are skew-heavy, FR is near zero.
        let wi = Dataset::WiS.build(Scale::Tiny);
        let tw = Dataset::TwS.build(Scale::Tiny);
        let fr = Dataset::FrS.build(Scale::Tiny);
        let (swi, stw, sfr) = (
            skew_percentage(&wi, 50),
            skew_percentage(&tw, 50),
            skew_percentage(&fr, 50),
        );
        assert!(sfr < 2.0, "fr-s should be near-uniform, got {sfr:.1}%");
        assert!(swi > 5.0, "wi-s should be skew-heavy, got {swi:.1}%");
        assert!(stw > 5.0, "tw-s should be skew-heavy, got {stw:.1}%");
    }

    #[test]
    fn scales_order_sizes() {
        let tiny = Dataset::LjS.build(Scale::Tiny);
        let small = Dataset::LjS.build(Scale::Small);
        assert!(tiny.num_vertices() < small.num_vertices());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Dataset::LjS.name(), "lj-s");
        assert_eq!(Dataset::FrS.paper_name(), "friendster (FR)");
        assert_eq!(Dataset::ALL.len(), 5);
        assert_eq!(Scale::Tiny.name(), "tiny");
        assert_eq!(Scale::Small.name(), "small");
        assert_eq!(Scale::Medium.name(), "medium");
    }
}
