//! Plan-level workload descriptors and the type-erased run output.

/// Why a workload configuration is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// The requested clique size is outside the supported `3..=5` range.
    CliqueSizeOutOfRange {
        /// The size as requested.
        k: u8,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::CliqueSizeOutOfRange { k } => write!(
                f,
                "clique size k={k} is outside the supported range {}..={}",
                WorkloadKind::MIN_CLIQUE_K,
                WorkloadKind::MAX_CLIQUE_K
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Which counting workload a plan executes.
///
/// This is the *descriptor* carried through `Plan` and the CLI; the
/// executable strategy objects live behind the [`Workload`](crate::Workload)
/// trait ([`CncWorkload`](crate::CncWorkload),
/// [`TriangleWorkload`](crate::TriangleWorkload),
/// [`KCliqueWorkload`](crate::KCliqueWorkload)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadKind {
    /// All-edge common neighbor counting — the paper's workload and the
    /// default. Output: one `u32` per directed edge slot.
    #[default]
    Cnc,
    /// Triangle counting on oriented suffixes: each canonical pair `(u, v)`
    /// intersects `N(u)` past `v` with `N(v)` past `v`, so the triangle
    /// `u < v < w` is counted once, at `(u, v)`, and the counts sum to one
    /// global triangle total.
    Triangle,
    /// k-clique counting via ordered recursion through the collect-flavored
    /// intersection kernels. Output: one count per clique size `3..=k`.
    KClique {
        /// The maximum clique size to count (`3..=5`).
        k: u8,
    },
}

impl WorkloadKind {
    /// Smallest supported clique size.
    pub const MIN_CLIQUE_K: u8 = 3;
    /// Largest supported clique size.
    pub const MAX_CLIQUE_K: u8 = 5;

    /// Check configuration the type system cannot (the clique size range).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            WorkloadKind::Cnc | WorkloadKind::Triangle => Ok(()),
            WorkloadKind::KClique { k } => {
                if (Self::MIN_CLIQUE_K..=Self::MAX_CLIQUE_K).contains(&k) {
                    Ok(())
                } else {
                    Err(WorkloadError::CliqueSizeOutOfRange { k })
                }
            }
        }
    }

    /// Stable label for reports and metrics (`cnc`, `triangle`,
    /// `kclique(k=4)`).
    pub fn label(&self) -> String {
        match self {
            WorkloadKind::Cnc => "cnc".into(),
            WorkloadKind::Triangle => "triangle".into(),
            WorkloadKind::KClique { k } => format!("kclique(k={k})"),
        }
    }
}

/// The type-erased result of a workload run, as produced by a backend.
///
/// Downstream layers that only ever ran CNC now match on this; convenience
/// accessors keep the common per-edge path terse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadOutput {
    /// One common-neighbor count per directed edge slot (CNC).
    EdgeCounts(Vec<u32>),
    /// A single global count (triangle total).
    Global(u64),
    /// Per-clique-size counts: `counts[i]` is the number of `(i + 3)`-cliques,
    /// for sizes `3..=k`.
    CliqueCounts {
        /// The maximum clique size counted.
        k: u8,
        /// One count per clique size `3..=k`, ascending.
        counts: Vec<u64>,
    },
}

impl WorkloadOutput {
    /// The per-edge counts, when this is a CNC result.
    pub fn edge_counts(&self) -> Option<&[u32]> {
        match self {
            WorkloadOutput::EdgeCounts(c) => Some(c),
            _ => None,
        }
    }

    /// Consume into the per-edge counts, when this is a CNC result.
    pub fn into_edge_counts(self) -> Option<Vec<u32>> {
        match self {
            WorkloadOutput::EdgeCounts(c) => Some(c),
            _ => None,
        }
    }

    /// The headline global count: the triangle total, or the count of the
    /// largest clique size. `None` for per-edge outputs.
    pub fn global_count(&self) -> Option<u64> {
        match self {
            WorkloadOutput::EdgeCounts(_) => None,
            WorkloadOutput::Global(t) => Some(*t),
            WorkloadOutput::CliqueCounts { counts, .. } => counts.last().copied(),
        }
    }

    /// One-line human-readable summary of the result.
    pub fn summary(&self) -> String {
        match self {
            WorkloadOutput::EdgeCounts(c) => format!("{} edge slots", c.len()),
            WorkloadOutput::Global(t) => format!("{t} triangles"),
            WorkloadOutput::CliqueCounts { k, counts } => {
                let per_size: Vec<String> = counts
                    .iter()
                    .enumerate()
                    .map(|(i, c)| format!("{}-cliques={c}", i + 3))
                    .collect();
                format!("k={k}: {}", per_size.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_validation() {
        assert!(WorkloadKind::Cnc.validate().is_ok());
        assert!(WorkloadKind::Triangle.validate().is_ok());
        for k in 3..=5u8 {
            assert!(WorkloadKind::KClique { k }.validate().is_ok());
        }
        for k in [0u8, 1, 2, 6, 200] {
            let err = WorkloadKind::KClique { k }.validate().unwrap_err();
            assert_eq!(err, WorkloadError::CliqueSizeOutOfRange { k });
            assert!(err.to_string().contains(&format!("k={k}")));
        }
    }

    #[test]
    fn kind_labels() {
        assert_eq!(WorkloadKind::Cnc.label(), "cnc");
        assert_eq!(WorkloadKind::Triangle.label(), "triangle");
        assert_eq!(WorkloadKind::KClique { k: 4 }.label(), "kclique(k=4)");
        assert_eq!(WorkloadKind::default(), WorkloadKind::Cnc);
    }

    #[test]
    fn output_accessors() {
        let edges = WorkloadOutput::EdgeCounts(vec![1, 2, 3]);
        assert_eq!(edges.edge_counts(), Some(&[1u32, 2, 3][..]));
        assert_eq!(edges.global_count(), None);
        assert_eq!(edges.clone().into_edge_counts(), Some(vec![1, 2, 3]));

        let tri = WorkloadOutput::Global(42);
        assert_eq!(tri.edge_counts(), None);
        assert_eq!(tri.global_count(), Some(42));
        assert!(tri.summary().contains("42 triangles"));

        let cliques = WorkloadOutput::CliqueCounts {
            k: 5,
            counts: vec![10, 4, 1],
        };
        assert_eq!(cliques.global_count(), Some(1));
        let s = cliques.summary();
        assert!(
            s.contains("3-cliques=10") && s.contains("5-cliques=1"),
            "{s}"
        );
    }
}
