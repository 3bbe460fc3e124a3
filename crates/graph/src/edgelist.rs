//! Raw undirected edge collections.

use crate::csr::{check_edge_count, TooManyEdges};

/// A collection of undirected edges over vertices `0..num_vertices`.
///
/// The canonical internal form after [`EdgeList::normalize`] is: no
/// self-loops, each undirected edge stored once as `(min, max)`, sorted,
/// deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    /// Undirected edges. After normalization, `u < v` for every `(u, v)`.
    pub edges: Vec<(u32, u32)>,
    /// Number of vertices (ids are `< num_vertices`).
    pub num_vertices: usize,
}

impl EdgeList {
    /// An edge list over `num_vertices` ids with no edges yet.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            edges: Vec::new(),
            num_vertices,
        }
    }

    /// Build from raw pairs; infers `num_vertices` from the largest id and
    /// normalizes. The iterator is consumed in a single pass that tracks the
    /// maximum id while collecting — no second walk over the staged edges.
    /// Panics past the [`crate::MAX_DIRECTED_EDGES`] limit, which
    /// [`EdgeList::try_from_pairs`] returns as an error.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, u32)>) -> Self {
        Self::try_from_pairs(pairs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`EdgeList::from_pairs`] for pairs from outside the program: a list
    /// whose `2 × |E|` directed slots (after normalization) exceed
    /// [`crate::MAX_DIRECTED_EDGES`] is refused with the count.
    pub fn try_from_pairs(
        pairs: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<Self, TooManyEdges> {
        let iter = pairs.into_iter();
        let (lo, _) = iter.size_hint();
        let mut el = Self {
            edges: Vec::with_capacity(lo),
            num_vertices: 0,
        };
        for (u, v) in iter {
            el.num_vertices = el.num_vertices.max(u.max(v) as usize + 1);
            el.edges.push((u, v));
        }
        el.normalize();
        check_edge_count(el.directed_edges())?;
        Ok(el)
    }

    /// Directed edge slots of the CSR this list builds, `2 × |E|` once
    /// normalized (saturating, so an overflow reads as past the limit).
    pub(crate) fn directed_edges(&self) -> usize {
        self.edges.len().saturating_mul(2)
    }

    /// Add one undirected edge; ids may exceed the current vertex count, in
    /// which case the count grows.
    pub fn push(&mut self, u: u32, v: u32) {
        self.num_vertices = self.num_vertices.max(u.max(v) as usize + 1);
        self.edges.push((u, v));
    }

    /// Canonicalize: drop self-loops, orient each edge as `(min, max)`,
    /// sort, and deduplicate parallel edges.
    pub fn normalize(&mut self) {
        self.edges.retain(|&(u, v)| u != v);
        for e in &mut self.edges {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Whether the list is already in canonical form: every edge oriented
    /// as `(min, max)` with `u < v`, sorted, and deduplicated — exactly what
    /// [`EdgeList::normalize`] produces. [`crate::CsrGraph::from_edge_list`]
    /// scatters a list in this form as it stands and canonicalizes a copy
    /// of any other.
    pub fn is_normalized(&self) -> bool {
        self.edges.iter().all(|&(u, v)| u < v) && self.edges.windows(2).all(|w| w[0] < w[1])
    }

    /// Number of undirected edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if there are no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterate over the undirected edges.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.edges.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_normalizes() {
        let el = EdgeList::from_pairs([(2, 1), (1, 2), (3, 3), (0, 4), (4, 0)]);
        assert_eq!(el.edges, vec![(0, 4), (1, 2)]);
        assert_eq!(el.num_vertices, 5);
    }

    #[test]
    fn push_grows_vertex_count() {
        let mut el = EdgeList::new(2);
        el.push(0, 1);
        el.push(5, 3);
        assert_eq!(el.num_vertices, 6);
        el.normalize();
        assert_eq!(el.edges, vec![(0, 1), (3, 5)]);
    }

    #[test]
    fn empty_list() {
        let el = EdgeList::from_pairs(std::iter::empty());
        assert!(el.is_empty());
        assert_eq!(el.num_vertices, 0);
    }

    #[test]
    fn is_normalized_tracks_canonical_form() {
        let mut el = EdgeList::new(4);
        assert!(el.is_normalized(), "empty list is canonical");
        el.push(2, 1);
        assert!(!el.is_normalized(), "reversed orientation");
        el.normalize();
        assert!(el.is_normalized());
        el.push(1, 2);
        assert!(!el.is_normalized(), "duplicate edge");
        el.normalize();
        el.push(0, 1);
        assert!(!el.is_normalized(), "unsorted");
        el.normalize();
        assert!(el.is_normalized());
    }

    #[test]
    fn self_loops_removed() {
        let el = EdgeList::from_pairs([(7, 7), (7, 8)]);
        assert_eq!(el.len(), 1);
        assert_eq!(el.edges[0], (7, 8));
    }
}
