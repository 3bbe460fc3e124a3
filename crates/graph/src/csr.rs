//! Compressed sparse row graph storage (Section 2.1, "Storage Format").
//!
//! A [`CsrGraph`] stores an undirected graph with *both* directions of every
//! edge materialized: `offsets` has length `|V| + 1` and `dst` stores each
//! neighbor list as an ascending run. The paper's edge offset `e(u, v)` is
//! the index into `dst` with `dst[e(u,v)] == v` and
//! `e(u,v) ∈ [offsets[u], offsets[u+1])`; the common-neighbor counts array is
//! indexed by this offset.

use std::borrow::Cow;

use crate::edgelist::EdgeList;
use crate::store::GraphStore;

/// An undirected graph in CSR form with sorted neighbor lists.
///
/// All arrays live behind [`GraphStore`]: owned heap vectors for freshly
/// built graphs, or zero-copy views into an `mmap`ed cache file for warm
/// loads. Every accessor exposes plain slices, so consumers never see the
/// difference.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u+1]` is the slice of `dst` holding `N(u)`.
    offsets: GraphStore<usize>,
    /// Concatenated neighbor lists, each strictly ascending.
    dst: GraphStore<u32>,
    /// Optional reverse-edge index: `rev[e(u,v)] == e(v,u)`. Built once by
    /// the preparation layer ([`CsrGraph::build_reverse_index`]) so the
    /// symmetric-assignment store in the edge-range drivers is an O(1) load
    /// instead of a per-edge binary search.
    rev: Option<GraphStore<usize>>,
}

/// Graph identity is the CSR itself. The reverse index is derived data —
/// `rev` is definitionally a function of `offsets`/`dst` — so two graphs
/// that differ only in whether the index has been built compare equal.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        *self.offsets == *other.offsets && *self.dst == *other.dst
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Build from a normalized-or-not edge list: symmetrizes, sorts and
    /// deduplicates per-vertex neighbor lists.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::from_pair_slice(el.num_vertices, &el.edges)
    }

    /// Build from raw undirected pairs over `n` vertices. Self-loops are
    /// dropped; parallel edges are merged.
    ///
    /// Feeds the iterator straight into a [`CsrBuilder`]: degrees are
    /// counted in the same single pass that canonicalizes each pair, with no
    /// raw staging copy for a second walk.
    pub fn from_undirected_pairs(n: usize, pairs: impl Iterator<Item = (u32, u32)>) -> Self {
        let mut b = CsrBuilder::new(n);
        for (u, v) in pairs {
            b.push(u, v);
        }
        b.finish()
    }

    /// Counting-sort construction over an edge slice: pass 1 counts degrees,
    /// pass 2 scatters. No staging copy of the input is made — peak memory
    /// is the input slice plus the output CSR.
    fn from_pair_slice(n: usize, pairs: &[(u32, u32)]) -> Self {
        let mut deg = vec![0usize; n];
        for &(u, v) in pairs {
            if u == v {
                continue;
            }
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for {n} vertices"
            );
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for u in 0..n {
            offsets[u + 1] = offsets[u] + deg[u];
        }
        let mut dst = vec![0u32; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for &(u, v) in pairs {
            if u == v {
                continue;
            }
            dst[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            dst[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Sort + dedup each run; rebuild offsets if duplicates were removed.
        let mut any_dup = false;
        for u in 0..n {
            let run = &mut dst[offsets[u]..offsets[u + 1]];
            run.sort_unstable();
            if run.windows(2).any(|w| w[0] == w[1]) {
                any_dup = true;
            }
        }
        if any_dup {
            let mut new_dst = Vec::with_capacity(dst.len());
            let mut new_offsets = vec![0usize; n + 1];
            for u in 0..n {
                let run = &dst[offsets[u]..offsets[u + 1]];
                let mut last = None;
                for &x in run {
                    if last != Some(x) {
                        new_dst.push(x);
                        last = Some(x);
                    }
                }
                new_offsets[u + 1] = new_dst.len();
            }
            return Self {
                offsets: new_offsets.into(),
                dst: new_dst.into(),
                rev: None,
            };
        }
        Self {
            offsets: offsets.into(),
            dst: dst.into(),
            rev: None,
        }
    }

    /// Parallel CSR construction for large edge lists: degree counting,
    /// scattering and per-vertex sorting all fan out over rayon. Produces
    /// exactly the same CSR as [`CsrGraph::from_edge_list`].
    ///
    /// The fan-out requires the canonical edge-list form (`u < v`, sorted,
    /// deduplicated); an input that is not [`EdgeList::is_normalized`] is
    /// normalized into an internal copy first instead of silently producing
    /// a corrupt CSR.
    pub fn from_edge_list_parallel(el: &EdgeList) -> Self {
        if !el.is_normalized() {
            let mut owned = el.clone();
            owned.normalize();
            return Self::from_normalized_parallel(&owned);
        }
        Self::from_normalized_parallel(el)
    }

    /// The parallel builder proper; `el` must be normalized.
    fn from_normalized_parallel(el: &EdgeList) -> Self {
        use rayon::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        debug_assert!(el.is_normalized());
        let n = el.num_vertices;
        // Degrees via atomic counters (the edge list is normalized: u < v,
        // no self-loops, no duplicates).
        let deg: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        el.edges.par_iter().for_each(|&(u, v)| {
            deg[u as usize].fetch_add(1, Ordering::Relaxed);
            deg[v as usize].fetch_add(1, Ordering::Relaxed);
        });
        let mut offsets = vec![0usize; n + 1];
        for u in 0..n {
            offsets[u + 1] = offsets[u] + deg[u].load(Ordering::Relaxed);
        }
        // Scatter with atomic cursors.
        let m = offsets[n];
        let cursor: Vec<AtomicUsize> = offsets[..n].iter().map(|&o| AtomicUsize::new(o)).collect();
        let dst_cells: Vec<AtomicUsize> = (0..m).map(|_| AtomicUsize::new(0)).collect();
        el.edges.par_iter().for_each(|&(u, v)| {
            let pu = cursor[u as usize].fetch_add(1, Ordering::Relaxed);
            dst_cells[pu].store(v as usize, Ordering::Relaxed);
            let pv = cursor[v as usize].fetch_add(1, Ordering::Relaxed);
            dst_cells[pv].store(u as usize, Ordering::Relaxed);
        });
        let mut dst: Vec<u32> = dst_cells
            .into_iter()
            .map(|c| c.into_inner() as u32)
            .collect();
        // Sort each neighbor run in parallel.
        let mut runs: Vec<&mut [u32]> = Vec::with_capacity(n);
        let mut rest: &mut [u32] = &mut dst;
        for u in 0..n {
            let len = offsets[u + 1] - offsets[u];
            let (run, tail) = rest.split_at_mut(len);
            runs.push(run);
            rest = tail;
        }
        runs.par_iter_mut().for_each(|run| run.sort_unstable());
        Self {
            offsets: offsets.into(),
            dst: dst.into(),
            rev: None,
        }
    }

    /// Build directly from parts. Panics if the parts are inconsistent.
    pub fn from_parts(offsets: Vec<usize>, dst: Vec<u32>) -> Self {
        Self::try_from_parts(offsets, dst).expect("invalid CSR parts")
    }

    /// Build directly from parts, returning a description of the violated
    /// invariant instead of panicking. This is the constructor for
    /// *untrusted* parts (deserialized files, caches).
    pub fn try_from_parts(offsets: Vec<usize>, dst: Vec<u32>) -> Result<Self, String> {
        Self::try_from_stores(offsets.into(), dst.into())
    }

    /// Build from arbitrary [`GraphStore`] backings (owned or mapped) with
    /// the full invariant check of [`CsrGraph::validate`].
    pub fn try_from_stores(
        offsets: GraphStore<usize>,
        dst: GraphStore<u32>,
    ) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets must have length |V| + 1, got 0".into());
        }
        let g = Self {
            offsets,
            dst,
            rev: None,
        };
        g.validate()?;
        Ok(g)
    }

    /// Build from [`GraphStore`] backings with only the linear-time
    /// [`CsrGraph::validate_structure`] check.
    ///
    /// This is the constructor for *integrity-protected* inputs — mapped
    /// `CNCPREP4` sections whose per-section checksums already verified the
    /// bytes are exactly what [`crate::io::write_csr`]-style serialization of
    /// a valid graph produced. The `O(|E| log d)` symmetry probes of the full
    /// validation are skipped so warm loads stay cheap.
    pub(crate) fn try_from_stores_structural(
        offsets: GraphStore<usize>,
        dst: GraphStore<u32>,
    ) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets must have length |V| + 1, got 0".into());
        }
        let g = Self {
            offsets,
            dst,
            rev: None,
        };
        g.validate_structure()?;
        Ok(g)
    }

    /// Whether both CSR arrays are served zero-copy from a mapped cache
    /// file rather than from heap allocations.
    pub fn storage_mapped(&self) -> bool {
        self.offsets.is_mapped() && self.dst.is_mapped()
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *directed* edge slots (`2 ×` undirected edges). This is the
    /// `|E|` of the paper's CSR and the length of the counts array.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.dst.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_undirected_edges(&self) -> usize {
        self.dst.len() / 2
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// The sorted neighbor list `N(u)`.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.dst[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// The raw offset array (length `|V| + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw neighbor array.
    #[inline]
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Offset range of `u`'s neighbors: `[offsets[u], offsets[u+1])`.
    #[inline]
    pub fn offset_range(&self, u: u32) -> std::ops::Range<usize> {
        self.offsets[u as usize]..self.offsets[u as usize + 1]
    }

    /// The edge offset `e(u, v)`, if `(u, v)` is an edge: binary search of
    /// `v` in `N(u)`.
    pub fn edge_offset(&self, u: u32, v: u32) -> Option<usize> {
        let base = self.offsets[u as usize];
        self.neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|idx| base + idx)
    }

    /// Reverse edge offset `e(v, u)` for a known edge offset `eid = e(u, v)`.
    ///
    /// Used by the symmetric assignment technique
    /// (`cnt[e(v,u)] ← cnt[e(u,v)]`, Section 3). With a precomputed reverse
    /// index (built by the preparation layer) this is a single O(1) array
    /// load; without one it falls back to a binary search of `u` in `N(v)`.
    /// Panics if the reverse edge is absent, which would mean the CSR is not
    /// symmetric.
    #[inline]
    pub fn reverse_offset(&self, u: u32, eid: usize) -> usize {
        if let Some(rev) = &self.rev {
            return rev[eid];
        }
        let v = self.dst[eid];
        self.edge_offset(v, u)
            .expect("CSR must be symmetric: reverse edge missing")
    }

    /// Whether the O(1) reverse-edge index is present.
    #[inline]
    pub fn has_reverse_index(&self) -> bool {
        self.rev.is_some()
    }

    /// The raw reverse-edge index, if built: `rev[e(u,v)] == e(v,u)`.
    #[inline]
    pub fn reverse_index(&self) -> Option<&[usize]> {
        self.rev.as_deref()
    }

    /// The reverse-edge index `rev[e(u,v)] == e(v,u)`: borrowed when built
    /// or attached, otherwise derived in `O(|V| + |E|)` with no searches.
    ///
    /// Walking sources in ascending order visits, for every vertex `v`, the
    /// edges `(u, v)` in ascending `u` — exactly the order of `u` within the
    /// sorted run `N(v)`. A per-vertex cursor starting at `offsets[v]`
    /// therefore hands out each reverse slot exactly once:
    /// `rev[e(u,v)] = cursor[v]++`.
    pub fn reverse_slots(&self) -> Cow<'_, [usize]> {
        if let Some(rev) = self.rev.as_deref() {
            return Cow::Borrowed(rev);
        }
        let n = self.num_vertices();
        let mut rev = vec![0usize; self.dst.len()];
        let mut cursor = self.offsets[..n].to_vec();
        for (eid, &v) in self.dst.iter().enumerate() {
            let v = v as usize;
            rev[eid] = cursor[v];
            cursor[v] += 1;
        }
        debug_assert!((0..n).all(|v| cursor[v] == self.offsets[v + 1]));
        Cow::Owned(rev)
    }

    /// Build and keep the reverse-edge index ([`CsrGraph::reverse_slots`]).
    /// Idempotent; a no-op if already built.
    pub fn build_reverse_index(&mut self) {
        if self.rev.is_none() {
            self.rev = Some(self.reverse_slots().into_owned().into());
        }
    }

    /// Attach an externally stored (deserialized / mapped) reverse index
    /// after verifying, in `O(|E|)`, that every entry points at the true
    /// mirror slot: `rev[eid] ∈ [offsets[v], offsets[v+1])` and
    /// `dst[rev[eid]] == u` for each directed edge `eid = e(u, v)`.
    ///
    /// This is the trust boundary for cache files: section checksums catch
    /// media corruption, this check catches a well-formed file that simply
    /// encodes a wrong permutation.
    pub fn try_attach_reverse_index(&mut self, rev: GraphStore<usize>) -> Result<(), String> {
        if rev.len() != self.dst.len() {
            return Err(format!(
                "reverse index length {} != directed edge count {}",
                rev.len(),
                self.dst.len()
            ));
        }
        for u in 0..self.num_vertices() as u32 {
            for eid in self.offset_range(u) {
                let v = self.dst[eid] as usize;
                let r = rev[eid];
                if r < self.offsets[v] || r >= self.offsets[v + 1] || self.dst[r] != u {
                    return Err(format!(
                        "reverse index corrupt at eid {eid}: rev={r} is not e({v},{u})"
                    ));
                }
            }
        }
        self.rev = Some(rev);
        Ok(())
    }

    /// Source-vertex search `FindSrc` (Algorithm 3 lines 7–15): the vertex
    /// `u` whose offset range contains `eid`, amortized via the caller-owned
    /// stash `u_hint` (the previously found source).
    ///
    /// The stash makes the common case (next edge has the same source) O(1);
    /// otherwise a binary search over the offsets plus a backward scan over
    /// zero-degree vertices finds the owner.
    #[inline]
    pub fn find_src(&self, eid: usize, u_hint: &mut u32) -> u32 {
        debug_assert!(eid < self.dst.len());
        let mut u = *u_hint as usize;
        if eid < self.offsets[u] || eid >= self.offsets[u + 1] {
            // partition_point returns the first index with offsets[i] > eid;
            // the owning vertex is that index - 1, adjusted past zero-degree
            // vertices (whose empty ranges also satisfy offsets[i] == offsets[i+1]).
            u = self.offsets.partition_point(|&o| o <= eid) - 1;
        }
        debug_assert!(
            eid >= self.offsets[u] && eid < self.offsets[u + 1],
            "find_src landed on wrong vertex"
        );
        *u_hint = u as u32;
        u as u32
    }

    /// Check the CSR invariants: monotone offsets, in-range ids, strictly
    /// ascending neighbor runs, no self-loops, and symmetry.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_structure()?;
        let n = self.num_vertices();
        for u in 0..n as u32 {
            for &v in self.neighbors(u) {
                if self.edge_offset(v, u).is_none() {
                    return Err(format!("edge ({u},{v}) not symmetric"));
                }
            }
        }
        Ok(())
    }

    /// The linear-time subset of [`CsrGraph::validate`]: monotone offsets
    /// with correct endpoints, in-range neighbor ids, strictly ascending
    /// runs, no self-loops. Everything except the `O(|E| log d)` symmetry
    /// probes — `O(|V| + |E|)` total, allocation-free.
    pub fn validate_structure(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.offsets.first() != Some(&0) || self.offsets.last() != Some(&self.dst.len()) {
            return Err("offset endpoints broken".into());
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotone".into());
        }
        for u in 0..n as u32 {
            let run = self.neighbors(u);
            if run.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("neighbors of {u} not strictly ascending"));
            }
            for &v in run {
                if v as usize >= n {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
            }
        }
        Ok(())
    }

    /// Iterate `(eid, u, v)` over all directed edge slots.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, u32, u32)> + '_ {
        (0..self.num_vertices() as u32)
            .flat_map(move |u| self.offset_range(u).map(move |eid| (eid, u, self.dst[eid])))
    }

    /// Total bytes of the CSR arrays (the paper's `Mem_CSR`).
    pub fn csr_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>() + self.dst.len() * 4
    }
}

/// Incremental CSR construction from a stream of undirected pairs.
///
/// [`push`](Self::push) canonicalizes each pair (drops self-loops, orients
/// as `(min, max)`) and counts both endpoint degrees on the spot, so the
/// input is walked exactly once and never staged in raw form.
/// [`finish`](Self::finish) sorts the canonical pairs, merges parallel edges
/// (correcting the affected degrees), and scatters both directions through
/// per-vertex cursors. Because the canonical pairs are globally sorted at
/// that point, every neighbor run comes out already ascending — no per-run
/// sort and no duplicate-removal rebuild copy. The streaming preparation
/// pipeline ([`crate::stream`]) uses the same two-pass scatter over
/// externally sorted runs to write CSR sections directly into a mapped
/// cache file.
#[derive(Debug)]
pub struct CsrBuilder {
    n: usize,
    deg: Vec<usize>,
    /// Canonical `(min, max)` pairs; duplicates are resolved in `finish`.
    edges: Vec<(u32, u32)>,
}

impl CsrBuilder {
    /// A builder over `n` vertices with no edges yet.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            deg: vec![0usize; n],
            edges: Vec::new(),
        }
    }

    /// Add one undirected edge. Self-loops are dropped. Panics if either
    /// endpoint is out of range for the declared vertex count.
    pub fn push(&mut self, u: u32, v: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for {} vertices",
            self.n
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.deg[a as usize] += 1;
        self.deg[b as usize] += 1;
        self.edges.push((a, b));
    }

    /// Sort, deduplicate, and scatter into the finished CSR.
    pub fn finish(self) -> CsrGraph {
        let Self {
            n,
            mut deg,
            mut edges,
        } = self;
        edges.sort_unstable();
        edges.dedup_by(|dup, kept| {
            if dup == kept {
                deg[dup.0 as usize] -= 1;
                deg[dup.1 as usize] -= 1;
                true
            } else {
                false
            }
        });
        let mut offsets = vec![0usize; n + 1];
        for u in 0..n {
            offsets[u + 1] = offsets[u] + deg[u];
        }
        let mut dst = vec![0u32; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for &(u, v) in &edges {
            dst[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            dst[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Scattering globally sorted canonical edges leaves each run already
        // ascending: for vertex w, the backward neighbors u < w arrive first
        // (edges (u, w) sorted by u), then the forward neighbors (w, v) in v
        // order, and every backward value is < w < every forward value.
        debug_assert!((0..n).all(|u| {
            dst[offsets[u]..offsets[u + 1]]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        CsrGraph {
            offsets: offsets.into(),
            dst: dst.into(),
            rev: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 0-2, 1-2 (triangle), 2-3 (tail)
        CsrGraph::from_edge_list(&EdgeList::from_pairs([(0, 1), (0, 2), (1, 2), (2, 3)]))
    }

    #[test]
    fn basic_shape() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_undirected_edges(), 4);
        assert_eq!(g.num_directed_edges(), 8);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_and_self_loop_input() {
        let g = CsrGraph::from_undirected_pairs(
            3,
            [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)].into_iter(),
        );
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
        g.validate().unwrap();
    }

    #[test]
    fn edge_offset_and_reverse() {
        let g = triangle_plus_tail();
        let e02 = g.edge_offset(0, 2).unwrap();
        assert_eq!(g.dst()[e02], 2);
        let e20 = g.reverse_offset(0, e02);
        assert_eq!(g.dst()[e20], 0);
        assert!(g.offset_range(2).contains(&e20));
        assert_eq!(g.edge_offset(0, 3), None);
    }

    #[test]
    fn reverse_index_matches_binary_search_everywhere() {
        use crate::generators;
        for el in [
            generators::gnm(120, 500, 11),
            generators::hub_web(150, 5.0, 2, 0.4, 6),
            EdgeList::from_pairs([(0, 1), (0, 2), (1, 2), (2, 3)]),
            EdgeList::new(0),
            EdgeList::new(7),
        ] {
            let searched = CsrGraph::from_edge_list(&el);
            let mut indexed = searched.clone();
            indexed.build_reverse_index();
            assert!(indexed.has_reverse_index());
            assert!(!searched.has_reverse_index());
            for (eid, u, v) in searched.iter_edges().collect::<Vec<_>>() {
                let want = searched.reverse_offset(u, eid);
                assert_eq!(indexed.reverse_offset(u, eid), want, "eid={eid}");
                assert_eq!(indexed.dst()[want], u);
                assert!(indexed.offset_range(v).contains(&want));
            }
            // Derived data is excluded from graph identity.
            assert_eq!(indexed, searched);
            // Idempotent.
            let before = indexed.reverse_index().unwrap().to_vec();
            indexed.build_reverse_index();
            assert_eq!(indexed.reverse_index().unwrap(), &before[..]);
        }
    }

    #[test]
    fn attach_reverse_index_validates_entries() {
        let g0 = triangle_plus_tail();
        let mut built = g0.clone();
        built.build_reverse_index();
        let good = built.reverse_index().unwrap().to_vec();

        // The genuine index attaches.
        let mut g = g0.clone();
        g.try_attach_reverse_index(good.clone().into()).unwrap();
        assert!(g.has_reverse_index());

        // Wrong length is rejected.
        let mut g = g0.clone();
        assert!(g
            .try_attach_reverse_index(good[1..].to_vec().into())
            .is_err());

        // A swapped pair of entries no longer mirrors: rejected.
        let mut bad = good.clone();
        bad.swap(0, 1);
        let mut g = g0.clone();
        let err = g.try_attach_reverse_index(bad.into()).unwrap_err();
        assert!(err.contains("reverse index corrupt"), "{err}");
        assert!(!g.has_reverse_index());

        // An out-of-run entry is rejected even if dst there matches nothing.
        let mut bad = good;
        bad[0] = g0.num_directed_edges() - 1;
        let mut g = g0;
        assert!(g.try_attach_reverse_index(bad.into()).is_err());
    }

    #[test]
    fn find_src_with_and_without_hint() {
        let g = triangle_plus_tail();
        let mut hint = 0u32;
        for (eid, u, _v) in g.iter_edges().collect::<Vec<_>>() {
            assert_eq!(g.find_src(eid, &mut hint), u, "eid={eid}");
        }
        // Cold hint pointing far away still works.
        let mut cold = 3u32;
        assert_eq!(g.find_src(0, &mut cold), 0);
        assert_eq!(cold, 0);
    }

    #[test]
    fn find_src_skips_zero_degree_vertices() {
        // Vertex 1 is isolated: 0-2, 2-3.
        let g = CsrGraph::from_undirected_pairs(4, [(0, 2), (2, 3)].into_iter());
        assert_eq!(g.degree(1), 0);
        let mut hint = 0u32;
        for (eid, u, _) in g.iter_edges().collect::<Vec<_>>() {
            let mut cold = 0u32;
            assert_eq!(g.find_src(eid, &mut cold), u, "cold eid={eid}");
            assert_eq!(g.find_src(eid, &mut hint), u, "warm eid={eid}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_directed_edges(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn vertices_with_no_edges_at_ends() {
        let g = CsrGraph::from_undirected_pairs(6, [(2, 3)].into_iter());
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(5), 0);
        g.validate().unwrap();
        let mut hint = 0u32;
        assert_eq!(g.find_src(0, &mut hint), 2);
        assert_eq!(g.find_src(1, &mut hint), 3);
    }

    #[test]
    fn iter_edges_covers_all_slots() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges.len(), g.num_directed_edges());
        for (eid, u, v) in edges {
            assert_eq!(g.dst()[eid], v);
            assert!(g.offset_range(u).contains(&eid));
        }
    }

    #[test]
    fn parallel_builder_matches_sequential() {
        use crate::generators;
        for el in [
            generators::gnm(300, 1200, 4),
            generators::chung_lu(200, 10.0, 2.2, 5),
            generators::hub_web(150, 5.0, 2, 0.4, 6),
            EdgeList::new(0),
            EdgeList::new(10),
        ] {
            let seq = CsrGraph::from_edge_list(&el);
            let par = CsrGraph::from_edge_list_parallel(&el);
            assert_eq!(seq, par);
            par.validate().unwrap();
        }
    }

    #[test]
    fn parallel_builder_normalizes_raw_input() {
        // Reversed orientation, duplicates, a self-loop, unsorted — the
        // parallel builder must still agree with the sequential one.
        let mut el = EdgeList::new(5);
        for &(u, v) in &[(3, 1), (1, 3), (2, 2), (4, 0), (0, 1), (0, 1)] {
            el.push(u, v);
        }
        assert!(!el.is_normalized());
        let par = CsrGraph::from_edge_list_parallel(&el);
        let seq = CsrGraph::from_edge_list(&el);
        assert_eq!(par, seq);
        par.validate().unwrap();
    }

    #[test]
    fn try_from_parts_rejects_inconsistent_parts() {
        assert!(CsrGraph::try_from_parts(vec![], vec![]).is_err());
        // Endpoint broken: last offset != dst.len().
        assert!(CsrGraph::try_from_parts(vec![0, 2], vec![1]).is_err());
        // Non-monotone offsets.
        assert!(CsrGraph::try_from_parts(vec![0, 2, 1, 3], vec![1, 2, 0]).is_err());
        // Asymmetric edge: 0 lists 1 but 1 does not list 0.
        assert!(CsrGraph::try_from_parts(vec![0, 1, 1], vec![1]).is_err());
        // A valid pair round-trips.
        let g = triangle_plus_tail();
        let ok = CsrGraph::try_from_parts(g.offsets().to_vec(), g.dst().to_vec()).unwrap();
        assert_eq!(ok, g);
    }

    #[test]
    fn csr_bytes_formula() {
        let g = triangle_plus_tail();
        assert_eq!(g.csr_bytes(), 5 * 8 + 8 * 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = CsrGraph::from_undirected_pairs(2, [(0, 5)].into_iter());
    }

    #[test]
    fn builder_matches_slice_path_on_messy_input() {
        use crate::generators;
        // Raw inputs with loops, duplicates and reversed orientations: the
        // single-pass builder must agree exactly with the slice-based path.
        let messy: Vec<(u32, u32)> = vec![(3, 1), (1, 3), (2, 2), (4, 0), (0, 1), (0, 1), (1, 0)];
        let a = CsrGraph::from_undirected_pairs(5, messy.iter().copied());
        let b = CsrGraph::from_pair_slice(5, &messy);
        assert_eq!(a, b);
        a.validate().unwrap();

        for el in [
            generators::gnm(200, 900, 3),
            generators::chung_lu(150, 9.0, 2.2, 8),
        ] {
            let a = CsrGraph::from_undirected_pairs(el.num_vertices, el.iter());
            let b = CsrGraph::from_edge_list(&el);
            assert_eq!(a, b);
        }
    }
}
