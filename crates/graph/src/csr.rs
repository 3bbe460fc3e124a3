//! Compressed sparse row graph storage (Section 2.1, "Storage Format").
//!
//! A [`CsrGraph`] stores an undirected graph with *both* directions of every
//! edge materialized: `offsets` has length `|V| + 1` and `dst` stores each
//! neighbor list as an ascending run. The paper's edge offset `e(u, v)` is
//! the index into `dst` with `dst[e(u,v)] == v` and
//! `e(u,v) ∈ [offsets[u], offsets[u+1])`; the common-neighbor counts array is
//! indexed by this offset.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::convert::Infallible;
use std::{fmt, io};

use crate::edgelist::EdgeList;
use crate::mmap::Pod;
use crate::store::GraphStore;

/// The most directed edge slots a graph may hold, `u32::MAX`: every slot
/// index is then a `u32`, the width of the reverse index.
pub const MAX_DIRECTED_EDGES: usize = u32::MAX as usize;

/// A graph refused at ingest for holding more than [`MAX_DIRECTED_EDGES`]
/// directed edge slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyEdges {
    /// The directed edge slots the graph would hold.
    pub directed_edges: usize,
}

impl fmt::Display for TooManyEdges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} directed edge slots exceed the limit of {MAX_DIRECTED_EDGES} (u32 edge-slot indexes)",
            self.directed_edges
        )
    }
}

impl std::error::Error for TooManyEdges {}

impl From<TooManyEdges> for io::Error {
    fn from(e: TooManyEdges) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// The one check of the `|E|` limit: a graph of `directed_edges` slots
/// must hold at most [`MAX_DIRECTED_EDGES`]. Every reader of outside input
/// returns its error; the infallible constructors panic with its message.
pub(crate) fn check_edge_count(directed_edges: usize) -> Result<(), TooManyEdges> {
    if directed_edges > MAX_DIRECTED_EDGES {
        return Err(TooManyEdges { directed_edges });
    }
    Ok(())
}

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
    /// Reverse-edge index: `rev[e(u,v)] == e(v,u)`, one `u32` per slot (the
    /// [`MAX_DIRECTED_EDGES`] limit). Every constructor fills it (the heap
    /// builders, by the cursor walk [`fill_reverse`]) or checks it entry by
    /// entry (the image loaders), so the symmetric assignment's mirror
    /// lookup is one load.
    rev: GraphStore<u32>,
}

/// Graph identity is the CSR itself. The reverse index is derived data —
/// `rev` is definitionally a function of `offsets`/`dst` — so only those
/// two arrays are compared.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        *self.offsets == *other.offsets && *self.dst == *other.dst
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Build from an edge list. A normalized list (every generator's output)
    /// is scattered as it stands; any other is canonicalized first, as
    /// [`CsrGraph::from_undirected_pairs`] does.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        if el.is_normalized() {
            Self::from_sorted_pairs(el.num_vertices, &el.edges)
        } else {
            Self::from_undirected_pairs(el.num_vertices, el.iter())
        }
    }

    /// Build from raw undirected pairs over `n` vertices. Self-loops are
    /// dropped; parallel edges are merged. Panics if an endpoint is out of
    /// range for `n`, or past the [`MAX_DIRECTED_EDGES`] limit.
    pub fn from_undirected_pairs(n: usize, pairs: impl Iterator<Item = (u32, u32)>) -> Self {
        let mut canonical: Vec<(u32, u32)> = pairs
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        canonical.sort_unstable();
        canonical.dedup();
        Self::from_sorted_pairs(n, &canonical)
    }

    /// The one heap builder: sorted, deduplicated canonical pairs (`u < v`)
    /// → degrees → offsets → one cursor scatter. The streaming writer
    /// ([`crate::stream`]) runs the same fillers over its mapped sections.
    pub(crate) fn from_sorted_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let infallible = || pairs.iter().copied().map(Ok::<_, Infallible>);
        let Ok(deg) = count_degrees(n, infallible());
        let mut offsets = vec![0usize; n + 1];
        fill_offsets(&mut offsets, deg.iter().map(|&d| d as usize));
        check_edge_count(offsets[n]).unwrap_or_else(|e| panic!("{e}"));
        let mut dst = vec![0u32; offsets[n]];
        let Ok(()) = scatter_sorted(&offsets, &mut dst, infallible());
        Self::from_filled(offsets, dst)
    }

    /// Wrap arrays the fillers of this module (or [`crate::reorder`]) just
    /// wrote and fill their reverse index: valid by construction, so only
    /// debug builds re-check them.
    pub(crate) fn from_filled(offsets: Vec<usize>, dst: Vec<u32>) -> Self {
        let mut rev = vec![0u32; dst.len()];
        fill_reverse(&offsets, &dst, &mut rev);
        let g = Self {
            offsets: offsets.into(),
            dst: dst.into(),
            rev: rev.into(),
        };
        debug_assert_eq!(g.validate_structure(), Ok(()));
        g
    }

    /// Build directly from parts. Panics if the parts are inconsistent or
    /// hold more than [`MAX_DIRECTED_EDGES`] slots.
    pub fn from_parts(offsets: Vec<usize>, dst: Vec<u32>) -> Self {
        Self::try_from_parts(offsets, dst).expect("invalid CSR parts")
    }

    /// Build directly from parts, returning a description of the violated
    /// invariant instead of panicking. This is the constructor for
    /// *untrusted* parts (deserialized files, caches): the
    /// [`MAX_DIRECTED_EDGES`] limit, the full [`CsrGraph::validate`], then
    /// the reverse index by the cursor walk, which is exact because
    /// `validate` proved the CSR symmetric.
    pub fn try_from_parts(offsets: Vec<usize>, dst: Vec<u32>) -> Result<Self, String> {
        let mut g = Self::unindexed(offsets.into(), dst.into())?;
        g.validate()?;
        let mut rev = vec![0u32; g.dst.len()];
        fill_reverse(&g.offsets, &g.dst, &mut rev);
        g.rev = rev.into();
        Ok(g)
    }

    /// Build from the three stored sections of an image — offsets,
    /// neighbors and reverse index, owned or mapped. `check` is
    /// [`CsrGraph::validate`] for untrusted bytes, or the linear-time
    /// [`CsrGraph::validate_structure`] for mapped `CNCPREP5` sections whose
    /// checksums already verified them, sparing warm loads the
    /// `O(|E| log d)` symmetry probes. Then every reverse entry must point at
    /// its true mirror slot, `rev[e(u,v)] ∈ [offsets[v], offsets[v+1])` with
    /// `dst[rev[e(u,v)]] == u`, checked in `O(|E|)`: section checksums catch
    /// media corruption, this check a well-formed file that encodes a wrong
    /// permutation.
    pub(crate) fn try_from_sections(
        offsets: GraphStore<usize>,
        dst: GraphStore<u32>,
        rev: GraphStore<u32>,
        check: fn(&Self) -> Result<(), String>,
    ) -> Result<Self, String> {
        let inconsistent = |e| format!("inconsistent CSR: {e}");
        let mut g = Self::unindexed(offsets, dst).map_err(inconsistent)?;
        check(&g).map_err(inconsistent)?;
        g.check_reverse_index(&rev)
            .map_err(|e| format!("inconsistent reverse index: {e}"))?;
        g.rev = rev;
        Ok(g)
    }

    /// The arrays of a graph whose reverse index the calling constructor
    /// fills or checks before it returns the graph, within the
    /// [`MAX_DIRECTED_EDGES`] limit.
    fn unindexed(offsets: GraphStore<usize>, dst: GraphStore<u32>) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets must have length |V| + 1, got 0".into());
        }
        check_edge_count(dst.len()).map_err(|e| e.to_string())?;
        Ok(Self {
            offsets,
            dst,
            rev: Vec::new().into(),
        })
    }

    /// Whether `rev` maps every directed edge slot `e(u, v)` to `e(v, u)`.
    fn check_reverse_index(&self, rev: &[u32]) -> Result<(), String> {
        if rev.len() != self.dst.len() {
            return Err(format!(
                "reverse index length {} != directed edge count {}",
                rev.len(),
                self.dst.len()
            ));
        }
        for u in self.vertex_ids() {
            for eid in self.offset_range(u) {
                let v = self.dst[eid] as usize;
                let r = rev[eid] as usize;
                if r < self.offsets[v] || r >= self.offsets[v + 1] || self.dst[r] != u {
                    return Err(format!(
                        "reverse index corrupt at eid {eid}: rev={r} is not e({v},{u})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether every array — offsets, neighbors and reverse index — is
    /// served zero-copy from a mapped cache file rather than from heap
    /// allocations.
    pub fn storage_mapped(&self) -> bool {
        self.offsets.is_mapped() && self.dst.is_mapped() && self.rev.is_mapped()
    }

    /// Bytes of this graph served in place out of a mapped file: the
    /// offsets, neighbors and reverse index, each counted when mapped.
    pub(crate) fn mapped_bytes(&self) -> usize {
        fn mapped<T: Pod>(store: &GraphStore<T>) -> usize {
            if store.is_mapped() {
                std::mem::size_of_val(store.as_slice())
            } else {
                0
            }
        }
        mapped(&self.offsets) + mapped(&self.dst) + mapped(&self.rev)
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Every vertex id, `0..|V|`.
    pub(crate) fn vertex_ids(&self) -> std::ops::Range<u32> {
        0..u32::try_from(self.num_vertices()).expect("vertex ids are u32")
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

    /// Reverse edge offset `e(v, u)` for a known edge offset `eid = e(u, v)`:
    /// one 4-byte load of the reverse index.
    ///
    /// Used by the symmetric assignment technique
    /// (`cnt[e(v,u)] ← cnt[e(u,v)]`, Section 3), where the paper finds the
    /// mirror slot by a binary search of `u` in `N(v)`.
    #[inline]
    pub fn reverse_offset(&self, eid: usize) -> usize {
        self.rev[eid] as usize
    }

    /// The symmetric assignment as one pass after counting (the final step
    /// of Algorithm 4): fill every `u > v` slot from its `u < v` twin,
    /// `counts[e(u, v)] = counts[e(v, u)]`. Only the `u < v` slots need to
    /// hold counts beforehand. Panics unless `counts` has one value per
    /// directed edge slot.
    pub fn mirror_counts(&self, counts: &mut [u32]) {
        assert_eq!(counts.len(), self.dst.len(), "one count per edge slot");
        for (eid, u, v) in self.iter_edges() {
            if u > v {
                counts[eid] = counts[self.reverse_offset(eid)];
            }
        }
    }

    /// The reverse-edge index: `rev[e(u,v)] == e(v,u)`.
    #[inline]
    pub fn reverse_index(&self) -> &[u32] {
        &self.rev
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
        let hint = *u_hint as usize;
        if eid < self.offsets[hint] || eid >= self.offsets[hint + 1] {
            // partition_point returns the first index with offsets[i] > eid;
            // the owning vertex is that index - 1, adjusted past zero-degree
            // vertices (whose empty ranges also satisfy offsets[i] == offsets[i+1]).
            let u = self.offsets.partition_point(|&o| o <= eid) - 1;
            *u_hint = u32::try_from(u).expect("vertex ids are u32");
        }
        debug_assert!(
            self.offset_range(*u_hint).contains(&eid),
            "find_src landed on wrong vertex"
        );
        *u_hint
    }

    /// Check the CSR invariants: monotone offsets, in-range ids, strictly
    /// ascending neighbor runs, no self-loops, and symmetry.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_structure()?;
        for u in self.vertex_ids() {
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
        for u in self.vertex_ids() {
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
        self.vertex_ids()
            .flat_map(move |u| self.offset_range(u).map(move |eid| (eid, u, self.dst[eid])))
    }

    /// Total bytes of the CSR arrays (the paper's `Mem_CSR`).
    pub fn csr_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>() + self.dst.len() * 4
    }
}

/// Degrees of `n` vertices over sorted canonical pairs: one count per
/// endpoint. The one range check of both builders; its panic message names
/// the pair.
pub(crate) fn count_degrees<E>(
    n: usize,
    pairs: impl IntoIterator<Item = Result<(u32, u32), E>>,
) -> Result<Vec<u32>, E> {
    let mut deg = vec![0u32; n];
    for pair in pairs {
        let (u, v) = pair?;
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u},{v}) out of range for {n} vertices"
        );
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    Ok(deg)
}

/// Offsets from degrees: `offsets[0] = 0` and `offsets[u + 1] = offsets[u]
/// + degree(u)`.
pub(crate) fn fill_offsets(offsets: &mut [usize], degrees: impl IntoIterator<Item = usize>) {
    let mut acc = 0usize;
    offsets[0] = 0;
    for (slot, d) in offsets[1..].iter_mut().zip(degrees) {
        acc += d;
        *slot = acc;
    }
}

/// The cursor scatter: place both directions of every pair through one
/// per-vertex cursor array started at `offsets`.
///
/// The pairs must be canonical (`u < v`), sorted and deduplicated. Then
/// every neighbor run comes out ascending with no per-run sort: for vertex
/// `w`, the backward neighbors `u < w` arrive first (pairs `(u, w)` in `u`
/// order), then the forward neighbors `(w, v)` in `v` order, and every
/// backward value is `< w <` every forward value.
pub(crate) fn scatter_sorted<E>(
    offsets: &[usize],
    dst: &mut [u32],
    pairs: impl IntoIterator<Item = Result<(u32, u32), E>>,
) -> Result<(), E> {
    let mut cursor = offsets[..offsets.len() - 1].to_vec();
    for pair in pairs {
        let (u, v) = pair?;
        dst[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        dst[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }
    debug_assert!(cursor.iter().zip(&offsets[1..]).all(|(c, end)| c == end));
    Ok(())
}

/// The reverse-index cursor walk: `rev[e(u,v)] = e(v,u)` in `O(|V| + |E|)`
/// with no searches.
///
/// Walking sources in ascending order visits, for every vertex `v`, the
/// edges `(u, v)` in ascending `u` — exactly the order of `u` within the
/// sorted run `N(v)`. A per-vertex cursor starting at `offsets[v]`
/// therefore hands out each reverse slot exactly once:
/// `rev[e(u,v)] = cursor[v]++`. The slots fit `u32` because every
/// constructor checks the [`MAX_DIRECTED_EDGES`] limit before it fills.
pub(crate) fn fill_reverse(offsets: &[usize], dst: &[u32], rev: &mut [u32]) {
    let mut cursor: Vec<u32> = offsets[..offsets.len() - 1]
        .iter()
        .map(|&o| u32::try_from(o).expect("edge slots are u32: the |E| limit is checked first"))
        .collect();
    for (slot, &v) in rev.iter_mut().zip(dst) {
        *slot = cursor[v as usize];
        cursor[v as usize] += 1;
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
        let e20 = g.reverse_offset(e02);
        assert_eq!(g.dst()[e20], 0);
        assert!(g.offset_range(2).contains(&e20));
        assert_eq!(g.edge_offset(0, 3), None);
    }

    /// The graph `el` describes, as every constructor and loader builds
    /// it, each with the name of its path.
    fn every_construction(el: &EdgeList) -> Vec<(&'static str, CsrGraph)> {
        use crate::{io, prepare, reorder, PreparedGraph, ReorderPolicy};
        let built = CsrGraph::from_edge_list(el);
        let flipped = el.iter().map(|(u, v)| (v, u));
        let mut bin = Vec::new();
        io::write_csr(&built, &mut bin).unwrap();
        let pg = PreparedGraph::from_csr(built.clone(), ReorderPolicy::DegreeDescending);
        let mut image = Vec::new();
        prepare::write_prepared(&pg, &mut image).unwrap();
        let read = prepare::read_prepared(image.as_slice()).unwrap();
        let mut all = vec![
            (
                "from_undirected_pairs",
                CsrGraph::from_undirected_pairs(el.num_vertices, flipped),
            ),
            (
                "from_parts",
                CsrGraph::from_parts(built.offsets().to_vec(), built.dst().to_vec()),
            ),
            ("relabel", reorder::degree_descending(&built).graph),
            ("read_csr", io::read_csr(bin.as_slice()).unwrap()),
            ("read_prepared", read.graph().clone()),
            (
                "read_prepared, relabeled",
                read.reordered().unwrap().graph.clone(),
            ),
        ];
        #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "cnc-csr-rev-{}-{}.prep",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, &image).unwrap();
            let mapped = prepare::map_prepared(&path).unwrap();
            all.push(("map_prepared", mapped.graph().clone()));
            all.push((
                "map_prepared, relabeled",
                mapped.reordered().unwrap().graph.clone(),
            ));
            for (what, reorder) in [
                ("map_execution_csr", false),
                ("map_execution_csr, relabeled", true),
            ] {
                all.push((what, prepare::map_execution_csr(&path, reorder).unwrap()));
            }
            std::fs::remove_file(&path).unwrap();
        }
        all.push(("from_edge_list", built));
        all
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
            for (what, g) in every_construction(&el) {
                let rev = g.reverse_index();
                assert_eq!(rev.len(), g.num_directed_edges(), "{what}");
                for (eid, u, v) in g.iter_edges() {
                    let r = rev[eid] as usize;
                    assert_eq!(Some(r), g.edge_offset(v, u), "{what}: eid={eid}");
                    assert_eq!(g.reverse_offset(eid), r, "{what}: eid={eid}");
                }
            }
        }
    }

    #[test]
    fn mirror_counts_fills_every_upper_slot_from_its_twin() {
        use crate::generators;
        for el in [
            generators::hub_web(150, 5.0, 2, 0.4, 6),
            EdgeList::from_pairs([(0, 1), (0, 2), (1, 2), (2, 3)]),
            EdgeList::new(3),
        ] {
            let g = CsrGraph::from_edge_list(&el);
            // A `u < v` slot sits before its twin, so after the pass every
            // slot holds the smaller offset of its pair.
            let mut counts: Vec<u32> = g
                .iter_edges()
                .map(|(eid, u, v)| if u < v { eid as u32 } else { u32::MAX })
                .collect();
            g.mirror_counts(&mut counts);
            for (eid, ..) in g.iter_edges() {
                let pair_min = eid.min(g.reverse_offset(eid));
                assert_eq!(counts[eid] as usize, pair_min, "eid={eid}");
            }
        }
    }

    #[test]
    fn sections_with_a_corrupt_reverse_index_are_refused() {
        // Rows: N(0) = [1, 2] at slots 0-1, N(1) = [0, 2] at 2-3,
        // N(2) = [0, 1, 3] at 4-6, N(3) = [2] at 7.
        let g = triangle_plus_tail();
        let good = g.reverse_index().to_vec();
        let corrupt = |eid: usize, r: u32| {
            let mut rev = good.clone();
            rev[eid] = r;
            rev
        };
        // e(0,2) and e(1,2) swap mirrors: slot 5 lies in row 2 but holds
        // 1, not 0.
        let mut swapped = good.clone();
        swapped.swap(1, 3);
        let cases = [
            (good[1..].to_vec(), "length 7 != directed edge count 8"),
            (swapped, "corrupt at eid 1: rev=5 is not e(2,0)"),
            // Slot 4 holds 0, but lies in row 2, not in e(0,1)'s row 1.
            (corrupt(0, 4), "corrupt at eid 0: rev=4 is not e(1,0)"),
            (corrupt(0, u32::MAX), "corrupt at eid 0"),
        ];
        for check in [CsrGraph::validate, CsrGraph::validate_structure] {
            let load = |rev: &[u32]| {
                let (offsets, dst) = (g.offsets().to_vec(), g.dst().to_vec());
                CsrGraph::try_from_sections(offsets.into(), dst.into(), rev.to_vec().into(), check)
            };
            assert_eq!(load(&good).unwrap().reverse_index(), &good[..]);
            for (rev, want) in &cases {
                let err = load(rev).unwrap_err();
                let want = format!("inconsistent reverse index: reverse index {want}");
                assert!(err.starts_with(&want), "{err}");
            }
        }
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

    /// The one `|E|` check at its boundary. No test builds a graph that
    /// big: `u32::MAX` directed slots need 16 GiB of neighbor ids.
    #[test]
    fn edge_limit_is_u32_max_directed_slots() {
        assert_eq!(MAX_DIRECTED_EDGES, 4_294_967_295);
        assert_eq!(check_edge_count(0), Ok(()));
        assert_eq!(check_edge_count(MAX_DIRECTED_EDGES), Ok(()));
        let over = MAX_DIRECTED_EDGES + 1;
        let err = check_edge_count(over).unwrap_err();
        assert_eq!(
            err,
            TooManyEdges {
                directed_edges: over
            }
        );
        let msg = "4294967296 directed edge slots exceed the limit of 4294967295";
        assert!(err.to_string().starts_with(msg), "{err}");
        let io_err = io::Error::from(err);
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(io_err.to_string(), err.to_string());
        let typed = io_err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TooManyEdges>());
        assert_eq!(typed, Some(&err), "the io error carries the typed one");
        assert!(check_edge_count(usize::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = CsrGraph::from_undirected_pairs(2, [(0, 5)].into_iter());
    }
}
