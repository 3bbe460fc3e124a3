//! The preparation layer: compute reorder / statistics / partitioning
//! inputs **once**, share them everywhere.
//!
//! The paper's preprocessing — degree-descending relabeling for BMP's
//! `O(min(d_u, d_v))` bound, the degree-skew statistic that picks MPS's
//! pivot-skip partition, and the Table 1 size statistics — is a one-time
//! cost amortized over every edge intersection (Section 2.1). This module
//! makes that amortization real: a [`PreparedGraph`] runs the whole pipeline
//!
//! ```text
//! edge list → CSR (one cursor scatter of sorted canonical pairs)
//!           → optional degree-descending reorder (per-row relabel) + remap tables
//!           → reverse-edge index (cursor walk)
//!           → GraphStats + skew percentage + capacity scale
//! ```
//!
//! exactly once and hands the result out as an immutable `Arc`, so the
//! runner, every backend, and the repro harness consume the same prepared
//! data by reference instead of re-deriving it per call.
//!
//! Two cache levels make the *second* preparation of a dataset free:
//!
//! * a process-wide in-memory cache keyed by `(dataset, scale, reorder
//!   policy)` — see [`prepared`];
//! * a versioned on-disk binary cache (default `results/cache/`, override
//!   with `CNC_CACHE_DIR`) in the **`CNCPREP5`** format: a fixed 64-byte
//!   header followed by 64-byte-aligned, length-prefixed, checksummed
//!   sections holding the CSR arrays (u64 little-endian offsets, u32
//!   neighbors), the precomputed reverse-edge index `rev[e(u,v)] = e(v,u)`
//!   (u32 LE) that makes the drivers' symmetric-assignment store O(1), and
//!   the remap table. A warm load `mmap`s the file and serves
//!   the offset/adjacency/reverse arrays **zero-copy** straight out of the
//!   page cache ([`map_prepared`]); platforms or files that cannot be mapped
//!   fall back to an owned heap read, and stale (an older `CNCPREP` version),
//!   corrupt or misaligned files are silently discarded and rebuilt.
//!
//! The cache is safe to share across processes: writers serialize through an
//! advisory `flock` on [`CACHE_LOCK_FILE`] (the losers of a populate race
//! load the winner's file instead of rewriting it), files appear atomically
//! via write-once temp names + rename, live readers hold a shared lock on
//! their mapped file, and [`cache_gc`] evicts least-recently-used files down
//! to a byte budget without ever touching a reader-locked file
//! (automatically after each write when `CNC_CACHE_MAX_BYTES` is set).
//!
//! Preparation work is observable through per-thread [`PrepareMetrics`]
//! counters ([`metrics`]): tests prove single-shot preprocessing with them
//! and the `repro` binary reports them as cache evidence.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

use crate::codec::{DecodeError, Reader, Writer};
use crate::csr::CsrGraph;
use crate::datasets::{Dataset, Scale};
use crate::edgelist::EdgeList;
use crate::mmap::{self, FileLock, MappedFile};
use crate::reorder::{self, Reordered};
use crate::stats::{skew_percentage, GraphStats, SKEW_THRESHOLD};
use crate::stream;

/// Which relabeling the preparation pipeline applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReorderPolicy {
    /// Keep the graph's own vertex ids (merge-family algorithms).
    None,
    /// Degree-descending relabel with remap tables (BMP's required
    /// preprocessing; harmless for the others).
    DegreeDescending,
}

impl ReorderPolicy {
    /// Stable tag used in cache file names.
    pub fn tag(self) -> &'static str {
        match self {
            ReorderPolicy::None => "none",
            ReorderPolicy::DegreeDescending => "degdesc",
        }
    }

    pub(crate) fn byte(self) -> u8 {
        match self {
            ReorderPolicy::None => 0,
            ReorderPolicy::DegreeDescending => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ReorderPolicy::None),
            1 => Some(ReorderPolicy::DegreeDescending),
            _ => None,
        }
    }
}

/// Per-thread tallies of preparation work. Snapshots are cheap; diff two
/// with [`PrepareMetrics::since`] to prove how much preprocessing a code
/// path performed (the counters only ever increase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrepareMetrics {
    /// Edge-list → CSR constructions (dataset generation included).
    pub graph_builds: u64,
    /// Degree-descending relabels performed.
    pub reorders: u64,
    /// In-memory prepared-graph cache hits.
    pub mem_hits: u64,
    /// On-disk prepared-graph cache hits (mapped or owned-fallback loads).
    pub disk_hits: u64,
    /// On-disk prepared-graph cache writes.
    pub disk_writes: u64,
    /// Zero-copy loads: cache files served through `mmap` with no heap copy
    /// of the CSR arrays.
    pub mmap_hits: u64,
    /// Total bytes served zero-copy across all `mmap_hits`: the sizes of
    /// every section a load serves in place (each mapped CSR's offsets,
    /// adjacency and reverse index; the remap table is read to the heap).
    pub bytes_mapped: u64,
    /// External-sort spill runs written by the streaming preparation
    /// pipeline ([`crate::stream`]); 0 when inputs fit the memory budget.
    pub spill_runs: u64,
    /// Bytes written to spill run files by the streaming preparation.
    pub spill_bytes: u64,
    /// Fixed-size input chunks consumed by the streaming edge readers.
    pub stream_chunks: u64,
    /// Peak accounted heap bytes of the streaming builder. Each streamed
    /// build adds its own peak once (counters only ever increase), so a
    /// single-build run reads the bound directly.
    pub peak_resident_bytes: u64,
}

impl PrepareMetrics {
    const ZERO: PrepareMetrics = PrepareMetrics {
        graph_builds: 0,
        reorders: 0,
        mem_hits: 0,
        disk_hits: 0,
        disk_writes: 0,
        mmap_hits: 0,
        bytes_mapped: 0,
        spill_runs: 0,
        spill_bytes: 0,
        stream_chunks: 0,
        peak_resident_bytes: 0,
    };

    /// The work done between `earlier` and `self` (component-wise
    /// saturating difference).
    pub fn since(&self, earlier: &PrepareMetrics) -> PrepareMetrics {
        PrepareMetrics {
            graph_builds: self.graph_builds.saturating_sub(earlier.graph_builds),
            reorders: self.reorders.saturating_sub(earlier.reorders),
            mem_hits: self.mem_hits.saturating_sub(earlier.mem_hits),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            disk_writes: self.disk_writes.saturating_sub(earlier.disk_writes),
            mmap_hits: self.mmap_hits.saturating_sub(earlier.mmap_hits),
            bytes_mapped: self.bytes_mapped.saturating_sub(earlier.bytes_mapped),
            spill_runs: self.spill_runs.saturating_sub(earlier.spill_runs),
            spill_bytes: self.spill_bytes.saturating_sub(earlier.spill_bytes),
            stream_chunks: self.stream_chunks.saturating_sub(earlier.stream_chunks),
            peak_resident_bytes: self
                .peak_resident_bytes
                .saturating_sub(earlier.peak_resident_bytes),
        }
    }
}

impl fmt::Display for PrepareMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // New fields are appended at the end: downstream evidence checks
        // (the repro harness and CI) match on leading-substring prefixes.
        write!(
            f,
            "graph_builds={} reorders={} mem_hits={} disk_hits={} disk_writes={} mmap_hits={} bytes_mapped={} spill_runs={} spill_bytes={} stream_chunks={} peak_resident_bytes={}",
            self.graph_builds,
            self.reorders,
            self.mem_hits,
            self.disk_hits,
            self.disk_writes,
            self.mmap_hits,
            self.bytes_mapped,
            self.spill_runs,
            self.spill_bytes,
            self.stream_chunks,
            self.peak_resident_bytes
        )
    }
}

thread_local! {
    static METRICS: Cell<PrepareMetrics> = const { Cell::new(PrepareMetrics::ZERO) };
}

/// Snapshot of this thread's preparation counters.
///
/// Counters are per-thread (preparation always runs on the calling thread,
/// even when the CSR builder fans out internally), so concurrent tests
/// observe exact deltas without cross-talk.
pub fn metrics() -> PrepareMetrics {
    METRICS.with(|m| m.get())
}

pub(crate) fn bump(f: impl FnOnce(&mut PrepareMetrics)) {
    METRICS.with(|m| {
        let before = m.get();
        let mut v = before;
        f(&mut v);
        m.set(v);
        mirror_to_obs(&v.since(&before));
    });
}

/// Mirror a counter delta into the ambient observability context, when one
/// is installed — the structured twin of the thread-local tallies, so
/// `--metrics` reports carry the same cache evidence the `# prepare:` line
/// prints.
fn mirror_to_obs(d: &PrepareMetrics) {
    use cnc_obs::Counter as C;
    if let Some(ctx) = cnc_obs::ObsContext::current() {
        ctx.add(C::PrepareGraphBuilds, d.graph_builds);
        ctx.add(C::PrepareReorders, d.reorders);
        ctx.add(C::PrepareMemHits, d.mem_hits);
        ctx.add(C::PrepareDiskHits, d.disk_hits);
        ctx.add(C::PrepareDiskWrites, d.disk_writes);
        ctx.add(C::PrepareMmapHits, d.mmap_hits);
        ctx.add(C::PrepareBytesMapped, d.bytes_mapped);
        ctx.add(C::PrepareSpillRuns, d.spill_runs);
        ctx.add(C::PrepareSpillBytes, d.spill_bytes);
        ctx.add(C::PrepareStreamChunks, d.stream_chunks);
        ctx.add(C::PreparePeakResidentBytes, d.peak_resident_bytes);
    }
}

/// The immutable output of the preparation pipeline.
///
/// Holds the normalized CSR, the optional degree-descending relabel with
/// both remap tables, and the graph statistics every consumer keys on
/// (Table 1 sizes, the Table 2 skew percentage that predicts pivot-skip
/// payoff, and the capacity scale for the machine models). Constructed once,
/// shared by `Arc` across the runner, all backends, and the repro harness.
#[derive(Debug, Clone)]
pub struct PreparedGraph {
    graph: CsrGraph,
    reordered: Option<Reordered>,
    stats: GraphStats,
    skew_pct: f64,
    capacity_scale: f64,
    policy: ReorderPolicy,
}

impl PreparedGraph {
    /// Run the full pipeline on an edge list: build the CSR with
    /// [`CsrGraph::from_edge_list`] (which canonicalizes a list that is not
    /// normalized), then apply `policy`.
    pub fn from_edge_list(el: &EdgeList, policy: ReorderPolicy) -> Arc<Self> {
        cnc_obs::ObsContext::scoped("prepare", || {
            let graph = cnc_obs::ObsContext::scoped("csr_build", || CsrGraph::from_edge_list(el));
            bump(|m| m.graph_builds += 1);
            Arc::new(Self::finish(graph, policy))
        })
    }

    /// Prepare an existing CSR (statistics + optional reorder; no CSR
    /// rebuild).
    pub fn from_csr(graph: CsrGraph, policy: ReorderPolicy) -> Arc<Self> {
        cnc_obs::ObsContext::scoped("prepare", || Arc::new(Self::finish(graph, policy)))
    }

    /// Pipeline tail shared by every constructor that actually *computes*
    /// (counted in [`metrics`]); deserialization uses
    /// [`PreparedGraph::assemble_loaded`] instead.
    fn finish(graph: CsrGraph, policy: ReorderPolicy) -> Self {
        if matches!(policy, ReorderPolicy::DegreeDescending) {
            bump(|m| m.reorders += 1);
        }
        Self::derive(graph, policy)
    }

    /// [`PreparedGraph::finish`]'s work without its counter (the streamer's
    /// heap fallback, whose callers count the build themselves): relabel
    /// under `policy` and derive the statistics. Both CSRs carry their
    /// reverse-edge index from construction, and [`write_prepared`]
    /// persists it, so warm loads get it for free.
    pub(crate) fn derive(graph: CsrGraph, policy: ReorderPolicy) -> Self {
        let reordered = match policy {
            ReorderPolicy::None => None,
            ReorderPolicy::DegreeDescending => {
                cnc_obs::ObsContext::scoped("reorder", || Some(reorder::degree_descending(&graph)))
            }
        };
        let stats = GraphStats::of(&graph);
        let skew_pct = skew_percentage(&graph, SKEW_THRESHOLD);
        Self {
            graph,
            reordered,
            stats,
            skew_pct,
            capacity_scale: 1.0,
            policy,
        }
    }

    /// Assemble a cache load using the statistics persisted in the file's
    /// (checksummed) header, sparing the warm path the `O(|E|)` skew and
    /// degree scans that computed them at build time.
    fn assemble_loaded(
        graph: CsrGraph,
        reordered: Option<Reordered>,
        parsed: &ParsedPrepared,
    ) -> Self {
        let n = graph.num_vertices();
        let m = graph.num_directed_edges();
        let stats = GraphStats {
            num_vertices: n,
            num_edges: m,
            avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            max_degree: parsed.max_degree,
        };
        Self {
            graph,
            reordered,
            stats,
            skew_pct: parsed.skew_pct,
            capacity_scale: 1.0,
            policy: parsed.policy,
        }
    }

    /// The graph in its original vertex ids.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The degree-descending relabel with remap tables, when the policy
    /// computed one.
    pub fn reordered(&self) -> Option<&Reordered> {
        self.reordered.as_ref()
    }

    /// The graph a backend should execute on: the relabeled CSR when the
    /// plan wants reordering *and* this preparation computed it, the
    /// original otherwise.
    pub fn execution_graph(&self, reorder: bool) -> &CsrGraph {
        match (&self.reordered, reorder) {
            (Some(r), true) => &r.graph,
            _ => &self.graph,
        }
    }

    /// Table 1 statistics of the original graph.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// Table 2 skew percentage at the paper's threshold
    /// ([`SKEW_THRESHOLD`]) — the statistic MPS's skew partitioning keys on.
    pub fn skew_pct(&self) -> f64 {
        self.skew_pct
    }

    /// Capacity-scaling factor for the machine models (1.0 unless prepared
    /// from a [`Dataset`], which sets `Dataset::capacity_scale`).
    pub fn capacity_scale(&self) -> f64 {
        self.capacity_scale
    }

    /// The reorder policy this graph was prepared under.
    pub fn policy(&self) -> ReorderPolicy {
        self.policy
    }

    /// Bytes served zero-copy out of a mapped cache file: the offsets,
    /// adjacency and reverse index of every mapped graph (original and,
    /// when present, relabeled). Zero for heap-backed preparations.
    pub fn mapped_bytes(&self) -> u64 {
        let relabeled = self
            .reordered
            .as_ref()
            .map_or(0, |r| r.graph.mapped_bytes());
        (self.graph.mapped_bytes() + relabeled) as u64
    }
}

// ---------------------------------------------------------------------------
// CNCPREP5: the zero-copy on-disk format.
//
//   byte 0..8    magic "CNCPREP5"
//   byte 8       reorder policy byte
//   byte 9       reordered-sections flag (0|1, must match the policy)
//   byte 16..24  section count (u64 LE): 3 without reorder, 7 with
//   byte 24..32  skew percentage (f64 LE bits)
//   byte 32..40  maximum degree (u64 LE)
//   byte 40..56  reserved (zero)
//   byte 56..64  checksum of bytes 0..56
//
// followed by that many sections, each starting on a 64-byte boundary:
//
//   byte 0..8    payload length in bytes (u64 LE)
//   byte 8..16   checksum of the payload
//   byte 16..24  element width (u64 LE: 8 for offsets, 4 for u32 arrays)
//   byte 24..64  reserved (zero)
//   byte 64..    payload, zero-padded to the next 64-byte boundary
//
// Section order: offsets (u64 LE), neighbors (u32 LE) and reverse-edge index
// (u32 LE, `rev[e(u,v)] = e(v,u)`) of the original graph, then — with
// reordering — offsets + neighbors + reverse index of the relabeled graph
// and the new→old remap table (u32 LE). The 64-byte alignment means a
// page-aligned mmap of the file can serve every array in place on 64-bit
// little-endian targets; the checksums let a mapped file be validated
// without copying it, and the persisted skew/degree statistics spare warm
// loads the O(|E|) scans that computed them. The checksum is an FNV-style
// multiply-xor fold over four interleaved u64 lanes (not byte-serial FNV:
// the four independent multiply chains keep verification at memory speed,
// which the warm path is benchmarked on).
//
// This module is the format's one encoder and its parser, both written
// with the one checked codec (`crate::codec`): the section width table,
// `layout` (where every section sits and how long the file is),
// `file_header` and `section_header` decide every byte that is not
// payload, and `parse_prepared` reads them back through a `Reader` that
// hands each section's payload on, so no decoder here indexes bytes. One
// set of CSR fillers (offsets from degrees, the cursor scatter, the reverse
// walk in `crate::csr`, the per-row relabel in `crate::reorder`) computes
// every payload, into two sinks: the heap graph's `Vec`s, which
// `write_prepared` serializes one section at a time, and the streaming
// writer's (`crate::stream`) typed views of a mapped file's laid-out
// sections. The streaming differential tests pin the two images equal on
// every dataset analogue and on arbitrary edge lists. Bump the
// trailing magic digit on any layout change: a stale file fails the magic
// check and is rebuilt — `CNCPREP2` → `CNCPREP3` added the reverse-index
// sections, `CNCPREP3` → `CNCPREP4` retired every file written before
// the streaming writer existed, and `CNCPREP4` → `CNCPREP5` narrowed both
// reverse-index sections from 8 to 4 bytes per slot (the `|E|` limit,
// `crate::MAX_DIRECTED_EDGES`, makes every slot index a u32).
//
// The streamer reads its `CNCCSR01` input with `io::read_csr`'s own header
// and offsets parser (`io::read_csr_head`) and refuses every file
// `read_csr` refuses, with its message: one parser and one acceptance rule
// for both readers of the format.
// ---------------------------------------------------------------------------

const PREPARED_MAGIC: &[u8; 8] = b"CNCPREP5";
const ALIGN: usize = mmap::SECTION_ALIGN;
const HEADER_LEN: usize = 64;
const SECTION_HEADER_LEN: usize = 64;

/// Element width of every section in file order: offsets (u64), neighbors
/// (u32) and reverse index (u32) of the original graph, then the same three
/// of the relabeled graph and the new→old table (u32).
const SECTION_WIDTHS: [usize; 7] = [8, 4, 4, 8, 4, 4, 4];

/// The section widths of an image with or without the reorder sections.
fn section_widths(reordered: bool) -> &'static [usize] {
    &SECTION_WIDTHS[..if reordered { 7 } else { 3 }]
}

/// Name of the advisory lock file cache writers serialize on (one per cache
/// directory).
pub const CACHE_LOCK_FILE: &str = ".cnc-cache.lock";

/// Environment variable holding an automatic cache size cap in bytes: after
/// every cache write, [`cache_gc`] trims the directory down to this budget.
pub const CACHE_MAX_BYTES_ENV: &str = "CNC_CACHE_MAX_BYTES";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Content checksum of a payload: an FNV-style multiply-xor fold computed
/// over four interleaved u64 lanes, combined with the length at the end.
///
/// The four lanes break the serial multiply dependency chain of byte-wise
/// FNV-1a, so verification runs at several GB/s — warm cache loads verify
/// every section, and the checksum must not dominate a load that otherwise
/// copies nothing. The tail (payloads are always a multiple of 4 bytes,
/// not necessarily of 32) is zero-padded into one final word; folding in
/// the length keeps images that differ only in trailing zeros distinct.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [
        FNV_OFFSET ^ 0x01,
        FNV_OFFSET ^ 0x10,
        FNV_OFFSET ^ 0x11,
        FNV_OFFSET,
    ];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    let mut hash = FNV_OFFSET;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(FNV_PRIME);
    }
    for word in chunks.remainder().chunks(8) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        hash = (hash ^ u64::from_le_bytes(padded)).wrapping_mul(FNV_PRIME);
    }
    (hash ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// One section of a `CNCPREP5` image: where its payload sits and its
/// element width. The section's header is the `SECTION_HEADER_LEN` bytes
/// before the payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Section {
    /// Payload byte offset within the file.
    pub(crate) start: usize,
    pub(crate) payload_len: usize,
    pub(crate) elem_width: usize,
}

impl Section {
    pub(crate) fn count(&self) -> usize {
        self.payload_len / self.elem_width
    }

    pub(crate) fn bytes<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.start..self.start + self.payload_len]
    }

    /// Where the section's header sits in the file.
    pub(crate) fn header_range(&self) -> std::ops::Range<usize> {
        self.start - SECTION_HEADER_LEN..self.start
    }

    /// Zero bytes between the payload's end and the next section boundary.
    fn padding(&self) -> usize {
        let end = self.start + self.payload_len;
        end.next_multiple_of(ALIGN) - end
    }
}

/// Every section of one image, placed, and the file's total length.
#[derive(Debug)]
pub(crate) struct Layout {
    pub(crate) sections: Vec<Section>,
    pub(crate) len: usize,
}

/// Lay out the image of a graph with `n` vertices and `m_dir` directed edge
/// slots, with the reorder sections when `reordered`. Errors (instead of
/// wrapping) when a size does not fit `usize`.
pub(crate) fn layout(n: usize, m_dir: usize, reordered: bool) -> io::Result<Layout> {
    let place = || -> Option<Layout> {
        let n1 = n.checked_add(1)?;
        let elements = [n1, m_dir, m_dir, n1, m_dir, m_dir, n];
        let mut sections = Vec::with_capacity(elements.len());
        let mut pos = HEADER_LEN;
        for (&count, &elem_width) in elements.iter().zip(section_widths(reordered)) {
            let section = Section {
                start: pos.checked_add(SECTION_HEADER_LEN)?,
                payload_len: count.checked_mul(elem_width)?,
                elem_width,
            };
            pos = section
                .start
                .checked_add(section.payload_len)?
                .checked_next_multiple_of(ALIGN)?;
            sections.push(section);
        }
        Some(Layout { sections, len: pos })
    };
    place().ok_or_else(|| invalid("graph too large for a CNCPREP5 image"))
}

/// The 64-byte file header of an image prepared under `policy`, sealed by
/// its checksum.
pub(crate) fn file_header(policy: ReorderPolicy, skew_pct: f64, max_degree: u64) -> Vec<u8> {
    let reordered = matches!(policy, ReorderPolicy::DegreeDescending);
    let mut w = Writer::with_capacity(HEADER_LEN);
    w.bytes(PREPARED_MAGIC);
    w.u8(policy.byte());
    w.u8(u8::from(reordered));
    w.bytes(&[0; 6]);
    w.usize(section_widths(reordered).len());
    w.u64(skew_pct.to_bits());
    w.u64(max_degree);
    w.bytes(&[0; 16]);
    let check = checksum(w.as_bytes());
    w.u64(check);
    w.into_bytes()
}

/// The 64-byte header of a section holding `payload`.
pub(crate) fn section_header(payload: &[u8], elem_width: usize) -> Vec<u8> {
    let mut w = Writer::with_capacity(SECTION_HEADER_LEN);
    w.usize(payload.len());
    w.u64(checksum(payload));
    w.usize(elem_width);
    w.bytes(&[0; SECTION_HEADER_LEN - 24]);
    w.into_bytes()
}

fn u64_payload(vals: &[usize]) -> Vec<u8> {
    let mut w = Writer::with_capacity(vals.len() * 8);
    for &v in vals {
        w.usize(v);
    }
    w.into_bytes()
}

fn u32_payload(vals: &[u32]) -> Vec<u8> {
    let mut w = Writer::with_capacity(vals.len() * 4);
    for &v in vals {
        w.u32(v);
    }
    w.into_bytes()
}

/// Serialize a prepared graph (CSR + reverse-edge index, policy, statistics,
/// optional relabeled CSR + remap table) in the `CNCPREP5` cache format.
pub fn write_prepared<W: Write>(pg: &PreparedGraph, writer: W) -> io::Result<()> {
    let g = &pg.graph;
    let layout = layout(
        g.num_vertices(),
        g.num_directed_edges(),
        pg.reordered.is_some(),
    )?;
    let mut w = BufWriter::new(writer);
    w.write_all(&file_header(
        pg.policy,
        pg.skew_pct,
        pg.stats.max_degree as u64,
    ))?;
    // One section at a time: its payload is serialized once, because the
    // header's checksum precedes it on disk.
    let mut sections = layout.sections.iter();
    let mut put = |payload: Vec<u8>| -> io::Result<()> {
        let s = sections.next().expect("the layout places every section");
        debug_assert_eq!(payload.len(), s.payload_len);
        w.write_all(&section_header(&payload, s.elem_width))?;
        w.write_all(&payload)?;
        w.write_all(&[0u8; ALIGN][..s.padding()])
    };
    for g in std::iter::once(g).chain(pg.reordered.as_ref().map(|r| &r.graph)) {
        put(u64_payload(g.offsets()))?;
        put(u32_payload(g.dst()))?;
        put(u32_payload(g.reverse_index()))?;
    }
    if let Some(r) = &pg.reordered {
        put(u32_payload(&r.new_to_old))?;
    }
    w.flush()
}

/// The sections of an image a load checksums and hands on.
#[derive(Debug, Clone, Copy)]
enum Sections {
    /// Every section: both CSRs and the remap table.
    All,
    /// The three sections of the CSR [`PreparedGraph::execution_graph`]
    /// returns for `reorder`: the relabeled one when the image holds it,
    /// the original otherwise.
    ExecutionCsr { reorder: bool },
}

impl Sections {
    /// Indexes of the selected sections in an image with or without the
    /// reorder sections.
    fn range(self, has_reordered: bool) -> std::ops::Range<usize> {
        match self {
            Sections::All => 0..section_widths(has_reordered).len(),
            Sections::ExecutionCsr { reorder: true } if has_reordered => 3..6,
            Sections::ExecutionCsr { .. } => 0..3,
        }
    }
}

/// Validate a `CNCPREP5` byte image *in place* without copying any
/// payload: the header, every section's header, length and padding, the
/// file length, and the checksums of the `select`ed sections. Returns the
/// policy, the persisted statistics, and the selected sections, in file
/// order, each with its payload.
fn parse_prepared(bytes: &[u8], select: Sections) -> io::Result<ParsedPrepared<'_>> {
    let mut r = Reader::new(bytes);
    let sealed = r.bytes(HEADER_LEN - 8, "CNCPREP5 header")?;
    let mut h = Reader::new(sealed);
    h.magic(PREPARED_MAGIC)?;
    if checksum(sealed) != r.u64("header checksum")? {
        return Err(invalid("header checksum mismatch"));
    }
    let policy_byte = h.u8("reorder policy byte")?;
    let policy = ReorderPolicy::from_byte(policy_byte).ok_or(DecodeError::Invalid {
        field: "reorder policy byte",
        value: u64::from(policy_byte),
    })?;
    let has_reordered = match h.u8("reordered-presence flag")? {
        0 => false,
        1 => true,
        _ => return Err(invalid("bad reordered-presence flag")),
    };
    if has_reordered != matches!(policy, ReorderPolicy::DegreeDescending) {
        return Err(invalid("reorder sections inconsistent with policy byte"));
    }
    h.bytes(6, "header padding")?;
    let expected_widths = section_widths(has_reordered);
    if h.usize("section count")? != expected_widths.len() {
        return Err(invalid("section count inconsistent with header flags"));
    }
    let skew_pct = f64::from_bits(h.u64("skew percentage")?);
    let max_degree = h.usize("maximum degree")?;
    let selected = select.range(has_reordered);
    let mut sections = Vec::with_capacity(selected.len());
    for (i, &width) in expected_widths.iter().enumerate() {
        let in_section = |e: DecodeError| invalid(format!("section {i}: {e}"));
        debug_assert_eq!(r.offset() % ALIGN, 0);
        let payload_len = r.usize("section length").map_err(in_section)?;
        let want_checksum = r.u64("section checksum").map_err(in_section)?;
        if r.u64("element width").map_err(in_section)? != width as u64 {
            return Err(invalid(format!("unexpected element width in section {i}")));
        }
        r.bytes(SECTION_HEADER_LEN - 24, "section header")
            .map_err(in_section)?;
        if payload_len % width != 0 {
            return Err(invalid(format!(
                "section {i} length is not a multiple of its element width"
            )));
        }
        let section = Section {
            start: r.offset(),
            payload_len,
            elem_width: width,
        };
        let payload = r
            .bytes(payload_len, "section payload")
            .map_err(in_section)?;
        if selected.contains(&i) {
            if checksum(payload) != want_checksum {
                return Err(invalid(format!("checksum mismatch in section {i}")));
            }
            sections.push((section, payload));
        }
        r.bytes(section.padding(), "section padding")
            .map_err(in_section)?;
    }
    r.finish()
        .map_err(|_| invalid("file length inconsistent with section table"))?;
    Ok(ParsedPrepared {
        policy,
        skew_pct,
        max_degree,
        sections,
    })
}

/// The validated header fields of a `CNCPREP5` image and its selected
/// sections, each with its payload bytes.
struct ParsedPrepared<'a> {
    policy: ReorderPolicy,
    skew_pct: f64,
    max_degree: usize,
    sections: Vec<(Section, &'a [u8])>,
}

/// Rebuild [`Reordered`] from a deserialized relabeled graph + new→old
/// table, checking every invariant the format implies: matching sizes, the
/// table being a degree-preserving permutation. Derives the old→new inverse
/// (the one per-load `O(|V|)` allocation the zero-copy path keeps).
fn build_reordered(
    graph: &CsrGraph,
    relabeled: CsrGraph,
    new_to_old: Vec<u32>,
) -> io::Result<Reordered> {
    let n = graph.num_vertices();
    if new_to_old.len() != n || relabeled.num_vertices() != n {
        return Err(invalid("remap table length does not match |V|"));
    }
    if relabeled.num_directed_edges() != graph.num_directed_edges() {
        return Err(invalid("relabeled graph has a different edge count"));
    }
    let new_ids = 0..u32::try_from(n).map_err(|_| invalid("|V| exceeds u32 vertex ids"))?;
    let mut seen = vec![false; n];
    let mut old_to_new = vec![0u32; n];
    for (new_id, &old_id) in new_ids.zip(&new_to_old) {
        let Some(slot) = seen.get_mut(old_id as usize) else {
            return Err(invalid("remap table entry out of range"));
        };
        if std::mem::replace(slot, true) {
            return Err(invalid("remap table is not a permutation"));
        }
        if graph.degree(old_id) != relabeled.degree(new_id) {
            return Err(invalid("remap table does not preserve degrees"));
        }
        old_to_new[old_id as usize] = new_id;
    }
    Ok(Reordered {
        graph: relabeled,
        old_to_new,
        new_to_old,
    })
}

/// One CSR's sections in a parsed image: offsets, neighbors, reverse index.
type CsrParts<'a> = [(Section, &'a [u8]); 3];

/// Assemble a parsed image, loading the original graph and (with reorder
/// sections) the relabeled one with `load_csr`.
fn assemble_image(
    parsed: &ParsedPrepared<'_>,
    load_csr: impl Fn(&CsrParts<'_>) -> io::Result<CsrGraph>,
) -> io::Result<PreparedGraph> {
    let csr = |parts: &[(Section, &[u8])]| {
        load_csr(
            parts
                .try_into()
                .map_err(|_| invalid("a CSR takes three sections"))?,
        )
    };
    let (original, relabeled) = parsed
        .sections
        .split_at_checked(3)
        .ok_or_else(|| invalid("a CNCPREP5 image holds at least three sections"))?;
    let graph = csr(original)?;
    let reordered = match relabeled {
        [] => None,
        [relabeled @ .., (sn, new_to_old)] => {
            let new_to_old = Reader::new(new_to_old).u32s(sn.count(), "remap table")?;
            Some(build_reordered(&graph, csr(relabeled)?, new_to_old)?)
        }
    };
    Ok(PreparedGraph::assemble_loaded(graph, reordered, parsed))
}

fn prepared_from_image(bytes: &[u8]) -> io::Result<PreparedGraph> {
    assemble_image(
        &parse_prepared(bytes, Sections::All)?,
        |[(so, offsets), (sd, dst), (sr, rev)]| {
            let offsets = Reader::new(offsets).usizes(so.count(), "offsets")?;
            let dst = Reader::new(dst).u32s(sd.count(), "neighbors")?;
            let rev = Reader::new(rev).u32s(sr.count(), "reverse index")?;
            CsrGraph::try_from_sections(offsets.into(), dst.into(), rev.into(), CsrGraph::validate)
                .map_err(invalid)
        },
    )
}

/// Deserialize a prepared graph written by [`write_prepared`] into owned
/// heap storage — the portable path, used where mapping is unavailable.
///
/// Every invariant the format implies is checked — magic/version, policy
/// byte, section layout and checksums, CSR validity of both graphs, the
/// remap table being a permutation consistent with the pair of graphs — and
/// any violation is an [`io::ErrorKind::InvalidData`] error, never a panic.
/// The capacity scale is not stored; it is re-derived by the dataset cache.
pub fn read_prepared<R: Read>(mut reader: R) -> io::Result<PreparedGraph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    prepared_from_image(&bytes)
}

/// Load a `CNCPREP5` cache file **zero-copy**: the file is `mmap`ed,
/// validated in place (header, alignment, per-section checksums, structural
/// CSR invariants), and the resulting graphs serve their offset/adjacency
/// arrays directly out of the mapping — no heap copy, and the page cache is
/// shared with every other process mapping the same file. The mapping (plus
/// a shared advisory lock that shields the file from [`cache_gc`]) lives as
/// long as any clone of the returned graph.
///
/// On success the calling thread's `mmap_hits` / `bytes_mapped` counters are
/// bumped. Errors — and `Unsupported` on platforms without `mmap` or whose
/// memory layout cannot alias u64 little-endian arrays — leave callers to
/// fall back to [`read_prepared`].
pub fn map_prepared(path: &Path) -> io::Result<PreparedGraph> {
    let map = map_image(path)?;
    let pg = assemble_image(&parse_prepared(map.bytes(), Sections::All)?, |parts| {
        mapped_csr(&map, parts)
    })?;
    bump(|m| {
        m.mmap_hits += 1;
        m.bytes_mapped += pg.mapped_bytes();
    });
    Ok(pg)
}

/// Map only the CSR `PreparedGraph::execution_graph(reorder)` would return
/// from a `CNCPREP5` file: the loader of a process that executes on one
/// CSR and needs nothing else of the preparation (a shard worker).
///
/// It checks what [`map_prepared`] checks of the file — the header, every
/// section's header, length and padding, and the file length — and of the
/// three sections it returns, exactly what [`map_prepared`] checks of each
/// CSR: their checksums, the structural CSR invariants and the full
/// reverse-index check. The other sections (the other CSR, the remap table)
/// are neither checksummed nor read. Counters and errors as in
/// [`map_prepared`]; on `Unsupported`, fall back to [`read_prepared`].
pub fn map_execution_csr(path: &Path, reorder: bool) -> io::Result<CsrGraph> {
    let map = map_image(path)?;
    let parsed = parse_prepared(map.bytes(), Sections::ExecutionCsr { reorder })?;
    let parts = parsed
        .sections
        .as_slice()
        .try_into()
        .map_err(|_| invalid("a CSR takes three sections"))?;
    let g = mapped_csr(&map, parts)?;
    bump(|m| {
        m.mmap_hits += 1;
        m.bytes_mapped += g.mapped_bytes() as u64;
    });
    Ok(g)
}

/// Map `path` read-only where the platform can serve its sections in place.
fn map_image(path: &Path) -> io::Result<Arc<MappedFile>> {
    if !mmap::zero_copy_layout() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "zero-copy load needs a 64-bit little-endian platform",
        ));
    }
    MappedFile::open(path)
}

/// One CSR served in place out of `map` from its three checksummed
/// sections. Structural validation only: the section checksums already
/// verified these are the exact bytes a valid graph serialized to, so the
/// O(|E| log d) symmetry probes of the full check are skipped. The reverse
/// index *is* fully verified (O(|E|), no searches): a wrong index silently
/// mirrors counts to wrong slots, so it gets the same trust bar as the CSR
/// symmetry it stands in for.
fn mapped_csr(
    map: &Arc<MappedFile>,
    [(so, _), (sd, _), (sr, _)]: &CsrParts<'_>,
) -> io::Result<CsrGraph> {
    let offsets = map.typed_slice::<usize>(so.start, so.count())?.into();
    let dst = map.typed_slice::<u32>(sd.start, sd.count())?.into();
    let rev = map.typed_slice::<u32>(sr.start, sr.count())?.into();
    CsrGraph::try_from_sections(offsets, dst, rev, CsrGraph::validate_structure).map_err(invalid)
}

/// The on-disk cache directory: `$CNC_CACHE_DIR` when set, `results/cache`
/// (relative to the working directory) otherwise.
pub fn default_cache_dir() -> PathBuf {
    std::env::var_os("CNC_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results").join("cache"))
}

/// The cache file path for a `(dataset, scale, policy)` key under `dir`.
pub fn cache_path(dir: &Path, dataset: Dataset, scale: Scale, policy: ReorderPolicy) -> PathBuf {
    dir.join(format!(
        "{}-{}-{}.prep",
        dataset.name(),
        scale.name(),
        policy.tag()
    ))
}

type CacheKey = (Dataset, Scale, ReorderPolicy);

static MEM_CACHE: OnceLock<Mutex<HashMap<CacheKey, Arc<PreparedGraph>>>> = OnceLock::new();

/// The process-wide prepared form of a dataset analogue.
///
/// First call per `(dataset, scale, policy)` key goes through
/// [`prepared_on_disk`] (warm disk cache → zero preprocessing, zero-copy
/// where the platform allows; cold → build and persist); every later call in
/// the process returns the same `Arc<PreparedGraph>` from memory.
pub fn prepared(dataset: Dataset, scale: Scale, policy: ReorderPolicy) -> Arc<PreparedGraph> {
    cnc_obs::ObsContext::scoped("prepare", || {
        let cache = MEM_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = map.get(&(dataset, scale, policy)) {
            bump(|m| m.mem_hits += 1);
            return Arc::clone(hit);
        }
        let pg = prepared_on_disk(&default_cache_dir(), dataset, scale, policy);
        map.insert((dataset, scale, policy), Arc::clone(&pg));
        pg
    })
}

/// Refresh `path`'s modification time — the LRU recency signal [`cache_gc`]
/// orders evictions by. Best-effort: failures (read-only dirs) are ignored.
fn touch(path: &Path) {
    if let Ok(f) = File::options().append(true).open(path) {
        let _ = f.set_modified(SystemTime::now());
    }
}

/// Try to serve `path` from the cache: zero-copy map first, owned read as
/// the fallback. `None` on any failure (missing/stale/corrupt/misaligned
/// file) — the caller rebuilds.
fn load_cached(path: &Path, dataset: Dataset, policy: ReorderPolicy) -> Option<PreparedGraph> {
    let mut pg = map_prepared(path)
        .or_else(|_| File::open(path).and_then(read_prepared))
        .ok()?;
    if pg.policy != policy {
        return None;
    }
    pg.capacity_scale = dataset.capacity_scale(&pg.graph);
    bump(|m| m.disk_hits += 1);
    touch(path);
    Some(pg)
}

/// Monotonic discriminator for write-once temp names: concurrent writers in
/// one process never collide, and the pid isolates across processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The prepared form of a dataset analogue backed only by the on-disk cache
/// under `dir` (no process-wide memoization — the entry point for cache
/// management and tests).
///
/// A readable, valid cache file is loaded as-is — zero-copy via `mmap` where
/// the platform allows, owned otherwise; a missing, stale (old format
/// version), corrupt or misaligned file falls back to a fresh build. Cold
/// builds serialize on an exclusive [`CACHE_LOCK_FILE`] `flock`, so when
/// several processes miss simultaneously exactly one builds and writes (via
/// a write-once temp name + atomic rename) and the rest load its file. No
/// error is ever surfaced: the cache is an optimization, not a dependency.
pub fn prepared_on_disk(
    dir: &Path,
    dataset: Dataset,
    scale: Scale,
    policy: ReorderPolicy,
) -> Arc<PreparedGraph> {
    let path = cache_path(dir, dataset, scale, policy);
    if let Some(pg) =
        cnc_obs::ObsContext::scoped("cache_io", || load_cached(&path, dataset, policy))
    {
        return Arc::new(pg);
    }
    // Cold path: become the writer, or wait for whoever is.
    let lock = if fs::create_dir_all(dir).is_ok() {
        FileLock::exclusive(&dir.join(CACHE_LOCK_FILE)).ok()
    } else {
        None
    };
    if lock.is_some() {
        // Re-check under the lock: a concurrent process may have built and
        // renamed the file while we waited. Loading it here is what makes
        // the populate race single-writer.
        if let Some(pg) =
            cnc_obs::ObsContext::scoped("cache_io", || load_cached(&path, dataset, policy))
        {
            return Arc::new(pg);
        }
    }
    // Bounded-memory cold path: when `CNC_PREP_MEM_BYTES` is set (and the
    // platform can map the result back), stream the edges straight into the
    // cache file instead of materializing CSR + reorder + reverse index on
    // the heap. The streamed image is byte-identical to what the in-memory
    // writer below produces, so readers cannot tell which path built it.
    // Any failure falls through to the in-memory build — the cache stays an
    // optimization, never a dependency.
    if lock.is_some() && mmap::zero_copy_layout() {
        if let Some(cfg) = stream::StreamConfig::budgeted_from_env() {
            let streamed = cnc_obs::ObsContext::scoped("cache_io", || {
                let el = dataset.edge_list(scale);
                let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
                let tmp = path.with_extension(format!("tmp-{}-{seq}", std::process::id()));
                let wrote =
                    stream::prepare_pairs_to_file(el.num_vertices, el.iter(), policy, &tmp, &cfg)
                        .and_then(|_| fs::rename(&tmp, &path));
                match wrote {
                    Ok(()) => {
                        bump(|m| {
                            m.graph_builds += 1;
                            if matches!(policy, ReorderPolicy::DegreeDescending) {
                                m.reorders += 1;
                            }
                            m.disk_writes += 1;
                        });
                        if let Some(cap) = env_cache_cap() {
                            let _ = cache_gc(dir, cap);
                        }
                        map_prepared(&path)
                            .or_else(|_| File::open(&path).and_then(read_prepared))
                            .ok()
                    }
                    Err(_) => {
                        let _ = fs::remove_file(&tmp);
                        None
                    }
                }
            });
            if let Some(mut pg) = streamed {
                pg.capacity_scale = dataset.capacity_scale(&pg.graph);
                return Arc::new(pg);
            }
        }
    }
    let el = dataset.edge_list(scale);
    let graph = cnc_obs::ObsContext::scoped("csr_build", || CsrGraph::from_edge_list(&el));
    bump(|m| m.graph_builds += 1);
    let mut pg = PreparedGraph::finish(graph, policy);
    pg.capacity_scale = dataset.capacity_scale(&pg.graph);
    if lock.is_some() {
        cnc_obs::ObsContext::scoped("cache_io", || {
            let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let tmp = path.with_extension(format!("tmp-{}-{seq}", std::process::id()));
            let wrote = File::create(&tmp)
                .and_then(|f| write_prepared(&pg, f))
                .and_then(|()| fs::rename(&tmp, &path));
            match wrote {
                Ok(()) => {
                    bump(|m| m.disk_writes += 1);
                    // Automatic size cap: trim least-recently-used entries
                    // while we still hold the writer lock.
                    if let Some(cap) = env_cache_cap() {
                        let _ = cache_gc(dir, cap);
                    }
                }
                Err(_) => {
                    let _ = fs::remove_file(&tmp);
                }
            }
        });
    }
    Arc::new(pg)
}

fn env_cache_cap() -> Option<u64> {
    std::env::var(CACHE_MAX_BYTES_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
}

/// One `.prep` file in a cache directory.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Full path of the cache file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-used time (refreshed on every warm hit; the LRU key).
    pub modified: SystemTime,
}

/// The `.prep` files under `dir`, most recently used first. Errors only if
/// the directory itself cannot be read.
pub fn cache_entries(dir: &Path) -> io::Result<Vec<CacheEntry>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("prep") {
            continue;
        }
        let Ok(meta) = entry.metadata() else {
            continue; // vanished concurrently
        };
        if !meta.is_file() {
            continue;
        }
        out.push(CacheEntry {
            bytes: meta.len(),
            modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            path,
        });
    }
    out.sort_by(|a, b| {
        b.modified
            .cmp(&a.modified)
            .then_with(|| a.path.cmp(&b.path))
    });
    Ok(out)
}

/// What a [`cache_gc`] / [`cache_clear`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Files left in place.
    pub kept: usize,
    /// Bytes left in place.
    pub kept_bytes: u64,
    /// Files evicted.
    pub evicted: usize,
    /// Bytes evicted.
    pub evicted_bytes: u64,
    /// Files that were over budget but skipped because a reader (live
    /// mapping) or writer holds their lock.
    pub skipped_locked: usize,
}

/// Evict least-recently-used cache files until the directory holds at most
/// `max_bytes` of `.prep` data.
///
/// A file whose advisory lock cannot be taken — a live [`map_prepared`]
/// reader holds a shared lock for the lifetime of its mapping — is never
/// evicted; it is skipped and counted in
/// [`GcOutcome::skipped_locked`].
pub fn cache_gc(dir: &Path, max_bytes: u64) -> io::Result<GcOutcome> {
    let entries = cache_entries(dir)?;
    let mut out = GcOutcome::default();
    let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
    let mut evicted = vec![false; entries.len()];
    // Newest-first order: walk from the old end while over budget.
    for (i, e) in entries.iter().enumerate().rev() {
        if total <= max_bytes {
            break;
        }
        match FileLock::try_exclusive(&e.path) {
            Ok(Some(_guard)) => {
                if fs::remove_file(&e.path).is_ok() {
                    evicted[i] = true;
                    out.evicted += 1;
                    out.evicted_bytes += e.bytes;
                    total -= e.bytes;
                }
            }
            _ => out.skipped_locked += 1,
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if !evicted[i] {
            out.kept += 1;
            out.kept_bytes += e.bytes;
        }
    }
    Ok(out)
}

/// Remove every evictable cache file under `dir` (equivalent to
/// [`cache_gc`] with a zero budget: reader-locked files survive).
pub fn cache_clear(dir: &Path) -> io::Result<GcOutcome> {
    cache_gc(dir, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::reorder::is_degree_descending;

    #[test]
    fn pipeline_produces_reorder_and_stats() {
        let el = generators::hub_web(300, 6.0, 2, 0.4, 3);
        let before = metrics();
        let pg = PreparedGraph::from_edge_list(&el, ReorderPolicy::DegreeDescending);
        let d = metrics().since(&before);
        assert_eq!(d.graph_builds, 1);
        assert_eq!(d.reorders, 1);
        let r = pg.reordered().expect("policy computed a reorder");
        assert!(is_degree_descending(&r.graph));
        assert_eq!(pg.stats().num_vertices, pg.graph().num_vertices());
        assert!(pg.skew_pct() >= 0.0);
        assert_eq!(pg.capacity_scale(), 1.0);
        assert_eq!(pg.mapped_bytes(), 0, "fresh builds are heap-backed");
        // Execution graph selection.
        assert_eq!(pg.execution_graph(true), &r.graph);
        assert_eq!(pg.execution_graph(false), pg.graph());
    }

    #[test]
    fn policy_none_skips_reorder() {
        let el = generators::gnm(100, 300, 1);
        let before = metrics();
        let pg = PreparedGraph::from_edge_list(&el, ReorderPolicy::None);
        let d = metrics().since(&before);
        assert_eq!(d.reorders, 0);
        assert!(pg.reordered().is_none());
        assert_eq!(pg.execution_graph(true), pg.graph(), "no tables → original");
    }

    #[test]
    fn serialization_round_trips() {
        for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            let el = generators::chung_lu(200, 8.0, 2.3, 5);
            let pg = PreparedGraph::from_edge_list(&el, policy);
            let mut buf = Vec::new();
            write_prepared(&pg, &mut buf).unwrap();
            assert_eq!(buf.len() % ALIGN, 0, "file is a whole number of blocks");
            let back = read_prepared(buf.as_slice()).unwrap();
            assert_eq!(back.graph(), pg.graph());
            assert_eq!(back.policy(), policy);
            // The reverse-edge index survives the trip on every graph.
            assert_eq!(back.graph().reverse_index(), pg.graph().reverse_index());
            match (back.reordered(), pg.reordered()) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.graph, b.graph);
                    assert_eq!(a.graph.reverse_index(), b.graph.reverse_index());
                    assert_eq!(a.new_to_old, b.new_to_old);
                    assert_eq!(a.old_to_new, b.old_to_new);
                }
                other => panic!("reorder tables lost in round trip: {other:?}"),
            }
        }
    }

    #[test]
    fn sections_are_aligned() {
        let el = generators::gnm(64, 100, 3);
        let pg = PreparedGraph::from_edge_list(&el, ReorderPolicy::DegreeDescending);
        let mut buf = Vec::new();
        write_prepared(&pg, &mut buf).unwrap();
        let parsed = parse_prepared(&buf, Sections::All).unwrap();
        let sections = &parsed.sections;
        assert_eq!(sections.len(), 7);
        for (i, (s, _)) in sections.iter().enumerate() {
            assert_eq!(s.start % ALIGN, 0, "payload of section {i} misaligned");
        }
    }

    #[test]
    fn deserialization_rejects_tampering() {
        let el = generators::gnm(50, 150, 2);
        let pg = PreparedGraph::from_edge_list(&el, ReorderPolicy::DegreeDescending);
        let mut buf = Vec::new();
        write_prepared(&pg, &mut buf).unwrap();
        // Stale version byte.
        let mut stale = buf.clone();
        stale[7] = b'1';
        assert!(read_prepared(stale.as_slice()).is_err());
        // Unknown policy byte.
        let mut bad_policy = buf.clone();
        bad_policy[8] = 7;
        assert!(read_prepared(bad_policy.as_slice()).is_err());
        // A flipped payload byte fails its section checksum.
        let mut flipped = buf.clone();
        let at = HEADER_LEN + SECTION_HEADER_LEN + 1;
        flipped[at] ^= 0xff;
        let err = read_prepared(flipped.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation anywhere must error, never panic.
        for cut in [9, HEADER_LEN, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_prepared(buf[..cut].to_vec().as_slice()).is_err(),
                "cut={cut}"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = buf.clone();
        padded.extend_from_slice(&[0u8; ALIGN]);
        assert!(read_prepared(padded.as_slice()).is_err());
    }

    #[test]
    fn tampered_reverse_index_is_rejected() {
        // Craft an image whose rev section passes its checksum but encodes a
        // wrong permutation: swap two rev entries and re-checksum. The O(|E|)
        // attach validation must catch it.
        let el = generators::gnm(40, 90, 9);
        let pg = PreparedGraph::from_edge_list(&el, ReorderPolicy::None);
        let mut buf = Vec::new();
        write_prepared(&pg, &mut buf).unwrap();
        let rev = parse_prepared(&buf, Sections::All).unwrap().sections[2].0;
        assert_eq!(rev.elem_width, 4);
        let (a, b) = (rev.start, rev.start + 4);
        for i in 0..4 {
            buf.swap(a + i, b + i);
        }
        let fixed = checksum(&buf[rev.start..rev.start + rev.payload_len]);
        let cksum_at = rev.start - SECTION_HEADER_LEN + 8;
        buf[cksum_at..cksum_at + 8].copy_from_slice(&fixed.to_le_bytes());
        let err = read_prepared(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("reverse index"), "{err}");
    }

    /// Seal `section`'s payload in `image` with a fresh checksum, so only
    /// the content checks can catch what was changed in it.
    fn reseal(image: &mut [u8], section: Section) {
        let fixed = checksum(section.bytes(image));
        let at = section.header_range().start + 8;
        image[at..at + 8].copy_from_slice(&fixed.to_le_bytes());
    }

    /// Load `image` with `load` from a file of its own; the file is
    /// unlinked at once (a mapping keeps it alive).
    fn load_from_file<T>(image: &[u8], load: impl FnOnce(&Path) -> io::Result<T>) -> io::Result<T> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "cnc-prep-load-{}-{}.prep",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&path, image)?;
        let loaded = load(&path);
        fs::remove_file(&path)?;
        loaded
    }

    fn map_execution_bytes(image: &[u8], reorder: bool) -> io::Result<CsrGraph> {
        load_from_file(image, |path| map_execution_csr(path, reorder))
    }

    fn full_map(image: &[u8]) -> io::Result<PreparedGraph> {
        load_from_file(image, map_prepared)
    }

    fn assert_same_csr(got: &CsrGraph, want: &CsrGraph, what: &str) {
        assert!(got.storage_mapped(), "{what}: served in place");
        assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
        assert_eq!(got.dst(), want.dst(), "{what}: neighbors");
        assert_eq!(
            got.reverse_index(),
            want.reverse_index(),
            "{what}: reverse index"
        );
    }

    #[test]
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    fn execution_csr_is_the_full_loads_execution_graph() {
        let budgeted = stream::StreamConfig {
            mem_budget: Some(4096),
            spill_dir: None,
        };
        for dataset in Dataset::ALL {
            let el = dataset.edge_list(Scale::Tiny);
            for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
                let mut in_memory = Vec::new();
                write_prepared(&PreparedGraph::from_edge_list(&el, policy), &mut in_memory)
                    .unwrap();
                let path = std::env::temp_dir().join(format!(
                    "cnc-prep-streamed-{}-{}-{}.prep",
                    std::process::id(),
                    dataset.name(),
                    policy.tag()
                ));
                stream::prepare_pairs_to_file(el.num_vertices, el.iter(), policy, &path, &budgeted)
                    .unwrap();
                let streamed = fs::read(&path).unwrap();
                fs::remove_file(&path).unwrap();
                for (kind, image) in [("in-memory", &in_memory), ("streamed", &streamed)] {
                    let full = full_map(image).unwrap();
                    for reorder in [false, true] {
                        let what = format!(
                            "{} {} {kind} reorder={reorder}",
                            dataset.name(),
                            policy.tag()
                        );
                        let got = map_execution_bytes(image, reorder).unwrap();
                        assert_same_csr(&got, full.execution_graph(reorder), &what);
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    fn execution_csr_refuses_damage_in_the_sections_it_reads() {
        let el = generators::hub_web(300, 6.0, 2, 0.4, 3);
        for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            let pg = PreparedGraph::from_edge_list(&el, policy);
            let mut image = Vec::new();
            write_prepared(&pg, &mut image).unwrap();
            let table: Vec<Section> = parse_prepared(&image, Sections::All)
                .unwrap()
                .sections
                .iter()
                .map(|&(s, _)| s)
                .collect();
            for reorder in [false, true] {
                let read = Sections::ExecutionCsr { reorder }.range(pg.reordered().is_some());
                let what = format!("{} reorder={reorder}", policy.tag());
                for i in read.clone() {
                    let s = table[i];
                    let mut flipped = image.clone();
                    flipped[s.start + s.payload_len / 2] ^= 0x01;
                    let err = map_execution_bytes(&flipped, reorder).unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
                    let want = format!("checksum mismatch in section {i}");
                    assert!(err.to_string().contains(&want), "{what}: {err}");
                }
                // A wrong permutation under a valid checksum: swap the first
                // two reverse-index entries.
                let rev = table[read.start + 2];
                let mut swapped = image.clone();
                for i in 0..4 {
                    swapped.swap(rev.start + i, rev.start + 4 + i);
                }
                reseal(&mut swapped, rev);
                let err = map_execution_bytes(&swapped, reorder).unwrap_err();
                assert!(
                    err.to_string().contains("reverse index corrupt"),
                    "{what}: {err}"
                );
                // An out-of-range neighbor under a valid checksum: the last
                // neighbor slot (the end of its run, so the run stays
                // ascending) set to |V|.
                let dst = table[read.start + 1];
                let n = u32::try_from(pg.graph().num_vertices()).unwrap();
                let mut wide = image.clone();
                let last = dst.start + dst.payload_len - 4;
                wide[last..last + 4].copy_from_slice(&n.to_le_bytes());
                reseal(&mut wide, dst);
                let err = map_execution_bytes(&wide, reorder).unwrap_err();
                assert!(
                    err.to_string().contains(&format!("neighbor {n} of")),
                    "{what}: {err}"
                );
                assert!(err.to_string().contains("out of range"), "{what}: {err}");
            }
        }
    }

    /// The split between the two loaders: damage in a section the
    /// execution-CSR loader does not read (the other CSR, the remap table)
    /// passes that loader, which returns the intact execution graph, and
    /// fails `map_prepared`, which checks every section.
    #[test]
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    fn unread_section_damage_passes_the_execution_loader_and_fails_map_prepared() {
        let pg = PreparedGraph::from_edge_list(
            &generators::gnm(64, 200, 5),
            ReorderPolicy::DegreeDescending,
        );
        let mut image = Vec::new();
        write_prepared(&pg, &mut image).unwrap();
        let table: Vec<Section> = parse_prepared(&image, Sections::All)
            .unwrap()
            .sections
            .iter()
            .map(|&(s, _)| s)
            .collect();
        for reorder in [false, true] {
            let read = Sections::ExecutionCsr { reorder }.range(true);
            let unread: Vec<usize> = (0..table.len()).filter(|i| !read.contains(i)).collect();
            assert_eq!(
                unread.len(),
                4,
                "three sections of the other CSR and the remap table"
            );
            for i in unread {
                let s = table[i];
                let mut flipped = image.clone();
                flipped[s.start] ^= 0x80;
                let what = format!("section {i}, reorder={reorder}");
                let got = map_execution_bytes(&flipped, reorder)
                    .unwrap_or_else(|e| panic!("{what}: the loader does not read it: {e}"));
                let want = pg.execution_graph(reorder);
                assert_eq!(got.offsets(), want.offsets(), "{what}");
                assert_eq!(got.dst(), want.dst(), "{what}");
                assert_eq!(got.reverse_index(), want.reverse_index(), "{what}");
                let err = full_map(&flipped).unwrap_err();
                let want = format!("checksum mismatch in section {i}");
                assert!(err.to_string().contains(&want), "{what}: {err}");
            }
        }
    }

    #[test]
    fn stale_format_version_rebuilds_silently() {
        // A CNCPREP3-era file (old magic digit) must be treated as a cache
        // miss: prepared_on_disk rebuilds and overwrites it, surfacing no
        // error. Exercised end to end through the disk-cache entry point.
        let dir = std::env::temp_dir().join(format!(
            "cnc-prep-stale-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let (dataset, scale, policy) = (Dataset::OrS, Scale::Tiny, ReorderPolicy::DegreeDescending);
        let fresh = prepared_on_disk(&dir, dataset, scale, policy);
        let path = cache_path(&dir, dataset, scale, policy);
        let mut bytes = fs::read(&path).unwrap();
        bytes[7] = b'3'; // CNCPREP5 → CNCPREP3
        fs::write(&path, &bytes).unwrap();
        let before = metrics();
        let back = prepared_on_disk(&dir, dataset, scale, policy);
        let d = metrics().since(&before);
        assert_eq!(d.disk_hits, 0, "stale file must not count as a hit");
        assert_eq!(d.graph_builds, 1, "stale file must trigger a rebuild");
        assert_eq!(d.disk_writes, 1, "rebuild must refresh the cache file");
        assert_eq!(back.graph(), fresh.graph());
        assert_eq!(back.graph().reverse_index(), fresh.graph().reverse_index());
        assert_eq!(&fs::read(&path).unwrap()[..8], PREPARED_MAGIC);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `CNCPREP4` image — the last format with 8-byte reverse-index
    /// sections — is refused by its magic before any other field is read,
    /// so a cache written by an older build is rebuilt.
    #[test]
    fn previous_format_is_refused_by_its_magic() {
        let pg = PreparedGraph::from_edge_list(
            &generators::gnm(40, 90, 9),
            ReorderPolicy::DegreeDescending,
        );
        let mut image = Vec::new();
        write_prepared(&pg, &mut image).unwrap();
        assert_eq!(&image[..8], b"CNCPREP5");
        image[7] = b'4';
        let refusal = "bad magic: not a CNCPREP5 file";
        let err = read_prepared(image.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(refusal), "{err}");
        #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
        for err in [
            full_map(&image).unwrap_err(),
            map_execution_bytes(&image, true).unwrap_err(),
        ] {
            assert!(err.to_string().contains(refusal), "{err}");
        }
    }

    /// `bytes_mapped` counts every section a load serves in place: each
    /// mapped CSR's offsets, neighbors and reverse index, pinned against
    /// the image's section table. The remap table is read to the heap.
    #[test]
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    fn bytes_mapped_counts_every_section_served_in_place() {
        let el = generators::hub_web(300, 6.0, 2, 0.4, 3);
        for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            let pg = PreparedGraph::from_edge_list(&el, policy);
            let mut image = Vec::new();
            write_prepared(&pg, &mut image).unwrap();
            let table: Vec<Section> = parse_prepared(&image, Sections::All)
                .unwrap()
                .sections
                .iter()
                .map(|&(s, _)| s)
                .collect();
            let payloads = |sections: &[Section]| -> u64 {
                sections.iter().map(|s| s.payload_len as u64).sum()
            };
            let csr_sections = &table[..table.len() / 3 * 3];
            let before = metrics();
            let full = full_map(&image).unwrap();
            let want = payloads(csr_sections);
            assert_eq!(full.mapped_bytes(), want, "{}", policy.tag());
            assert_eq!(metrics().since(&before).bytes_mapped, want);
            for reorder in [false, true] {
                let read = Sections::ExecutionCsr { reorder }.range(pg.reordered().is_some());
                let before = metrics();
                let g = map_execution_bytes(&image, reorder).unwrap();
                let want = payloads(&table[read]);
                assert_eq!(g.mapped_bytes() as u64, want, "reorder={reorder}");
                assert_eq!(metrics().since(&before).bytes_mapped, want);
                assert!(g.mapped_bytes() > g.csr_bytes(), "the reverse index counts");
            }
        }
    }

    #[test]
    fn metrics_display_format() {
        let m = PrepareMetrics {
            graph_builds: 1,
            reorders: 2,
            mem_hits: 3,
            disk_hits: 4,
            disk_writes: 5,
            mmap_hits: 6,
            bytes_mapped: 7,
            spill_runs: 8,
            spill_bytes: 9,
            stream_chunks: 10,
            peak_resident_bytes: 11,
        };
        assert_eq!(
            m.to_string(),
            "graph_builds=1 reorders=2 mem_hits=3 disk_hits=4 disk_writes=5 mmap_hits=6 bytes_mapped=7 spill_runs=8 spill_bytes=9 stream_chunks=10 peak_resident_bytes=11"
        );
    }

    #[test]
    fn process_cache_returns_same_arc() {
        // Use the in-memory layer through `prepared` twice; second call must
        // be a mem hit sharing the same allocation. Point the disk layer at
        // a throwaway directory so this test does not touch results/cache.
        let dir = std::env::temp_dir().join(format!("cnc-prep-mem-{}", std::process::id()));
        std::env::set_var("CNC_CACHE_DIR", &dir);
        let a = prepared(Dataset::LjS, Scale::Tiny, ReorderPolicy::None);
        let before = metrics();
        let b = prepared(Dataset::LjS, Scale::Tiny, ReorderPolicy::None);
        let d = metrics().since(&before);
        std::env::remove_var("CNC_CACHE_DIR");
        let _ = fs::remove_dir_all(&dir);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(d.mem_hits, 1);
        assert_eq!(d.graph_builds, 0);
        assert_eq!(d.reorders, 0);
    }
}
