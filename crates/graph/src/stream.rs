//! Out-of-core, bounded-memory graph preparation.
//!
//! Every other path from an edge list to a [`crate::PreparedGraph`] buffers
//! the full `Vec<(u32, u32)>` — O(|E|) heap — before the CSR is built. This
//! module is the billion-edge alternative: a streaming pipeline whose peak
//! resident memory is **O(|V| + chunk)** regardless of |E|:
//!
//! ```text
//! SNAP text / CNCCSR01 binary / pair iterator
//!   → fixed-size chunk reader                      (chunk bytes)
//!   → canonicalize (drop loops, orient min ≤ max)
//!   → external sort: budgeted buffer → spill runs  (budget bytes)
//!   → k-way merge, cross-run dedup (re-iterable)
//!   → pass 1: degree count                         (|V| words)
//!   → offsets, then pass 2: cursor scatter + skew  (|V| cursor words)
//!   → reverse walk; relabel rows when the policy   (|V| cursor words /
//!     reorders                                       2|V| remap words)
//!     — all written through typed views of the
//!     mmap'd cache file's sections
//! ```
//!
//! The memory budget comes from [`PREP_MEM_BYTES_ENV`] (or an explicit
//! [`StreamConfig`]); when the canonical edges outgrow it, sorted
//! deduplicated runs spill to disk in the `CNCRUN01` format and are merged
//! back — twice, since CSR construction needs a degree pass before the
//! placement pass.
//!
//! This module fills no array itself. The offsets, the cursor scatter, the
//! reverse walk and the per-row relabel are the fillers the heap builder
//! runs ([`crate::CsrGraph::from_edge_list`], [`crate::reorder`]), called
//! here on `&mut [usize]` / `&mut [u32]` views of the mapped sections
//! ([`crate::mmap::typed_mut`]). The file's layout, its file and section
//! headers, the relabel order and the skew statistic come from the same
//! definitions [`crate::prepare::write_prepared`] uses ([`crate::prepare`],
//! [`crate::stats`]), so a streamed image is **byte-identical** to the
//! in-memory writer's — the property the differential test suite pins on
//! every dataset analogue. The views alias the file's u64 little-endian
//! sections only where [`crate::mmap::zero_copy_layout`] holds; on other
//! targets the merged stream goes to the heap builder and the image is
//! written by `write_prepared` (same bytes, memory no longer bounded).
//!
//! Work is accounted in [`crate::prepare::PrepareMetrics`] (`spill_runs`,
//! `spill_bytes`, `stream_chunks`, `peak_resident_bytes`) and mirrored to
//! the `cnc-obs` counters of the same names. All input-dependent failures —
//! malformed text, truncated or vanished spill runs, unwritable output — are
//! typed [`io::Error`]s, never panics.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::collections::BinaryHeap;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{Reader, Writer};
use crate::csr::{
    check_edge_count, count_degrees, fill_offsets, fill_reverse, scatter_sorted, CsrGraph,
};
use crate::io::{expect_end, inconsistent, parse_edge_line, read_csr_head};
use crate::mmap::{self, typed_mut, MappedFile, MappedFileMut};
use crate::prepare::{self, bump, PreparedGraph, ReorderPolicy, Section};
use crate::reorder::{degree_descending_order, invert, relabel_rows};
use crate::stats::{SkewTally, SKEW_THRESHOLD};

/// Environment variable holding the preparation memory budget in bytes.
/// When set, the cache-miss path of [`crate::prepare::prepared_on_disk`]
/// routes through this module instead of the in-memory builder, and
/// `cnc prepare` takes it as the default for `--mem-budget`.
pub const PREP_MEM_BYTES_ENV: &str = "CNC_PREP_MEM_BYTES";

/// Magic header of a spill run file: sorted, deduplicated canonical pairs.
const RUN_MAGIC: &[u8; 8] = b"CNCRUN01";

/// Smallest sort buffer the budget can clamp down to (pairs). A budget
/// smaller than one chunk still works — it just spills often.
const MIN_BUFFER_PAIRS: usize = 512;

/// Sort-buffer size when no budget is configured (2^26 pairs = 512 MiB).
const DEFAULT_BUFFER_PAIRS: usize = 1 << 26;

/// Input chunk bounds: readers pull fixed-size chunks in `[4 KiB, 1 MiB]`,
/// shrunk when the budget is tighter than the default chunk.
const MIN_CHUNK_BYTES: usize = 4096;
const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// Tuning knobs of the streaming pipeline.
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// Memory budget in bytes for the external sort buffer (and, scaled
    /// down, the input chunk and merge reader buffers). `None` uses the
    /// large in-memory default and effectively never spills.
    pub mem_budget: Option<u64>,
    /// Directory for spill runs; the system temp directory when `None`.
    /// Each build creates (and removes) its own unique subdirectory.
    pub spill_dir: Option<PathBuf>,
}

impl StreamConfig {
    /// The configuration [`PREP_MEM_BYTES_ENV`] describes: `Some` with that
    /// budget when the variable holds a positive integer, `None` otherwise.
    pub fn budgeted_from_env() -> Option<Self> {
        let budget = std::env::var(PREP_MEM_BYTES_ENV)
            .ok()?
            .trim()
            .parse::<u64>()
            .ok()?;
        if budget == 0 {
            return None;
        }
        Some(Self {
            mem_budget: Some(budget),
            spill_dir: None,
        })
    }

    fn buffer_pairs(&self) -> usize {
        match self.mem_budget {
            Some(b) => usize::try_from(b / 8)
                .unwrap_or(usize::MAX)
                .clamp(MIN_BUFFER_PAIRS, DEFAULT_BUFFER_PAIRS),
            None => DEFAULT_BUFFER_PAIRS,
        }
    }

    fn chunk_bytes(&self) -> usize {
        match self.mem_budget {
            Some(b) => usize::try_from(b / 4)
                .unwrap_or(usize::MAX)
                .clamp(MIN_CHUNK_BYTES, DEFAULT_CHUNK_BYTES),
            None => DEFAULT_CHUNK_BYTES,
        }
    }

    fn merge_reader_bytes(&self, runs: usize) -> usize {
        match self.mem_budget {
            Some(b) => usize::try_from(b / (4 * runs.max(1) as u64))
                .unwrap_or(usize::MAX)
                .clamp(MIN_CHUNK_BYTES, 64 * 1024),
            None => 64 * 1024,
        }
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// What a streamed preparation did, returned by the `prepare_*` entry
/// points and reported by the `cnc prepare` subcommand.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamSummary {
    /// Vertices of the prepared graph (max of the declared count and the
    /// largest id seen + 1).
    pub num_vertices: usize,
    /// Directed edge slots written (2 × unique undirected edges).
    pub num_directed_edges: usize,
    /// External-sort runs spilled to disk (0 when the input fit the budget).
    pub spill_runs: u64,
    /// Bytes written to spill run files.
    pub spill_bytes: u64,
    /// Fixed-size input chunks consumed.
    pub stream_chunks: u64,
    /// Peak accounted heap bytes of the build (sort buffer, degree array,
    /// the one cursor array, merge readers, remap tables — everything the
    /// pipeline allocates that scales with the input).
    pub peak_resident_bytes: u64,
    /// Size of the finished `CNCPREP5` file.
    pub file_bytes: u64,
}

/// Self-accounted resident-memory high-water mark. The pipeline's bound is
/// analytic (it knows every allocation it makes), so the tracker simply
/// records the maximum of the concurrent totals it is told about.
#[derive(Debug, Default, Clone, Copy)]
struct Peak {
    peak: u64,
}

impl Peak {
    fn observe(&mut self, concurrent_bytes: u64) {
        self.peak = self.peak.max(concurrent_bytes);
    }
}

// ---------------------------------------------------------------------------
// Chunked edge sources.
// ---------------------------------------------------------------------------

/// A source of raw `(u, v)` pairs read in fixed-size chunks.
trait EdgeSource {
    /// The next raw pair, `None` at end of input.
    fn next_pair(&mut self) -> io::Result<Option<(u32, u32)>>;
    /// Chunks consumed so far.
    fn chunks(&self) -> u64;
    /// Vertex count declared by the source itself (0 when unknown — text
    /// files infer it from the largest id).
    fn declared_vertices(&self) -> usize;
    /// Bytes of buffer this source holds resident.
    fn resident_bytes(&self) -> u64;
}

/// SNAP text source: fixed-size chunk reads with partial-line carry, exact
/// line numbers across chunk boundaries, and the same per-line parser (and
/// diagnostics) as [`crate::io::read_edge_list`].
struct TextSource<R: Read> {
    reader: R,
    buf: Vec<u8>,
    /// Unconsumed range of `buf` is `pos..buf.len()`.
    pos: usize,
    chunk_bytes: usize,
    eof: bool,
    chunks: u64,
    lineno: u64,
}

impl<R: Read> TextSource<R> {
    fn new(reader: R, chunk_bytes: usize) -> Self {
        Self {
            reader,
            buf: Vec::new(),
            pos: 0,
            chunk_bytes,
            eof: false,
            chunks: 0,
            lineno: 0,
        }
    }

    /// Compact the consumed prefix away and read one more chunk.
    fn refill(&mut self) -> io::Result<()> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let old_len = self.buf.len();
        self.buf.resize(old_len + self.chunk_bytes, 0);
        let mut filled = old_len;
        // Loop: Read::read may return short counts without being at EOF.
        while filled < self.buf.len() {
            let got = self.reader.read(&mut self.buf[filled..])?;
            if got == 0 {
                self.eof = true;
                break;
            }
            filled += got;
        }
        self.buf.truncate(filled);
        if filled > old_len {
            self.chunks += 1;
        }
        Ok(())
    }

    /// The next complete line (without terminator), refilling as needed. At
    /// EOF a trailing unterminated line is still yielded.
    fn next_line(&mut self) -> io::Result<Option<(u64, std::ops::Range<usize>)>> {
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let start = self.pos;
                self.pos += nl + 1;
                self.lineno += 1;
                return Ok(Some((self.lineno, start..start + nl)));
            }
            if self.eof {
                if self.pos < self.buf.len() {
                    let start = self.pos;
                    self.pos = self.buf.len();
                    self.lineno += 1;
                    return Ok(Some((self.lineno, start..self.buf.len())));
                }
                return Ok(None);
            }
            self.refill()?;
        }
    }
}

impl<R: Read> EdgeSource for TextSource<R> {
    fn next_pair(&mut self) -> io::Result<Option<(u32, u32)>> {
        while let Some((lineno, range)) = self.next_line()? {
            let line = std::str::from_utf8(&self.buf[range])
                .map_err(|e| invalid(format!("line {lineno}: not valid UTF-8 ({e})")))?;
            if let Some(pair) = parse_edge_line(lineno, line)? {
                return Ok(Some(pair));
            }
        }
        Ok(None)
    }

    fn chunks(&self) -> u64 {
        self.chunks
    }

    fn declared_vertices(&self) -> usize {
        0
    }

    fn resident_bytes(&self) -> u64 {
        (self.chunk_bytes * 2) as u64
    }
}

/// Binary `CNCCSR01` source: holds the O(|V|) offset array, streams the
/// adjacency array in chunks, and emits each undirected edge once (the
/// `u < v` direction of the symmetric CSR).
///
/// It refuses what [`crate::io::read_csr`] refuses, with its messages: the
/// header and offsets come from the same parser, each row is checked as it
/// is read (ids below `|V|`, strictly ascending, no self-loops), and
/// [`check_csr_image`] checks symmetry against the finished image.
struct BinaryCsrSource<R: Read> {
    reader: R,
    offsets: Vec<usize>,
    /// The decoded rest of the current chunk, and the slots not read yet.
    ids: std::vec::IntoIter<u32>,
    unread: usize,
    /// Next adjacency slot, its owning source vertex, and the previous id
    /// of that vertex's row.
    eid: usize,
    src: usize,
    prev: Option<u32>,
    chunk_bytes: usize,
    chunks: u64,
}

impl<R: Read> BinaryCsrSource<R> {
    fn new(mut reader: R, chunk_bytes: usize) -> io::Result<Self> {
        let (offsets, unread) = read_csr_head(&mut reader)?;
        Ok(Self {
            reader,
            offsets,
            ids: Vec::new().into_iter(),
            unread,
            eid: 0,
            src: 0,
            prev: None,
            chunk_bytes,
            chunks: 1, // header + offsets
        })
    }

    fn next_id(&mut self) -> io::Result<Option<u32>> {
        if self.ids.len() == 0 && self.unread > 0 {
            let take = self.unread.min((self.chunk_bytes / 4).max(1));
            let mut raw = vec![0u8; take * 4];
            self.reader.read_exact(&mut raw).map_err(|e| {
                invalid(format!(
                    "truncated CNCCSR01 adjacency at slot {}: {e}",
                    self.eid
                ))
            })?;
            self.ids = Reader::new(&raw).u32s(take, "adjacency")?.into_iter();
            self.unread -= take;
            self.chunks += 1;
        }
        Ok(self.ids.next())
    }
}

impl<R: Read> EdgeSource for BinaryCsrSource<R> {
    fn next_pair(&mut self) -> io::Result<Option<(u32, u32)>> {
        while let Some(v) = self.next_id()? {
            // Advance the source cursor past empty ranges to the vertex
            // owning this adjacency slot (the offsets end at |dst|, so it
            // stays below |V|).
            while self
                .offsets
                .get(self.src + 1)
                .is_some_and(|&o| o <= self.eid)
            {
                self.src += 1;
                self.prev = None;
            }
            self.eid += 1;
            let u = u32::try_from(self.src).map_err(|_| invalid("|V| exceeds u32 vertex ids"))?;
            if self.prev.is_some_and(|p| p >= v) {
                return Err(inconsistent(format!(
                    "neighbors of {u} not strictly ascending"
                )));
            }
            if v as usize >= self.declared_vertices() {
                return Err(inconsistent(format!("neighbor {v} of {u} out of range")));
            }
            if v == u {
                return Err(inconsistent(format!("self-loop at {u}")));
            }
            self.prev = Some(v);
            // Symmetric CSR lists each undirected edge twice; forward the
            // canonical direction only.
            if u < v {
                return Ok(Some((u, v)));
            }
        }
        Ok(None)
    }

    fn chunks(&self) -> u64 {
        self.chunks
    }

    fn declared_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn resident_bytes(&self) -> u64 {
        (self.offsets.len() * 8 + self.chunk_bytes * 2) as u64
    }
}

/// The last step of the `CNCCSR01` acceptance rule, after the build: the
/// image streamed from `input` must hold the file's own offsets and
/// adjacency, row for row, in one more sequential read of the file, and
/// nothing may follow the adjacency (as in [`crate::io::read_csr`]). The
/// source checked every row's shape, so a difference means the file is not
/// symmetric; the first differing id names an edge without its mirror.
fn check_csr_image(input: &Path, image: &Path, summary: &StreamSummary) -> io::Result<()> {
    let (file, map) = (MappedFile::open(input)?, MappedFile::open(image)?);
    let mut file_bytes = file.bytes();
    let (file_offsets, _) = read_csr_head(&mut file_bytes)?;
    let mut file_ids = Reader::new(file_bytes);
    let layout = prepare::layout(summary.num_vertices, summary.num_directed_edges, false)?;
    let [offsets, dst, ..] = layout.sections.as_slice() else {
        return Err(invalid("CNCPREP5 layout without CSR sections"));
    };
    let mut image_offsets = Reader::new(offsets.bytes(map.bytes()));
    let mut image_ids = Reader::new(dst.bytes(map.bytes()));
    let mut start = image_offsets.usize("image offsets")?;
    for (u, f) in file_offsets.windows(2).enumerate() {
        let end = image_offsets.usize("image offsets")?;
        let file_row = file_ids.u32s(f[1] - f[0], "adjacency")?;
        let image_row = image_ids.u32s(end - start, "image adjacency")?;
        start = end;
        let k = file_row
            .iter()
            .zip(&image_row)
            .take_while(|(a, b)| a == b)
            .count();
        let (x, y) = match (file_row.get(k), image_row.get(k)) {
            (None, None) => continue,
            // `b` came from the file's `b → u`, which has no `u → b`.
            (Some(&a), Some(&b)) if b < a => (b as usize, u),
            (None, Some(&b)) => (b as usize, u),
            // `u → a` is in the file's row but not the image's: no `a → u`.
            (Some(&a), _) => (u, a as usize),
        };
        return Err(inconsistent(format!("edge ({x},{y}) not symmetric")));
    }
    Ok(file_ids.finish()?)
}

/// Pair-iterator source (dataset generators): the iterator itself is the
/// chunking, so `chunks` stays 0.
struct PairSource<I> {
    iter: I,
    declared: usize,
}

impl<I: Iterator<Item = (u32, u32)>> EdgeSource for PairSource<I> {
    fn next_pair(&mut self) -> io::Result<Option<(u32, u32)>> {
        Ok(self.iter.next())
    }

    fn chunks(&self) -> u64 {
        0
    }

    fn declared_vertices(&self) -> usize {
        self.declared
    }

    fn resident_bytes(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// External sort: budgeted buffer → spill runs → re-iterable sorted merge.
// ---------------------------------------------------------------------------

/// Monotonic discriminator so concurrent builds in one process never share a
/// spill directory.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Budgeted external sorter for canonical undirected edges.
///
/// [`push`](Self::push) canonicalizes raw pairs (drops self-loops, orients
/// `min ≤ max`) into a buffer capped by the memory budget; a full buffer is
/// sorted, deduplicated, and spilled as a `CNCRUN01` run file.
/// [`into_sorted`](Self::into_sorted) produces a [`SortedEdges`] that can be
/// iterated multiple times — the two-pass CSR build needs a degree pass and
/// a placement pass over the same globally sorted, deduplicated stream.
#[derive(Debug)]
pub struct ExternalSorter {
    buf: Vec<(u32, u32)>,
    cap: usize,
    dir: PathBuf,
    /// Whether `dir` was created by (and should be removed with) the sorter.
    owns_dir: bool,
    runs: Vec<PathBuf>,
    spill_bytes: u64,
    max_id_plus1: usize,
    config: StreamConfig,
}

impl ExternalSorter {
    /// A sorter spilling under `config.spill_dir` (the system temp directory
    /// when unset); the unique per-build subdirectory is created eagerly so
    /// an unwritable spill location fails fast.
    pub fn new(config: &StreamConfig) -> io::Result<Self> {
        let base = config.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "cnc-spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        let cap = config.buffer_pairs();
        Ok(Self {
            buf: Vec::new(),
            cap,
            dir,
            owns_dir: true,
            runs: Vec::new(),
            spill_bytes: 0,
            max_id_plus1: 0,
            config: config.clone(),
        })
    }

    /// The directory this sorter spills runs into.
    pub fn spill_dir(&self) -> &Path {
        &self.dir
    }

    /// Number of runs spilled so far.
    pub fn spill_runs(&self) -> u64 {
        self.runs.len() as u64
    }

    /// Add one raw pair. Ids feed the inferred vertex count (self-loops
    /// included, matching [`crate::EdgeList::push`]); the loop edge itself
    /// is dropped.
    pub fn push(&mut self, u: u32, v: u32) -> io::Result<()> {
        self.max_id_plus1 = self.max_id_plus1.max(u.max(v) as usize + 1);
        if u == v {
            return Ok(());
        }
        let pair = if u < v { (u, v) } else { (v, u) };
        if self.buf.len() >= self.cap {
            self.spill()?;
        }
        self.buf.push(pair);
        Ok(())
    }

    fn spill(&mut self) -> io::Result<()> {
        self.buf.sort_unstable();
        self.buf.dedup();
        let path = self.dir.join(format!("run-{}.cncrun", self.runs.len()));
        let file = File::create(&path)?;
        let mut w = BufWriter::new(file);
        let mut header = Writer::with_capacity(16);
        header.bytes(RUN_MAGIC);
        header.usize(self.buf.len());
        w.write_all(header.as_bytes())?;
        for &(u, v) in &self.buf {
            w.write_all(&u.to_le_bytes())?;
            w.write_all(&v.to_le_bytes())?;
        }
        w.flush()?;
        let bytes = 16 + self.buf.len() as u64 * 8;
        self.spill_bytes += bytes;
        self.runs.push(path);
        self.buf.clear();
        bump(|m| {
            m.spill_runs += 1;
            m.spill_bytes += bytes;
        });
        Ok(())
    }

    /// Finish ingestion: the sorted, deduplicated edge stream plus the
    /// inferred vertex bound. When nothing spilled, the stream is served
    /// from the (sorted, deduplicated) buffer; otherwise the final partial
    /// buffer becomes the last run and every iteration is a k-way file
    /// merge with cross-run deduplication.
    pub fn into_sorted(mut self) -> io::Result<SortedEdges> {
        if self.runs.is_empty() {
            self.buf.sort_unstable();
            self.buf.dedup();
            let buf = std::mem::take(&mut self.buf);
            return Ok(SortedEdges {
                mode: SortedMode::Memory(buf),
                dir: self.take_dir(),
                spill_bytes: self.spill_bytes,
                max_id_plus1: self.max_id_plus1,
            });
        }
        if !self.buf.is_empty() {
            self.spill()?;
        }
        let runs = std::mem::take(&mut self.runs);
        let reader_bytes = self.config.merge_reader_bytes(runs.len());
        Ok(SortedEdges {
            mode: SortedMode::Runs(runs, reader_bytes),
            dir: self.take_dir(),
            spill_bytes: self.spill_bytes,
            max_id_plus1: self.max_id_plus1,
        })
    }

    fn take_dir(&mut self) -> Option<PathBuf> {
        if self.owns_dir {
            self.owns_dir = false;
            Some(self.dir.clone())
        } else {
            None
        }
    }
}

impl Drop for ExternalSorter {
    fn drop(&mut self) {
        if self.owns_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

#[derive(Debug)]
enum SortedMode {
    Memory(Vec<(u32, u32)>),
    /// Run files + per-run reader buffer size.
    Runs(Vec<PathBuf>, usize),
}

/// The output of an [`ExternalSorter`]: a globally sorted, deduplicated
/// stream of canonical edges that can be iterated any number of times.
/// Owns the spill directory; dropping it removes the runs.
#[derive(Debug)]
pub struct SortedEdges {
    mode: SortedMode,
    dir: Option<PathBuf>,
    spill_bytes: u64,
    max_id_plus1: usize,
}

impl Drop for SortedEdges {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

impl SortedEdges {
    /// Largest raw id seen + 1 (self-loop endpoints included).
    pub fn max_id_plus1(&self) -> usize {
        self.max_id_plus1
    }

    /// Number of spill runs backing the stream (0 in memory mode).
    pub fn spill_runs(&self) -> u64 {
        match &self.mode {
            SortedMode::Memory(_) => 0,
            SortedMode::Runs(runs, _) => runs.len() as u64,
        }
    }

    /// Total bytes written to spill runs.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    /// Bytes the stream holds resident: the in-memory buffer, or the merge
    /// readers' buffers.
    pub fn resident_bytes(&self) -> u64 {
        match &self.mode {
            SortedMode::Memory(buf) => (buf.capacity() * 8) as u64,
            SortedMode::Runs(runs, reader_bytes) => (runs.len() * reader_bytes) as u64,
        }
    }

    /// Begin one pass over the sorted, deduplicated edges. Fails with a
    /// typed error (never a panic) if a spill run has vanished or is
    /// malformed.
    pub fn iter(&self) -> io::Result<SortedIter<'_>> {
        match &self.mode {
            SortedMode::Memory(buf) => Ok(SortedIter {
                inner: SortedIterInner::Memory(buf.iter()),
            }),
            SortedMode::Runs(runs, reader_bytes) => {
                let mut readers = Vec::with_capacity(runs.len());
                for path in runs {
                    readers.push(RunReader::open(path, *reader_bytes)?);
                }
                let mut heap = BinaryHeap::with_capacity(readers.len());
                for (i, r) in readers.iter_mut().enumerate() {
                    if let Some(pair) = r.next()? {
                        heap.push(std::cmp::Reverse((pair, i)));
                    }
                }
                Ok(SortedIter {
                    inner: SortedIterInner::Merge {
                        readers,
                        heap,
                        last: None,
                    },
                })
            }
        }
    }
}

/// One pass over a [`SortedEdges`] stream.
#[derive(Debug)]
pub struct SortedIter<'a> {
    inner: SortedIterInner<'a>,
}

#[derive(Debug)]
enum SortedIterInner<'a> {
    Memory(std::slice::Iter<'a, (u32, u32)>),
    Merge {
        readers: Vec<RunReader>,
        heap: BinaryHeap<std::cmp::Reverse<((u32, u32), usize)>>,
        last: Option<(u32, u32)>,
    },
}

impl Iterator for SortedIter<'_> {
    type Item = io::Result<(u32, u32)>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            SortedIterInner::Memory(it) => it.next().map(|&p| Ok(p)),
            SortedIterInner::Merge {
                readers,
                heap,
                last,
            } => loop {
                let std::cmp::Reverse((pair, i)) = heap.pop()?;
                match readers[i].next() {
                    Ok(Some(next)) => heap.push(std::cmp::Reverse((next, i))),
                    Ok(None) => {}
                    Err(e) => return Some(Err(e)),
                }
                // Runs are deduplicated individually; duplicates across runs
                // surface here as equal consecutive pops.
                if *last == Some(pair) {
                    continue;
                }
                *last = Some(pair);
                return Some(Ok(pair));
            },
        }
    }
}

/// Reader over one `CNCRUN01` spill run. Truncation — fewer pairs on disk
/// than the header promised — and bytes after the last pair are
/// [`io::ErrorKind::InvalidData`] errors.
#[derive(Debug)]
struct RunReader {
    reader: BufReader<File>,
    remaining: u64,
    path: PathBuf,
}

impl RunReader {
    fn open(path: &Path, reader_bytes: usize) -> io::Result<Self> {
        let file = File::open(path)?;
        let mut reader = BufReader::with_capacity(reader_bytes, file);
        let mut header = [0u8; 16];
        reader
            .read_exact(&mut header)
            .map_err(|e| invalid(format!("truncated spill run {}: {e}", path.display())))?;
        let mut h = Reader::new(&header);
        let remaining = h
            .magic(RUN_MAGIC)
            .and_then(|()| h.u64("run length"))
            .map_err(|e| invalid(format!("bad spill run {}: {e}", path.display())))?;
        Ok(Self {
            reader,
            remaining,
            path: path.to_path_buf(),
        })
    }

    fn next(&mut self) -> io::Result<Option<(u32, u32)>> {
        if self.remaining == 0 {
            expect_end(&mut self.reader)
                .map_err(|e| invalid(format!("bad spill run {}: {e}", self.path.display())))?;
            return Ok(None);
        }
        let mut raw = [0u8; 8];
        self.reader.read_exact(&mut raw).map_err(|e| {
            invalid(format!(
                "truncated spill run {}: {} pairs missing ({e})",
                self.path.display(),
                self.remaining
            ))
        })?;
        self.remaining -= 1;
        let mut pair = Reader::new(&raw);
        Ok(Some((pair.u32("pair source")?, pair.u32("pair target")?)))
    }
}

// ---------------------------------------------------------------------------
// Two-pass CNCPREP5 assembly into a write-mode mapping.
// ---------------------------------------------------------------------------

/// The payload of every section of `image`, in file order, as disjoint
/// writable slices.
fn section_payloads<'a>(mut image: &'a mut [u8], sections: &[Section]) -> Vec<&'a mut [u8]> {
    let mut at = 0;
    let mut payloads = Vec::with_capacity(sections.len());
    for s in sections {
        let (payload, rest) =
            std::mem::take(&mut image)[s.start - at..].split_at_mut(s.payload_len);
        payloads.push(payload);
        image = rest;
        at = s.start + s.payload_len;
    }
    payloads
}

/// The streamed build core: consume `source` through an external sorter and
/// fill the payloads of a `CNCPREP5` image at `out` — laid out, and sealed
/// with its headers, by [`crate::prepare`] — through typed views of a
/// write-mode mapping, with the CSR fillers the heap builder runs. Returns
/// the summary; the caller owns tmp-name/rename protocol and metrics
/// attribution.
fn build_to_path(
    mut source: Box<dyn EdgeSource + '_>,
    policy: ReorderPolicy,
    out: &Path,
    config: &StreamConfig,
) -> io::Result<StreamSummary> {
    let mut peak = Peak::default();
    let mut sorter = ExternalSorter::new(config)?;
    let declared = source.declared_vertices();
    while let Some((u, v)) = source.next_pair()? {
        sorter.push(u, v)?;
    }
    // The sort buffer's allocation, which stops at the cap only when the
    // input fills it.
    peak.observe(source.resident_bytes() + (sorter.buf.capacity() * 8) as u64);
    let stream_chunks = source.chunks();
    drop(source);
    let sorted = sorter.into_sorted()?;
    let n = sorted.max_id_plus1().max(declared);
    let (m_dir, file_bytes) = if mmap::zero_copy_layout() {
        fill_mapped(&sorted, n, policy, out, &mut peak)?
    } else {
        write_from_heap(&sorted, n, policy, out, &mut peak)?
    };
    let summary = StreamSummary {
        num_vertices: n,
        num_directed_edges: m_dir,
        spill_runs: sorted.spill_runs(),
        spill_bytes: sorted.spill_bytes(),
        stream_chunks,
        peak_resident_bytes: peak.peak,
        file_bytes,
    };
    bump(|m| {
        m.stream_chunks += summary.stream_chunks;
        m.peak_resident_bytes += summary.peak_resident_bytes;
    });
    Ok(summary)
}

/// Two passes over the merged stream into a mapped image: degrees, then
/// the cursor scatter of the original CSR with the skew tally, then the
/// reverse walk and, under the degree-descending policy, the per-row
/// relabel. Returns the directed edge count and the file length.
fn fill_mapped(
    sorted: &SortedEdges,
    n: usize,
    policy: ReorderPolicy,
    out: &Path,
    peak: &mut Peak,
) -> io::Result<(usize, u64)> {
    // Pass 1: degrees. |V| words + the merge readers.
    let deg = count_degrees(n, sorted.iter()?)?;
    peak.observe((deg.len() * 4) as u64 + sorted.resident_bytes());
    let m_dir = deg
        .iter()
        .try_fold(0usize, |acc, &d| acc.checked_add(d as usize))
        .ok_or_else(|| invalid("directed edge count overflows"))?;
    check_edge_count(m_dir)?;
    let max_degree = deg.iter().copied().max().unwrap_or(0);

    // Every section size is known now: fix the file layout. File bytes
    // arrive zero-filled, which is exactly the padding the format requires.
    let reordered = matches!(policy, ReorderPolicy::DegreeDescending);
    let layout = prepare::layout(n, m_dir, reordered)?;
    let mut map = MappedFileMut::create(out, layout.len)?;
    let bytes = map.bytes_mut();
    let skew = {
        let mut payloads = section_payloads(&mut *bytes, &layout.sections).into_iter();
        let mut next = || {
            payloads
                .next()
                .ok_or_else(|| invalid("CNCPREP5 layout without its sections"))
        };
        let (offsets, dst, rev) = (
            typed_mut::<usize>(next()?)?,
            typed_mut::<u32>(next()?)?,
            typed_mut::<u32>(next()?)?,
        );
        fill_offsets(offsets, deg.into_iter().map(|d| d as usize));
        let offsets = &*offsets;
        let degree = |u: u32| offsets[u as usize + 1] - offsets[u as usize];

        // Pass 2: the cursor scatter, tallying each canonical pair's skew
        // on the way (the degrees are final since pass 1). One cursor
        // array + the merge readers.
        peak.observe((n * 8) as u64 + sorted.resident_bytes());
        let mut skew = SkewTally::new(SKEW_THRESHOLD);
        let tallied = sorted.iter()?.inspect(|pair| {
            if let Ok((u, v)) = *pair {
                skew.add(degree(u), degree(v));
            }
        });
        scatter_sorted(offsets, dst, tallied)?;
        fill_reverse(offsets, dst, rev);

        if reordered {
            let (offsets2, dst2, rev2, new_to_old) = (
                typed_mut::<usize>(next()?)?,
                typed_mut::<u32>(next()?)?,
                typed_mut::<u32>(next()?)?,
                typed_mut::<u32>(next()?)?,
            );
            let ids = u32::try_from(n).map_err(|_| invalid("|V| exceeds u32 vertex ids"))?;
            // The order and its inverse, then one cursor array for the walk.
            peak.observe((n * 8) as u64);
            new_to_old.copy_from_slice(&degree_descending_order(ids, degree));
            let old_to_new = invert(new_to_old);
            relabel_rows((offsets, dst), new_to_old, &old_to_new, offsets2, dst2);
            drop(old_to_new);
            fill_reverse(offsets2, dst2, rev2);
        }
        skew
    };

    for s in &layout.sections {
        let header = prepare::section_header(s.bytes(bytes), s.elem_width);
        bytes[s.header_range()].copy_from_slice(&header);
    }
    let header = prepare::file_header(policy, skew.percentage(), u64::from(max_degree));
    bytes[..header.len()].copy_from_slice(&header);
    let file = map.into_file();
    file.sync_all()?;
    Ok((m_dir, layout.len as u64))
}

/// Where typed views cannot alias the file's u64 little-endian sections
/// (see [`crate::mmap::zero_copy_layout`]): hand the merged stream to the
/// heap builder and write its image with
/// [`crate::prepare::write_prepared`]. Same bytes, but the memory is no
/// longer bounded by the budget.
fn write_from_heap(
    sorted: &SortedEdges,
    n: usize,
    policy: ReorderPolicy,
    out: &Path,
    peak: &mut Peak,
) -> io::Result<(usize, u64)> {
    let pairs = sorted.iter()?.collect::<io::Result<Vec<_>>>()?;
    check_edge_count(pairs.len().saturating_mul(2))?;
    let graph = CsrGraph::from_sorted_pairs(n, &pairs);
    peak.observe((pairs.capacity() * 8 + graph.csr_bytes()) as u64);
    drop(pairs);
    let pg = PreparedGraph::derive(graph, policy);
    let file = File::create(out)?;
    prepare::write_prepared(&pg, &file)?;
    file.sync_all()?;
    Ok((pg.graph().num_directed_edges(), file.metadata()?.len()))
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

/// Stream-prepare an edge-list *file* (SNAP text or `CNCCSR01` binary,
/// sniffed by magic) into a complete `CNCPREP5` image at `out`.
///
/// The counting paths load the result with [`crate::prepare::map_prepared`]
/// — its bytes are identical to what [`crate::prepare::write_prepared`]
/// would produce from the in-memory pipeline on the same input. Counts a
/// graph build (and a reorder, under the degree-descending policy) in
/// [`crate::prepare::PrepareMetrics`].
pub fn prepare_file(
    input: &Path,
    out: &Path,
    policy: ReorderPolicy,
    config: &StreamConfig,
) -> io::Result<StreamSummary> {
    let mut file = File::open(input)?;
    let mut magic = [0u8; 8];
    let sniffed = file.read(&mut magic)?;
    file.seek(io::SeekFrom::Start(0))?;
    let chunk = config.chunk_bytes();
    let binary = sniffed == 8 && &magic == b"CNCCSR01";
    let source: Box<dyn EdgeSource> = if binary {
        Box::new(BinaryCsrSource::new(file, chunk)?)
    } else {
        Box::new(TextSource::new(file, chunk))
    };
    let summary = build_to_path(source, policy, out, config)?;
    if binary {
        if let Err(e) = check_csr_image(input, out, &summary) {
            let _ = fs::remove_file(out);
            return Err(e);
        }
    }
    bump(|m| {
        m.graph_builds += 1;
        if matches!(policy, ReorderPolicy::DegreeDescending) {
            m.reorders += 1;
        }
    });
    Ok(summary)
}

/// Stream-prepare an in-process pair iterator (dataset generators) over at
/// least `declared_vertices` ids into a `CNCPREP5` image at `out`. Same
/// output guarantee as [`prepare_file`]; the build/reorder counters are the
/// caller's to attribute (the disk-cache path counts them itself).
pub fn prepare_pairs_to_file(
    declared_vertices: usize,
    pairs: impl Iterator<Item = (u32, u32)>,
    policy: ReorderPolicy,
    out: &Path,
    config: &StreamConfig,
) -> io::Result<StreamSummary> {
    let source = Box::new(PairSource {
        iter: pairs,
        declared: declared_vertices,
    });
    build_to_path(source, policy, out, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::prepare::{read_prepared, write_prepared, PreparedGraph};
    use crate::{CsrGraph, EdgeList};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cnc-stream-{}-{}-{name}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn tiny_config(budget: u64) -> StreamConfig {
        StreamConfig {
            mem_budget: Some(budget),
            spill_dir: None,
        }
    }

    #[test]
    fn streamed_file_is_byte_identical_to_memory_writer() {
        for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            for el in [
                generators::chung_lu(300, 9.0, 2.3, 7),
                generators::gnm(200, 800, 4),
                generators::hub_web(150, 5.0, 2, 0.4, 6),
                EdgeList::new(0),
                EdgeList::new(9),
            ] {
                // Tiny budget forces spills even on these small inputs.
                let out = tmp("ident.prep");
                let summary = prepare_pairs_to_file(
                    el.num_vertices,
                    el.iter(),
                    policy,
                    &out,
                    &tiny_config(4096),
                )
                .unwrap();
                let want_pg = PreparedGraph::from_edge_list(&el, policy);
                let mut want = Vec::new();
                write_prepared(&want_pg, &mut want).unwrap();
                let got = fs::read(&out).unwrap();
                assert_eq!(
                    got, want,
                    "streamed CNCPREP5 differs (policy {policy:?}, n={})",
                    el.num_vertices
                );
                if el.len() > 600 {
                    assert!(summary.spill_runs > 0, "tiny budget must spill");
                }
                let _ = fs::remove_file(&out);
            }
        }
    }

    /// The fallback for targets whose layout typed views cannot alias
    /// writes the mapped writer's bytes.
    #[test]
    fn heap_fallback_writes_the_mapped_image() {
        for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            let el = generators::hub_web(150, 5.0, 2, 0.4, 6);
            let mut sorter = ExternalSorter::new(&tiny_config(4096)).unwrap();
            for (u, v) in el.iter() {
                sorter.push(u, v).unwrap();
            }
            let sorted = sorter.into_sorted().unwrap();
            let (mapped, heap) = (tmp("fill.prep"), tmp("heap.prep"));
            let n = el.num_vertices;
            let a = fill_mapped(&sorted, n, policy, &mapped, &mut Peak::default()).unwrap();
            let b = write_from_heap(&sorted, n, policy, &heap, &mut Peak::default()).unwrap();
            assert_eq!(a, b);
            assert_eq!(fs::read(&mapped).unwrap(), fs::read(&heap).unwrap());
            let _ = fs::remove_file(&mapped);
            let _ = fs::remove_file(&heap);
        }
    }

    #[test]
    fn text_source_roundtrip_with_tiny_chunks() {
        let el = generators::gnm(120, 500, 11);
        let mut text = Vec::new();
        crate::io::write_edge_list(&el, &mut text).unwrap();
        let mut src = TextSource::new(text.as_slice(), MIN_CHUNK_BYTES);
        let mut got = Vec::new();
        while let Some(p) = src.next_pair().unwrap() {
            got.push(p);
        }
        assert_eq!(got, el.edges);
        assert!(src.chunks() >= 1);
    }

    #[test]
    fn text_source_reports_line_numbers_across_chunks() {
        // Put the malformed line deep enough that it lands past the first
        // chunk; the reported line number must still be exact.
        let mut text = String::from("# header\n");
        for i in 0..2000u32 {
            text.push_str(&format!("{} {}\n", i, i + 1));
        }
        text.push_str("7 bad_token\n");
        let mut src = TextSource::new(text.as_bytes(), MIN_CHUNK_BYTES);
        let err = loop {
            match src.next_pair() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("malformed line must error"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("line 2002"), "wrong line number: {msg}");
        assert!(msg.contains("bad_token"), "missing offending text: {msg}");
    }

    #[test]
    fn binary_source_emits_each_edge_once() {
        let el = generators::chung_lu(150, 8.0, 2.4, 3);
        let g = CsrGraph::from_edge_list(&el);
        let mut bin = Vec::new();
        crate::io::write_csr(&g, &mut bin).unwrap();
        let mut src = BinaryCsrSource::new(bin.as_slice(), MIN_CHUNK_BYTES).unwrap();
        assert_eq!(src.declared_vertices(), g.num_vertices());
        let mut got = Vec::new();
        while let Some(p) = src.next_pair().unwrap() {
            got.push(p);
        }
        assert_eq!(got, el.edges, "one canonical pair per undirected edge");
    }

    #[test]
    fn prepare_file_handles_both_formats() {
        let el = generators::gnm(100, 420, 9);
        let pg = PreparedGraph::from_edge_list(&el, ReorderPolicy::DegreeDescending);
        let mut want = Vec::new();
        write_prepared(&pg, &mut want).unwrap();

        let text_in = tmp("in.txt");
        let mut f = File::create(&text_in).unwrap();
        crate::io::write_edge_list(&el, &mut f).unwrap();
        let text_out = tmp("text.prep");
        prepare_file(
            &text_in,
            &text_out,
            ReorderPolicy::DegreeDescending,
            &tiny_config(8192),
        )
        .unwrap();
        assert_eq!(fs::read(&text_out).unwrap(), want);

        let bin_in = tmp("in.csr");
        let g = CsrGraph::from_edge_list(&el);
        crate::io::write_csr(&g, File::create(&bin_in).unwrap()).unwrap();
        let bin_out = tmp("bin.prep");
        prepare_file(
            &bin_in,
            &bin_out,
            ReorderPolicy::DegreeDescending,
            &tiny_config(8192),
        )
        .unwrap();
        assert_eq!(fs::read(&bin_out).unwrap(), want);

        // And the produced image parses through the normal reader.
        let back = read_prepared(fs::read(&text_out).unwrap().as_slice()).unwrap();
        assert_eq!(back.graph(), pg.graph());
        for p in [text_in, text_out, bin_in, bin_out] {
            let _ = fs::remove_file(&p);
        }
    }

    #[test]
    fn budget_smaller_than_one_chunk_still_succeeds() {
        // A 1-byte budget clamps the buffer and chunk to their minimums
        // (512 pairs / 4 KiB) and completes — never panics, never errors.
        // The graph must exceed the clamped buffer to actually spill.
        let el = generators::gnm(300, 2000, 2);
        let out = tmp("tinybudget.prep");
        let summary = prepare_pairs_to_file(
            el.num_vertices,
            el.iter(),
            ReorderPolicy::None,
            &out,
            &tiny_config(1),
        )
        .unwrap();
        assert!(summary.spill_runs > 0);
        let pg = PreparedGraph::from_edge_list(&el, ReorderPolicy::None);
        let mut want = Vec::new();
        write_prepared(&pg, &mut want).unwrap();
        assert_eq!(fs::read(&out).unwrap(), want);
        let _ = fs::remove_file(&out);
    }

    #[test]
    fn spill_dir_deleted_mid_run_is_typed_error() {
        let mut sorter = ExternalSorter::new(&tiny_config(4096)).unwrap();
        for i in 0..4000u32 {
            sorter.push(i, i + 1).unwrap();
        }
        assert!(sorter.spill_runs() > 0, "must have spilled already");
        fs::remove_dir_all(sorter.spill_dir()).unwrap();
        // Either the final spill or the merge open fails with a typed io
        // error; nothing panics.
        let err = match sorter.into_sorted() {
            Err(e) => e,
            Ok(sorted) => match sorted.iter() {
                Err(e) => e,
                Ok(mut it) => loop {
                    match it.next() {
                        Some(Err(e)) => break e,
                        Some(Ok(_)) => continue,
                        None => panic!("vanished spill dir must surface an error"),
                    }
                },
            },
        };
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::NotFound | io::ErrorKind::InvalidData
            ),
            "unexpected error kind: {err}"
        );
    }

    #[test]
    fn truncated_spill_run_is_typed_error() {
        let mut sorter = ExternalSorter::new(&tiny_config(4096)).unwrap();
        for i in 0..4000u32 {
            sorter.push(i, i + 2).unwrap();
        }
        let sorted = sorter.into_sorted().unwrap();
        assert!(sorted.spill_runs() > 0);
        // Truncate the first run behind the merge's back.
        let SortedMode::Runs(runs, _) = &sorted.mode else {
            panic!("expected runs mode");
        };
        let victim = runs[0].clone();
        let len = fs::metadata(&victim).unwrap().len();
        let f = File::options().write(true).open(&victim).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let err = sorted
            .iter()
            .and_then(|it| {
                for p in it {
                    p?;
                }
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated spill run"), "{err}");
    }

    /// The spill-run reader under the byte mutations `tests/decode_mutation.rs`
    /// applies to the public decoders: it never panics, and a run it reads
    /// to the end re-encodes to exactly its bytes.
    #[test]
    fn mutated_spill_runs_never_panic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut sorter = ExternalSorter::new(&tiny_config(1)).unwrap();
        for i in 0..600u32 {
            sorter.push(i % 97, i / 3 + 100).unwrap();
        }
        let seed = fs::read(sorter.spill_dir().join("run-0.cncrun")).unwrap();
        let path = tmp("mutated.cncrun");
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..3_000 {
            let mut bytes = seed.clone();
            let at = rng.gen_range(0..bytes.len() + 1);
            match rng.gen_range(0u32..4) {
                0 if at < bytes.len() => bytes[at] ^= 1u8 << rng.gen_range(0u32..8),
                1 => {
                    let v = [0, 1, u64::from(u32::MAX), u64::MAX][rng.gen_range(0usize..4)];
                    for (slot, b) in bytes.iter_mut().skip(at).zip(v.to_le_bytes()) {
                        *slot = b;
                    }
                }
                2 => bytes.truncate(at),
                _ => bytes.splice(at..at, [0xff, 0x00, 0x80]).for_each(drop),
            }
            fs::write(&path, &bytes).unwrap();
            let Ok(mut reader) = RunReader::open(&path, MIN_CHUNK_BYTES) else {
                continue;
            };
            let mut pairs = Vec::new();
            let complete = loop {
                match reader.next() {
                    Ok(Some(pair)) => pairs.push(pair),
                    Ok(None) => break true,
                    Err(_) => break false,
                }
            };
            if complete {
                let mut again = Writer::with_capacity(16 + pairs.len() * 8);
                again.bytes(RUN_MAGIC);
                again.usize(pairs.len());
                for (u, v) in pairs {
                    again.u32(u);
                    again.u32(v);
                }
                assert_eq!(bytes, again.as_bytes(), "{bytes:02x?}");
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn spill_run_with_one_trailing_byte_is_refused() {
        let mut sorter = ExternalSorter::new(&tiny_config(1)).unwrap();
        for i in 0..600u32 {
            sorter.push(i, i + 1).unwrap();
        }
        let run = sorter.spill_dir().join("run-0.cncrun");
        let mut bytes = fs::read(&run).unwrap();
        bytes.push(0);
        let path = tmp("trailing.cncrun");
        fs::write(&path, &bytes).unwrap();
        let mut reader = RunReader::open(&path, MIN_CHUNK_BYTES).unwrap();
        let err = loop {
            match reader.next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("a run with a trailing byte must be refused"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1 trailing bytes"), "{err}");
        let _ = fs::remove_file(&path);
    }

    /// The streamer's `CNCCSR01` source refuses a header past the `|E|`
    /// limit with the reader's error, before it lays out any file.
    #[test]
    fn csr_input_past_the_edge_limit_is_refused() {
        let mut w = Writer::with_capacity(32);
        w.bytes(b"CNCCSR01");
        w.u64(0);
        w.u64(u64::from(u32::MAX) + 1);
        w.u64(0);
        let (input, out) = (tmp("huge.csr"), tmp("huge.prep"));
        fs::write(&input, w.as_bytes()).unwrap();
        let err = prepare_file(&input, &out, ReorderPolicy::None, &tiny_config(8192)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .starts_with("4294967296 directed edge slots exceed"),
            "{err}"
        );
        assert!(!out.exists(), "a refused input leaves no image");
        let _ = fs::remove_file(&input);
    }

    #[test]
    fn csr_input_with_one_trailing_byte_is_refused() {
        let g = CsrGraph::from_edge_list(&generators::gnm(100, 420, 9));
        let mut bin = Vec::new();
        crate::io::write_csr(&g, &mut bin).unwrap();
        bin.push(0);
        let (input, out) = (tmp("trailing.csr"), tmp("trailing.prep"));
        fs::write(&input, &bin).unwrap();
        let err = prepare_file(&input, &out, ReorderPolicy::None, &tiny_config(8192)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1 trailing bytes"), "{err}");
        assert!(!out.exists(), "a refused input leaves no image");
        let _ = fs::remove_file(&input);
    }

    #[test]
    fn streamed_metrics_are_counted() {
        let el = generators::gnm(150, 600, 12);
        let out = tmp("metrics.prep");
        let before = crate::prepare::metrics();
        let summary = prepare_pairs_to_file(
            el.num_vertices,
            el.iter(),
            ReorderPolicy::None,
            &out,
            &tiny_config(2048),
        )
        .unwrap();
        let d = crate::prepare::metrics().since(&before);
        assert_eq!(d.spill_runs, summary.spill_runs);
        assert!(d.spill_runs > 0);
        assert_eq!(d.spill_bytes, summary.spill_bytes);
        assert!(d.peak_resident_bytes >= summary.peak_resident_bytes);
        assert!(summary.peak_resident_bytes > 0);
        let _ = fs::remove_file(&out);
    }
}
