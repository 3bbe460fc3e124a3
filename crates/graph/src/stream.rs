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
//!   → pass 2: direct placement + skew tally        (|V| cursor words)
//!   → CNCPREP4 payloads filled straight into the
//!     mmap'd cache file (offsets / dst / rev, plus
//!     the relabeled triple + remap table when the
//!     policy reorders)
//! ```
//!
//! The memory budget comes from [`PREP_MEM_BYTES_ENV`] (or an explicit
//! [`StreamConfig`]); when the canonical edges outgrow it, sorted
//! deduplicated runs spill to disk in the `CNCRUN01` format and are merged
//! back — twice, since CSR construction needs a degree pass before the
//! placement pass. Because the merged stream is globally sorted, scattering
//! both directions through per-vertex cursors emits every neighbor run
//! already ascending (for vertex `w`, the backward neighbors `u < w` arrive
//! first in `u` order, then the forward neighbors in `v` order, all larger
//! than `w`), so no per-run sort is ever needed.
//!
//! This module only fills payloads. The file's layout, its file and section
//! headers, the relabel order and the skew statistic come from the same
//! definitions [`crate::prepare::write_prepared`] uses
//! ([`crate::prepare`], [`crate::reorder`], [`crate::stats`]), so a streamed
//! image is **byte-identical** to the in-memory writer's — the property the
//! differential test suite pins on every dataset analogue.
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

use crate::io::{parse_edge_line, read_exact_vec};
use crate::mmap::MappedFileMut;
use crate::prepare::{self, bump, ReorderPolicy, Section};
use crate::reorder::{degree_descending_order, invert};
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
    /// Peak accounted heap bytes of the build (sort buffer, degree/cursor
    /// arrays, merge readers, relabel scratch — everything the pipeline
    /// allocates that scales with the input).
    pub peak_resident_bytes: u64,
    /// Size of the finished `CNCPREP4` file.
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
struct BinaryCsrSource<R: Read> {
    reader: R,
    offsets: Vec<u64>,
    num_vertices: usize,
    /// Next adjacency slot to consume and its owning source vertex.
    eid: u64,
    src: u32,
    total_dst: u64,
    buf: Vec<u8>,
    pos: usize,
    chunk_bytes: usize,
    chunks: u64,
}

impl<R: Read> BinaryCsrSource<R> {
    fn new(mut reader: R, chunk_bytes: usize) -> io::Result<Self> {
        let mut header = [0u8; 24];
        reader.read_exact(&mut header)?;
        if &header[..8] != b"CNCCSR01" {
            return Err(invalid("bad magic: not a CNCCSR01 file"));
        }
        let n = u64::from_le_bytes(header[8..16].try_into().expect("8-byte range"));
        let m = u64::from_le_bytes(header[16..24].try_into().expect("8-byte range"));
        let n_usize = usize::try_from(n).map_err(|_| invalid("|V| exceeds platform usize"))?;
        let raw = read_exact_vec(
            &mut reader,
            n.saturating_add(1).saturating_mul(8),
            "offsets",
        )?;
        let offsets: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect();
        if offsets.last() != Some(&m) {
            return Err(invalid("CNCCSR01 offsets endpoint does not match |dst|"));
        }
        Ok(Self {
            reader,
            offsets,
            num_vertices: n_usize,
            eid: 0,
            src: 0,
            total_dst: m,
            buf: Vec::new(),
            pos: 0,
            chunk_bytes,
            chunks: 1, // header + offsets
        })
    }

    fn next_dst(&mut self) -> io::Result<Option<u32>> {
        if self.eid >= self.total_dst {
            return Ok(None);
        }
        if self.pos + 4 > self.buf.len() {
            let carry = self.buf.len() - self.pos;
            self.buf.drain(..self.pos);
            self.pos = 0;
            let want = self.chunk_bytes.max(4);
            self.buf.resize(carry + want, 0);
            let mut filled = carry;
            while filled < self.buf.len() {
                let got = self.reader.read(&mut self.buf[filled..])?;
                if got == 0 {
                    break;
                }
                filled += got;
            }
            self.buf.truncate(filled);
            self.chunks += 1;
            if self.buf.len() < 4 {
                return Err(invalid(format!(
                    "truncated CNCCSR01 adjacency: slot {} of {} missing",
                    self.eid, self.total_dst
                )));
            }
        }
        let v = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4-byte range"),
        );
        self.pos += 4;
        Ok(Some(v))
    }
}

impl<R: Read> EdgeSource for BinaryCsrSource<R> {
    fn next_pair(&mut self) -> io::Result<Option<(u32, u32)>> {
        loop {
            let Some(v) = self.next_dst()? else {
                return Ok(None);
            };
            // Advance the source cursor past empty ranges to the vertex
            // owning this adjacency slot.
            while (self.src as usize) < self.num_vertices
                && self.offsets[self.src as usize + 1] <= self.eid
            {
                self.src += 1;
            }
            let u = self.src;
            self.eid += 1;
            // Symmetric CSR lists each undirected edge twice; forward the
            // canonical direction only. Self-loops and out-of-order ids in a
            // corrupt file are handled downstream (dropped / n grows).
            if u < v {
                return Ok(Some((u, v)));
            }
        }
    }

    fn chunks(&self) -> u64 {
        self.chunks
    }

    fn declared_vertices(&self) -> usize {
        self.num_vertices
    }

    fn resident_bytes(&self) -> u64 {
        (self.offsets.len() * 8 + self.chunk_bytes * 2) as u64
    }
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
        w.write_all(RUN_MAGIC)?;
        w.write_all(&(self.buf.len() as u64).to_le_bytes())?;
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
/// than the header promised — is an [`io::ErrorKind::InvalidData`] error.
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
        if &header[..8] != RUN_MAGIC {
            return Err(invalid(format!(
                "bad magic in spill run {}",
                path.display()
            )));
        }
        let remaining = u64::from_le_bytes(header[8..16].try_into().expect("8-byte range"));
        Ok(Self {
            reader,
            remaining,
            path: path.to_path_buf(),
        })
    }

    fn next(&mut self) -> io::Result<Option<(u32, u32)>> {
        if self.remaining == 0 {
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
        Ok(Some((
            u32::from_le_bytes(raw[..4].try_into().expect("4-byte range")),
            u32::from_le_bytes(raw[4..].try_into().expect("4-byte range")),
        )))
    }
}

// ---------------------------------------------------------------------------
// Two-pass CNCPREP4 assembly into a write-mode mapping.
// ---------------------------------------------------------------------------

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn read_u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte range"))
}

/// Degree-count pass: one merge iteration.
fn degree_pass(sorted: &SortedEdges, n: usize) -> io::Result<(Vec<u32>, usize)> {
    let mut deg = vec![0u32; n];
    let mut unique = 0usize;
    for pair in sorted.iter()? {
        let (u, v) = pair?;
        deg[u as usize] += 1;
        deg[v as usize] += 1;
        unique += 1;
    }
    Ok((deg, unique))
}

/// Write the offsets section (u64 prefix sums of `deg`) and return the
/// cursor array (absolute element indices) the placement pass scatters
/// through.
fn write_offsets_section(bytes: &mut [u8], at: usize, deg: &[u32]) -> Vec<usize> {
    let mut cursor = Vec::with_capacity(deg.len());
    let mut acc = 0usize;
    put_u64(bytes, at, 0);
    for (u, &d) in deg.iter().enumerate() {
        cursor.push(acc);
        acc += d as usize;
        put_u64(bytes, at + (u + 1) * 8, acc as u64);
    }
    cursor
}

/// The streamed build core: consume `source` through an external sorter and
/// fill the payloads of a `CNCPREP4` image at `out` — laid out, and sealed
/// with its headers, by [`crate::prepare`] — through a write-mode mapping.
/// Returns the summary; the caller owns tmp-name/rename protocol and
/// metrics attribution.
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
    peak.observe(source.resident_bytes() + (sorter.cap * 8) as u64);
    let stream_chunks = source.chunks();
    drop(source);
    let sorted = sorter.into_sorted()?;
    let n = sorted.max_id_plus1().max(declared);

    // Pass 1: degrees. |V| words + the merge readers.
    let (deg, unique) = degree_pass(&sorted, n)?;
    let m_dir = unique
        .checked_mul(2)
        .ok_or_else(|| invalid("directed edge count overflows"))?;
    peak.observe((deg.len() * 4) as u64 + sorted.resident_bytes());

    // Every section size is known now: fix the file layout. File bytes
    // arrive zero-filled, which is exactly the padding the format requires.
    let reordered = matches!(policy, ReorderPolicy::DegreeDescending);
    let layout = prepare::layout(n, m_dir, reordered)?;
    let sections = &layout.sections;
    let mut map = MappedFileMut::create(out, layout.len)?;
    {
        let bytes = map.bytes_mut();

        // Original offsets + pass 2: direct placement of both directions,
        // tallying each canonical pair's skew on the way (the degrees are
        // final since pass 1).
        let cursor = write_offsets_section(bytes, sections[0].start, &deg);
        let dst_at = sections[1].start;
        let mut skew = SkewTally::new(SKEW_THRESHOLD);
        {
            let mut cur = cursor.clone();
            peak.observe((deg.len() * 4 + cursor.len() * 8 * 2) as u64 + sorted.resident_bytes());
            for pair in sorted.iter()? {
                let (u, v) = pair?;
                let (u_at, v_at) = (u as usize, v as usize);
                put_u32(bytes, dst_at + cur[u_at] * 4, v);
                cur[u_at] += 1;
                put_u32(bytes, dst_at + cur[v_at] * 4, u);
                cur[v_at] += 1;
                skew.add(deg[u_at] as usize, deg[v_at] as usize);
            }
            // The merged stream is globally sorted, so every neighbor run
            // was written ascending — no per-run sort pass.
        }
        write_rev_walk(bytes, dst_at, sections[2].start, m_dir, cursor.clone());

        if reordered {
            relabel_sections(bytes, sections, &deg, m_dir, &mut peak)?;
        }

        let max_degree = deg.iter().copied().max().unwrap_or(0);
        for s in sections {
            let header = prepare::section_header(s.bytes(bytes), s.elem_width);
            bytes[s.header_range()].copy_from_slice(&header);
        }
        let header = prepare::file_header(policy, skew.percentage(), u64::from(max_degree));
        bytes[..header.len()].copy_from_slice(&header);
    }
    let file = map.into_file();
    file.sync_all()?;
    drop(file);

    let summary = StreamSummary {
        num_vertices: n,
        num_directed_edges: m_dir,
        spill_runs: sorted.spill_runs(),
        spill_bytes: sorted.spill_bytes(),
        stream_chunks,
        peak_resident_bytes: peak.peak,
        file_bytes: layout.len as u64,
    };
    bump(|m| {
        m.stream_chunks += summary.stream_chunks;
        m.peak_resident_bytes += summary.peak_resident_bytes;
    });
    Ok(summary)
}

/// Reverse-index cursor walk (`rev[e(u,v)] = cursor[v]++`) over the mapped
/// dst section, writing `m_dir` u64 slots.
fn write_rev_walk(
    bytes: &mut [u8],
    dst_at: usize,
    rev_at: usize,
    m_dir: usize,
    mut cursor: Vec<usize>,
) {
    for eid in 0..m_dir {
        let v = read_u32_at(bytes, dst_at + eid * 4) as usize;
        put_u64(bytes, rev_at + eid * 8, cursor[v] as u64);
        cursor[v] += 1;
    }
}

/// Fill the relabeled sections (offsets / dst / rev / new→old) for the
/// degree-descending policy the way [`crate::reorder::degree_descending`]
/// relabels: order vertices by [`degree_descending_order`], relabel each
/// neighbor run through the inverse permutation, sort the single run.
/// Peak scratch is O(|V|) plus one max-degree run buffer.
fn relabel_sections(
    bytes: &mut [u8],
    sections: &[Section],
    deg: &[u32],
    m_dir: usize,
    peak: &mut Peak,
) -> io::Result<()> {
    let n = deg.len();
    let ids = u32::try_from(n).map_err(|_| invalid("|V| exceeds u32 vertex ids"))?;
    let new_to_old = degree_descending_order(ids, |u| deg[u as usize]);
    let old_to_new = invert(&new_to_old);
    let max_degree = deg.iter().copied().max().unwrap_or(0) as usize;
    peak.observe((deg.len() * 4 + n * 8 + n * 8 + n * 8 + max_degree * 4) as u64);

    // Relabeled offsets: prefix sums of permuted degrees; the returned
    // cursor drives the rev walk below.
    let mut deg2 = Vec::with_capacity(n);
    for &old_id in &new_to_old {
        deg2.push(deg[old_id as usize]);
    }
    let cursor2 = write_offsets_section(bytes, sections[3].start, &deg2);

    // Relabeled adjacency: map each original run through old→new, sort it.
    let (src_dst_at, dst2_at) = (sections[1].start, sections[4].start);
    let mut run: Vec<u32> = Vec::with_capacity(max_degree);
    let mut old_start = vec![0usize; n];
    {
        let mut acc = 0usize;
        for (u, &d) in deg.iter().enumerate() {
            old_start[u] = acc;
            acc += d as usize;
        }
    }
    let mut write_at = dst2_at;
    for &old_u in &new_to_old {
        let d = deg[old_u as usize] as usize;
        let base = src_dst_at + old_start[old_u as usize] * 4;
        run.clear();
        for k in 0..d {
            let v = read_u32_at(bytes, base + k * 4);
            run.push(old_to_new[v as usize]);
        }
        run.sort_unstable();
        for &v in &run {
            put_u32(bytes, write_at, v);
            write_at += 4;
        }
    }

    write_rev_walk(bytes, dst2_at, sections[5].start, m_dir, cursor2);

    let nto_at = sections[6].start;
    for (i, &old_id) in new_to_old.iter().enumerate() {
        put_u32(bytes, nto_at + i * 4, old_id);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

/// Stream-prepare an edge-list *file* (SNAP text or `CNCCSR01` binary,
/// sniffed by magic) into a complete `CNCPREP4` image at `out`.
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
    let source: Box<dyn EdgeSource> = if sniffed == 8 && &magic == b"CNCCSR01" {
        Box::new(BinaryCsrSource::new(file, chunk)?)
    } else {
        Box::new(TextSource::new(file, chunk))
    };
    let summary = build_to_path(source, policy, out, config)?;
    bump(|m| {
        m.graph_builds += 1;
        if matches!(policy, ReorderPolicy::DegreeDescending) {
            m.reorders += 1;
        }
    });
    Ok(summary)
}

/// Stream-prepare an in-process pair iterator (dataset generators) over at
/// least `declared_vertices` ids into a `CNCPREP4` image at `out`. Same
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
                    "streamed CNCPREP4 differs (policy {policy:?}, n={})",
                    el.num_vertices
                );
                if el.len() > 600 {
                    assert!(summary.spill_runs > 0, "tiny budget must spill");
                }
                let _ = fs::remove_file(&out);
            }
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
