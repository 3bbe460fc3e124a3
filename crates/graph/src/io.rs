//! Graph I/O: SNAP-style edge-list text and a compact binary CSR format.
//!
//! The text loader accepts the format of SNAP downloads (the paper's LJ, OR
//! and FR sources): one `u v` pair per line, `#`-prefixed comment lines,
//! arbitrary whitespace. A user with the real datasets can therefore run
//! every experiment on them. The binary format avoids re-parsing large
//! graphs between runs.

#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::codec::{DecodeError, Reader, Writer};
use crate::csr::{check_edge_count, CsrGraph};
use crate::edgelist::EdgeList;

/// Magic header of the binary CSR format.
const MAGIC: &[u8; 8] = b"CNCCSR01";

/// Up to `len` bytes of `r`. Only what `r` yields is allocated, so a header
/// claiming an absurd length cannot size an allocation; the [`Reader`] that
/// decodes the bytes refuses a short read.
fn read_up_to<R: Read>(r: &mut R, len: u64) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    r.take(len).read_to_end(&mut buf)?;
    Ok(buf)
}

/// Refuse bytes after a complete file with [`DecodeError::TrailingBytes`]:
/// two files that differ past the declared arrays are not one graph. The
/// rule of every reader of `CNCCSR01`, `CNCCNT01` and the streamer's spill
/// runs; the rest is counted, not buffered.
pub(crate) fn expect_end<R: Read>(r: &mut R) -> io::Result<()> {
    match io::copy(r, &mut io::sink())? {
        0 => Ok(()),
        n => Err(DecodeError::TrailingBytes(usize::try_from(n).unwrap_or(usize::MAX)).into()),
    }
}

/// Parse one line of SNAP text: `Ok(None)` for comment/blank lines,
/// `Ok(Some((u, v)))` for a data line.
///
/// A malformed line is an [`io::ErrorKind::InvalidData`] error carrying the
/// 1-based line number, the token that failed, and the full offending line.
/// Shared by the buffered reader below and the chunked streaming source in
/// [`crate::stream`], so diagnostics stay identical whichever path parses a
/// file (the streamer threads its running line count through `lineno`).
pub(crate) fn parse_edge_line(lineno: u64, line: &str) -> io::Result<Option<(u32, u32)>> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let bad =
        |what: String| io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {what}"));
    let mut it = t.split_whitespace();
    match (it.next(), it.next()) {
        (Some(a), Some(b)) => {
            let u: u32 = a
                .parse()
                .map_err(|e| bad(format!("bad vertex id {a:?} ({e}) in line {t:?}")))?;
            let v: u32 = b
                .parse()
                .map_err(|e| bad(format!("bad vertex id {b:?} ({e}) in line {t:?}")))?;
            Ok(Some((u, v)))
        }
        _ => Err(bad(format!("expected two vertex ids, got {t:?}"))),
    }
}

/// Parse a SNAP-style edge list from a reader.
///
/// Lines starting with `#` (or `%`, as used by some mirrors) are comments.
/// Each data line holds two whitespace-separated vertex ids. The result is
/// normalized (undirected, deduplicated, no self-loops); a list past the
/// [`crate::MAX_DIRECTED_EDGES`] limit is refused with
/// [`crate::TooManyEdges`].
pub fn read_edge_list<R: Read>(reader: R) -> io::Result<EdgeList> {
    let mut el = EdgeList::new(0);
    let mut buf = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0u64;
    loop {
        line.clear();
        if buf.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        if let Some((u, v)) = parse_edge_line(lineno, &line)? {
            el.push(u, v);
        }
    }
    el.normalize();
    check_edge_count(el.directed_edges())?;
    Ok(el)
}

/// Read an edge-list file from disk (see [`read_edge_list`]).
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> io::Result<EdgeList> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Write an edge list in SNAP text format (one `u v` per line).
pub fn write_edge_list<W: Write>(el: &EdgeList, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# undirected edge list, {} vertices", el.num_vertices)?;
    for (u, v) in el.iter() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()
}

/// Serialize a CSR graph to the compact binary format.
///
/// Layout: magic, `|V|` and `|dst|` as u64 little-endian, the offset array
/// as u64s, the dst array as u32s.
pub fn write_csr<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut header = Writer::with_capacity(24);
    header.bytes(MAGIC);
    header.usize(g.num_vertices());
    header.usize(g.num_directed_edges());
    w.write_all(header.as_bytes())?;
    write_chunked(&mut w, g.offsets(), Writer::usize)?;
    write_chunked(&mut w, g.dst(), Writer::u32)?;
    w.flush()
}

/// Encode `vals` with `put`, 1024 at a time.
fn write_chunked<T: Copy>(
    w: &mut impl Write,
    vals: &[T],
    put: fn(&mut Writer, T),
) -> io::Result<()> {
    for chunk in vals.chunks(1024) {
        let mut bytes = Writer::with_capacity(8 * 1024);
        for &v in chunk {
            put(&mut bytes, v);
        }
        w.write_all(bytes.as_bytes())?;
    }
    Ok(())
}

/// `read_csr`'s message for a graph that breaks a CSR invariant.
pub(crate) fn inconsistent(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("inconsistent CSR: {what}"),
    )
}

/// Read the header and offset array of a `CNCCSR01` stream, leaving `r` at
/// the adjacency array; returns the offsets and the adjacency's length. The
/// one parser of the format's front, shared by [`read_csr`] and the
/// streaming preparer, so both accept and refuse the same files: `|dst|`
/// within the [`crate::MAX_DIRECTED_EDGES`] limit, and the `|V| + 1`
/// offsets must start at 0, never decrease, and end at `|dst|`.
/// Allocation is bounded by the bytes `r` actually yields.
pub(crate) fn read_csr_head<R: Read>(r: &mut R) -> io::Result<(Vec<usize>, usize)> {
    let mut header = [0u8; 24];
    r.read_exact(&mut header)?;
    let mut h = Reader::new(&header);
    h.magic(MAGIC)?;
    let n = h.usize("vertex count")?;
    let num_dst = h.usize("adjacency length")?;
    check_edge_count(num_dst)?;
    let raw = read_up_to(r, (n as u64).saturating_add(1).saturating_mul(8))?;
    let offsets = Reader::new(&raw).usizes(n.saturating_add(1), "offset array")?;
    if offsets.first() != Some(&0) || offsets.last() != Some(&num_dst) {
        return Err(inconsistent("offset endpoints broken"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(inconsistent("offsets not monotone"));
    }
    Ok((offsets, num_dst))
}

/// Deserialize a CSR graph written by [`write_csr`].
///
/// Any malformed input — wrong magic, truncation, bytes past the declared
/// arrays, or a byte stream whose offsets/dst arrays violate the CSR
/// invariants — is an [`io::ErrorKind::InvalidData`] error, never a panic.
pub fn read_csr<R: Read>(reader: R) -> io::Result<CsrGraph> {
    let mut r = BufReader::new(reader);
    let (offsets, num_dst) = read_csr_head(&mut r)?;
    let raw = read_up_to(&mut r, (num_dst as u64).saturating_mul(4))?;
    let dst = Reader::new(&raw).u32s(num_dst, "dst array")?;
    expect_end(&mut r)?;
    CsrGraph::try_from_parts(offsets, dst).map_err(inconsistent)
}

/// Magic header of the binary counts format.
const COUNTS_MAGIC: &[u8; 8] = b"CNCCNT01";

/// Serialize a per-edge-slot counts array (must belong to a CSR with
/// `counts.len()` directed edge slots).
pub fn write_counts<W: Write>(counts: &[u32], writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut header = Writer::with_capacity(16);
    header.bytes(COUNTS_MAGIC);
    header.usize(counts.len());
    w.write_all(header.as_bytes())?;
    write_chunked(&mut w, counts, Writer::u32)?;
    w.flush()
}

/// Deserialize a counts array written by [`write_counts`].
///
/// Malformed input (wrong magic, truncation, an absurd advertised length,
/// bytes past the declared array) is an [`io::ErrorKind::InvalidData`]
/// error, never a panic.
pub fn read_counts<R: Read>(reader: R) -> io::Result<Vec<u32>> {
    let mut r = BufReader::new(reader);
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    let mut h = Reader::new(&header);
    h.magic(COUNTS_MAGIC)?;
    let m = h.usize("counts length")?;
    let raw = read_up_to(&mut r, (m as u64).saturating_mul(4))?;
    let counts = Reader::new(&raw).u32s(m, "counts array")?;
    expect_end(&mut r)?;
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn le64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn le32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `CNCCSR01` header claiming `|dst|` = `u32::MAX + 1` is refused by
    /// the `|E|` check before any offset is read or allocated; at exactly
    /// `u32::MAX` the header passes and the offsets are checked next.
    #[test]
    fn header_past_the_edge_limit_is_refused() {
        let header = |num_dst: u64| {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            le64(&mut buf, 0);
            le64(&mut buf, num_dst);
            le64(&mut buf, 0);
            buf
        };
        let limit = u64::from(u32::MAX);
        let err = read_csr(header(limit + 1).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let want = "4294967296 directed edge slots exceed the limit of 4294967295";
        assert!(err.to_string().starts_with(want), "{err}");
        let err = read_csr(header(limit).as_slice()).unwrap_err();
        assert!(err.to_string().contains("offset endpoints broken"), "{err}");
    }

    #[test]
    fn text_roundtrip() {
        let el = generators::gnm(50, 120, 9);
        let mut buf = Vec::new();
        write_edge_list(&el, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(el.edges, back.edges);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# SNAP header\n% other comment\n\n0 1\n1\t2\n  2   3  \n";
        let el = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(el.edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("42\n".as_bytes()).is_err());
    }

    /// Every malformed line shape must surface an `InvalidData` error whose
    /// message carries the 1-based line number and the offending text.
    fn assert_malformed(text: &str, lineno: u64, fragment: &str) {
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "input {text:?}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {lineno}")),
            "missing line number in {msg:?} for {text:?}"
        );
        assert!(
            msg.contains(fragment),
            "missing offending text {fragment:?} in {msg:?}"
        );
    }

    #[test]
    fn malformed_nonnumeric_first_id() {
        assert_malformed("# header\n0 1\nabc 2\n", 3, "\"abc\"");
    }

    #[test]
    fn malformed_nonnumeric_second_id() {
        assert_malformed("0 1\n2 x7\n", 2, "\"x7\"");
    }

    #[test]
    fn malformed_single_token() {
        assert_malformed("0 1\n\n42\n", 3, "\"42\"");
    }

    #[test]
    fn malformed_overflowing_id() {
        // 2^32 does not fit a u32 vertex id.
        assert_malformed("4294967296 0\n", 1, "\"4294967296\"");
    }

    #[test]
    fn malformed_negative_id() {
        assert_malformed("0 1\n-3 4\n", 2, "\"-3\"");
    }

    #[test]
    fn malformed_line_reports_full_line_text() {
        // The whole line, not just the bad token, appears in the message.
        assert_malformed("0 1\n7 bad_token trailing\n", 2, "\"7 bad_token trailing\"");
    }

    #[test]
    fn binary_roundtrip() {
        let g = CsrGraph::from_edge_list(&generators::chung_lu(300, 8.0, 2.3, 4));
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(g, back);
        back.validate().unwrap();
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTAMAGIC_______plus_more_bytes_________".to_vec();
        assert!(read_csr(buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_truncated() {
        let g = CsrGraph::from_edge_list(&generators::gnm(20, 40, 2));
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_csr(buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_invalid_csr_with_valid_magic() {
        // Valid magic and lengths but inconsistent offsets: must be an
        // InvalidData error, not a panic out of CsrGraph::from_parts.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        le64(&mut buf, 1); // |V| = 1
        le64(&mut buf, 1); // |dst| = 1
        le64(&mut buf, 0); // offsets[0]
        le64(&mut buf, 2); // offsets[1] — endpoint != |dst|
        le32(&mut buf, 0);
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Asymmetric adjacency behind a well-formed header.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        le64(&mut buf, 2); // |V| = 2
        le64(&mut buf, 1); // |dst| = 1
        for o in [0u64, 1, 1] {
            le64(&mut buf, o);
        }
        le32(&mut buf, 1); // 0 → 1 but no 1 → 0
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_rejects_absurd_advertised_sizes() {
        // A header claiming u64::MAX vertices must fail cleanly instead of
        // panicking on size arithmetic or attempting a huge allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        le64(&mut buf, u64::MAX);
        le64(&mut buf, u64::MAX);
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut buf = Vec::new();
        buf.extend_from_slice(COUNTS_MAGIC);
        le64(&mut buf, u64::MAX);
        let err = read_counts(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn counts_roundtrip() {
        let counts: Vec<u32> = (0..5000).map(|x| x * 7 % 113).collect();
        let mut buf = Vec::new();
        write_counts(&counts, &mut buf).unwrap();
        assert_eq!(read_counts(buf.as_slice()).unwrap(), counts);
        // Empty counts work too.
        let mut buf = Vec::new();
        write_counts(&[], &mut buf).unwrap();
        assert!(read_counts(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn csr_with_one_trailing_byte_is_refused() {
        let g = CsrGraph::from_edge_list(&generators::gnm(20, 40, 2));
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        buf.push(0);
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1 trailing bytes"), "{err}");
    }

    #[test]
    fn counts_with_one_trailing_byte_are_refused() {
        let mut buf = Vec::new();
        write_counts(&[1, 2, 3], &mut buf).unwrap();
        buf.push(0);
        let err = read_counts(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1 trailing bytes"), "{err}");
    }

    #[test]
    fn counts_reject_wrong_magic_and_truncation() {
        assert!(read_counts(b"WRONGMAGIC______".as_slice()).is_err());
        let mut buf = Vec::new();
        write_counts(&[1, 2, 3], &mut buf).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_counts(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(back.num_vertices(), 0);
    }

    use crate::edgelist::EdgeList;
}
