//! The one little-endian byte codec under every wire and file format.
//!
//! Serve and shard frames, `CNCCSR01`, `CNCCNT01`, `CNCPREP5` and `CNCRUN01`
//! all decode through [`Reader`] and encode through [`Writer`]. Every read
//! is checked and a short input is a [`DecodeError`] naming the field, never
//! a panic; a `usize` is narrowed with `try_from`; a length prefix
//! ([`Reader::count`]) is checked against its cap and the bytes that remain
//! before anything is allocated for it; trailing bytes are refused
//! ([`Reader::finish`]); and [`Writer::count`] writes every length prefix
//! through `u32::try_from`.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::fmt;
use std::io;

/// Malformed bytes, naming the field that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside `field`.
    Truncated(&'static str),
    /// `field` declares more than the format allows.
    TooLong {
        /// The length-prefixed field.
        field: &'static str,
        /// The declared length.
        len: u64,
        /// The largest length the format allows.
        max: u64,
    },
    /// `field` holds a value the format does not assign, or one that does
    /// not fit this platform's `usize`.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: u64,
    },
    /// The input does not start with the format's magic.
    BadMagic(&'static [u8; 8]),
    /// `field` is not valid UTF-8.
    BadUtf8(&'static str),
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated(field) => write!(f, "input truncated while reading {field}"),
            DecodeError::TooLong { field, len, max } => {
                write!(f, "{field} of {len} exceeds the cap of {max}")
            }
            DecodeError::Invalid { field, value } => write!(f, "invalid {field} {value}"),
            DecodeError::BadMagic(m) => write!(f, "bad magic: not a {} file", m.escape_ascii()),
            DecodeError::BadUtf8(field) => write!(f, "{field} is not valid UTF-8"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
    consumed: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            rest: bytes,
            consumed: 0,
        }
    }

    /// Bytes read so far: the offset of the next field in the input.
    pub fn offset(&self) -> usize {
        self.consumed
    }

    /// The next `len` bytes.
    pub fn bytes(&mut self, len: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or(DecodeError::Truncated(field))?;
        self.rest = rest;
        self.consumed += len;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated(field))?;
        self.rest = rest;
        self.consumed += N;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        let [b] = self.array(field)?;
        Ok(b)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(field)?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(field)?))
    }

    /// A little-endian `u64` that must fit this platform's `usize`.
    pub fn usize(&mut self, field: &'static str) -> Result<usize, DecodeError> {
        let value = self.u64(field)?;
        usize::try_from(value).map_err(|_| DecodeError::Invalid { field, value })
    }

    /// The 8-byte `magic`.
    pub fn magic(&mut self, magic: &'static [u8; 8]) -> Result<(), DecodeError> {
        if self.array::<8>("magic")? == *magic {
            Ok(())
        } else {
            Err(DecodeError::BadMagic(magic))
        }
    }

    /// A `u32` element count of `elem_bytes`-byte elements, at most `max`,
    /// whose elements must all still be in the input. Checked before the
    /// caller allocates for them, so a short input claiming a long list
    /// fails here instead of reserving what it claims.
    pub fn count(
        &mut self,
        max: usize,
        elem_bytes: usize,
        field: &'static str,
    ) -> Result<usize, DecodeError> {
        let len = self.u32(field)?;
        let n = usize::try_from(len).unwrap_or(usize::MAX);
        if n > max {
            let (len, max) = (u64::from(len), max as u64);
            return Err(DecodeError::TooLong { field, len, max });
        }
        match n.checked_mul(elem_bytes) {
            Some(bytes) if bytes <= self.rest.len() => Ok(n),
            _ => Err(DecodeError::Truncated(field)),
        }
    }

    /// `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize, field: &'static str) -> Result<Vec<u32>, DecodeError> {
        let len = n.checked_mul(4).ok_or(DecodeError::Truncated(field))?;
        let (words, _) = self.bytes(len, field)?.as_chunks::<4>();
        Ok(words.iter().map(|w| u32::from_le_bytes(*w)).collect())
    }

    /// `n` little-endian `u64`s, each narrowed to `usize`.
    pub fn usizes(&mut self, n: usize, field: &'static str) -> Result<Vec<usize>, DecodeError> {
        let len = n.checked_mul(8).ok_or(DecodeError::Truncated(field))?;
        let (words, _) = self.bytes(len, field)?.as_chunks::<8>();
        words
            .iter()
            .map(|w| {
                let value = u64::from_le_bytes(*w);
                usize::try_from(value).map_err(|_| DecodeError::Invalid { field, value })
            })
            .collect()
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, field: &'static str) -> Result<String, DecodeError> {
        let len = self.count(usize::MAX, 1, field)?;
        utf8(self.bytes(len, field)?, field)
    }

    /// The rest of the input as UTF-8 text.
    pub fn rest_str(&mut self, field: &'static str) -> Result<String, DecodeError> {
        let len = self.rest.len();
        utf8(self.bytes(len, field)?, field)
    }

    /// Succeeds only when the whole input has been read.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

fn utf8(bytes: &[u8], field: &'static str) -> Result<String, DecodeError> {
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|_| DecodeError::BadUtf8(field))
}

/// A little-endian writer into a growing byte buffer.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A `u32` length prefix. Panics past `u32::MAX`: every prefixed field
    /// is capped far below that (a frame holds at most `MAX_FRAME` bytes),
    /// so a longer one is a bug in the caller, not a property of its input.
    pub fn count(&mut self, len: usize) {
        let len = u32::try_from(len).expect("length prefix fits a u32");
        self.u32(len);
    }

    /// A `u32`-length-prefixed UTF-8 string (see [`Writer::count`]).
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The written bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_little_endian() {
        let mut w = Writer::default();
        w.u8(7);
        w.u32(0x0102_0304);
        w.u64(u64::MAX - 1);
        w.usize(42);
        w.str("héllo");
        assert_eq!(&w.as_bytes()[1..5], &[4, 3, 2, 1]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a"), Ok(7));
        assert_eq!(r.u32("b"), Ok(0x0102_0304));
        assert_eq!(r.u64("c"), Ok(u64::MAX - 1));
        assert_eq!(r.usize("d"), Ok(42));
        assert_eq!(r.str("e").as_deref(), Ok("héllo"));
        assert_eq!(r.offset(), bytes.len());
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn short_input_names_the_field() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32("width"), Err(DecodeError::Truncated("width")));
        assert_eq!(r.u8("first"), Ok(1), "a failed read consumes nothing");
        assert_eq!(r.bytes(3, "tail"), Err(DecodeError::Truncated("tail")));
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes(2)));
    }

    #[test]
    fn counts_are_checked_against_cap_and_remaining_bytes() {
        // A claim of 65 536 twelve-byte elements with nothing behind it is
        // refused before anything is reserved for them.
        let mut w = Writer::default();
        w.count(65_536);
        let claim = w.into_bytes();
        assert_eq!(
            Reader::new(&claim).count(65_536, 12, "edges"),
            Err(DecodeError::Truncated("edges"))
        );
        assert_eq!(
            Reader::new(&claim).count(65_535, 12, "edges"),
            Err(DecodeError::TooLong {
                field: "edges",
                len: 65_536,
                max: 65_535
            })
        );
        let mut w = Writer::default();
        w.count(2);
        w.u32(5);
        w.u32(6);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let n = r.count(2, 4, "values").expect("two values fit");
        assert_eq!(r.u32s(n, "values"), Ok(vec![5, 6]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn arrays_magic_and_text_are_checked() {
        let mut w = Writer::default();
        w.bytes(b"CNCTEST1");
        w.usize(3);
        w.usize(usize::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.clone().magic(b"CNCTEST2"),
            Err(DecodeError::BadMagic(b"CNCTEST2"))
        );
        assert_eq!(r.magic(b"CNCTEST1"), Ok(()));
        assert_eq!(
            r.clone().usizes(3, "ids"),
            Err(DecodeError::Truncated("ids"))
        );
        assert_eq!(r.usizes(2, "ids"), Ok(vec![3, usize::MAX]));
        assert_eq!(
            Reader::new(&[2, 0, 0, 0, 0xff, 0xfe]).str("name"),
            Err(DecodeError::BadUtf8("name"))
        );
        assert_eq!(
            Reader::new(&[0xc3]).rest_str("message"),
            Err(DecodeError::BadUtf8("message"))
        );
        let err = io::Error::from(DecodeError::Truncated("x"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "input truncated while reading x");
    }
}
