//! Length-prefixed framing, independent of message shape.
//!
//! Every message on a cnc socket — serve requests and replies, shard
//! worker streams — is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload (len bytes) |
//! +----------------+---------------------+
//! ```
//!
//! `len` counts payload bytes only and must not exceed [`MAX_FRAME`];
//! oversized lengths are rejected *before* any allocation, so a malformed
//! prefix cannot balloon the reader's memory. What the payload means is the
//! consumer's business ([`crate::protocol`] for the query protocol,
//! `cnc-shard` for the worker scatter-gather stream); this module only
//! moves byte vectors across a stream reliably.

use std::io::{Read, Write};

/// Hard cap on one frame's payload size (1 MiB: a `scan` response of
/// [`crate::MAX_REPLY_EDGES`] triples fits with room to spare, and shard
/// count sections chunk themselves below it).
pub const MAX_FRAME: usize = 1 << 20;

/// What one blocking frame read produced.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer closed the stream cleanly (before any prefix byte).
    Closed,
    /// The length prefix was valid but oversized — the stream is still in
    /// sync only if the peer stops, so callers should respond and close.
    TooLarge(u32),
}

/// Write one frame: length prefix + payload. A payload over [`MAX_FRAME`]
/// is refused with [`std::io::ErrorKind::InvalidInput`] before any byte is
/// written, since the peer would reject its prefix and lose sync.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME}-byte cap",
                payload.len()
            ),
        ));
    }
    let len = u32::try_from(payload.len()).expect("MAX_FRAME fits the u32 prefix");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. Clean EOF at a frame boundary is [`FrameRead::Closed`];
/// EOF *inside* a frame surfaces as `UnexpectedEof` (the peer truncated).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<FrameRead> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut prefix[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(FrameRead::Closed);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "stream closed inside a frame prefix",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(prefix);
    if len as usize > MAX_FRAME {
        return Ok(FrameRead::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(FrameRead::Payload(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_detects_close_truncation_and_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("vec write");
        let mut r = &buf[..];
        match read_frame(&mut r).expect("read") {
            FrameRead::Payload(p) => assert_eq!(p, b"hello"),
            other => panic!("expected payload, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut r).expect("eof"),
            FrameRead::Closed
        ));
        // Truncated inside the prefix.
        let mut short = &buf[..2];
        assert_eq!(
            read_frame(&mut short).expect_err("truncated").kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // Truncated inside the payload (prefix says 5, only 3 arrive).
        let mut cut = &buf[..7];
        assert_eq!(
            read_frame(&mut cut).expect_err("truncated").kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // Oversized prefix: rejected before allocation.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(matches!(
            read_frame(&mut r).expect("prefix read"),
            FrameRead::TooLarge(n) if n as usize == MAX_FRAME + 1
        ));
    }

    #[test]
    fn oversized_payload_is_refused_before_writing() {
        let mut out = Vec::new();
        let err = write_frame(&mut out, &vec![0u8; MAX_FRAME + 1]).expect_err("over the cap");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing reaches the stream");
        write_frame(&mut out, &vec![7u8; MAX_FRAME]).expect("exactly the cap fits");
        match read_frame(&mut &out[..]).expect("read") {
            FrameRead::Payload(p) => assert_eq!(p.len(), MAX_FRAME),
            other => panic!("expected payload, got {other:?}"),
        }
    }
}
