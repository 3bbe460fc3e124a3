//! The worker → coordinator wire protocol.
//!
//! Workers stream their results to the coordinator over their stdout pipe
//! as length-prefixed frames — the exact framing `cnc-serve` speaks on its
//! sockets (`cnc_serve::framing`, re-exported here), reused rather than
//! reinvented: one `u32` little-endian length prefix per frame, payloads
//! bounded by [`MAX_FRAME`].
//!
//! A healthy worker speaks a fixed monologue:
//!
//! ```text
//! Hello → Counts* → Report? → Done
//! ```
//!
//! * [`WorkerMsg::Hello`] echoes the wire version, shard index and edge
//!   range so the coordinator can reject a mismatched pairing before
//!   buffering anything;
//! * [`WorkerMsg::Counts`] chunks carry the per-edge count *section* for
//!   the worker's own range, in edge order ([`COUNTS_PER_FRAME`] values
//!   per frame keeps every frame far below the cap). Only the section
//!   travels: the coordinator fills every `u > v` slot from its `u < v`
//!   twin in one pass over the assembled array, so a mirror slot outside
//!   the range never crosses the wire;
//! * [`WorkerMsg::Report`] optionally carries the worker's own
//!   observability snapshot as cnc-metrics report JSON;
//! * [`WorkerMsg::Done`] closes the stream with the work evidence
//!   ([`ShardTally`]). Anything else — an [`WorkerMsg::Error`], a closed
//!   pipe, a malformed frame — marks the attempt failed and triggers the
//!   coordinator's bounded retry.
//!
//! Payloads encode and decode through the one checked codec,
//! `cnc_graph::codec`: a malformed frame is a [`DecodeError`] naming the
//! field, a chunk's declared length is checked against its cap and the
//! payload's size before anything is allocated for it, and offsets decode
//! straight to `usize`. Opcode 3 is left unassigned (it carried mirror
//! writes in wire version 2), so a stale frame of that kind decodes as an
//! invalid opcode.

use cnc_graph::codec::{DecodeError, Reader, Writer};
use cnc_intersect::WorkCounts;

pub use cnc_serve::{read_frame, write_frame, FrameRead, MAX_FRAME};

/// Version of this wire dialect; [`WorkerMsg::Hello`] carries it and the
/// coordinator refuses a mismatch (coordinator and workers are the same
/// binary, so a mismatch means a stale executable on one side). Version 3
/// ships sections only and leaves the mirror slots to the coordinator.
pub const SHARD_WIRE_VERSION: u32 = 3;

/// Count values per [`WorkerMsg::Counts`] frame (256 KiB of payload —
/// comfortably under [`MAX_FRAME`]).
pub const COUNTS_PER_FRAME: usize = 65_536;

const OP_HELLO: u8 = 1;
const OP_COUNTS: u8 = 2;
const OP_REPORT: u8 = 4;
const OP_DONE: u8 = 5;
const OP_ERROR: u8 = 6;

/// One frame of the worker's monologue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMsg {
    /// Stream opener: wire version plus the (shard, range) assignment the
    /// worker believes it is executing.
    Hello {
        /// The worker's [`SHARD_WIRE_VERSION`].
        version: u32,
        /// Shard index assigned on the command line.
        shard: u32,
        /// First directed edge offset of the assigned range.
        start: usize,
        /// One-past-last directed edge offset of the assigned range.
        end: usize,
    },
    /// A chunk of the per-edge count section, in edge order.
    Counts(Vec<u32>),
    /// The worker's cnc-metrics report JSON (optional).
    Report(String),
    /// Stream closer: the work evidence for the completed range.
    Done(ShardTally),
    /// The worker failed; human-readable reason. Terminal.
    Error(String),
}

/// Work evidence one worker ships home in [`WorkerMsg::Done`]: the range
/// loop's tallies, the metered kernel work, and the worker's wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTally {
    /// `begin_source` kernel rebuilds in the range.
    pub rebuilds: u64,
    /// Covered canonical pairs visited.
    pub visited: u64,
    /// Canonical pairs skipped by the workload's cover predicate.
    pub skipped: u64,
    /// Exact metered kernel work for the range.
    pub work: WorkCounts,
    /// Worker wall clock, nanoseconds (load + plan + execute + extract).
    pub wall_nanos: u64,
}

/// Encode one [`WorkerMsg::Counts`] frame payload straight from a chunk of
/// the count section: the one `Counts` encoder, which [`encode_msg`] also
/// calls.
pub(crate) fn encode_counts(counts: &[u32]) -> Vec<u8> {
    debug_assert!(counts.len() <= COUNTS_PER_FRAME, "oversized counts chunk");
    let mut w = Writer::with_capacity(5 + counts.len() * 4);
    w.u8(OP_COUNTS);
    w.count(counts.len());
    for &c in counts {
        w.u32(c);
    }
    w.into_bytes()
}

/// Encode one message into a frame payload (pass to [`write_frame`]).
pub fn encode_msg(msg: &WorkerMsg) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    match msg {
        WorkerMsg::Hello {
            version,
            shard,
            start,
            end,
        } => {
            w.u8(OP_HELLO);
            w.u32(*version);
            w.u32(*shard);
            w.usize(*start);
            w.usize(*end);
        }
        WorkerMsg::Counts(counts) => return encode_counts(counts),
        WorkerMsg::Report(json) => {
            w.u8(OP_REPORT);
            w.str(json);
        }
        WorkerMsg::Done(t) => {
            w.u8(OP_DONE);
            for v in [
                t.rebuilds,
                t.visited,
                t.skipped,
                t.work.scalar_ops,
                t.work.vector_ops,
                t.work.seq_bytes,
                t.work.rand_accesses,
                t.work.rand_accesses_small,
                t.work.write_bytes,
                t.work.intersections,
                t.work.simd_blocks,
                t.work.simd_tail_elems,
                t.wall_nanos,
            ] {
                w.u64(v);
            }
        }
        WorkerMsg::Error(message) => {
            w.u8(OP_ERROR);
            w.str(message);
        }
    }
    w.into_bytes()
}

/// Decode one frame payload back into a message.
pub fn decode_msg(payload: &[u8]) -> Result<WorkerMsg, DecodeError> {
    let mut r = Reader::new(payload);
    let msg = match r.u8("shard opcode")? {
        OP_HELLO => WorkerMsg::Hello {
            version: r.u32("version")?,
            shard: r.u32("shard")?,
            start: r.usize("range start")?,
            end: r.usize("range end")?,
        },
        OP_COUNTS => {
            let n = r.count(COUNTS_PER_FRAME, 4, "counts length")?;
            WorkerMsg::Counts(r.u32s(n, "counts")?)
        }
        OP_REPORT => WorkerMsg::Report(r.str("report")?),
        // Struct fields evaluate in source order, which is wire order.
        OP_DONE => WorkerMsg::Done(ShardTally {
            rebuilds: r.u64("rebuilds")?,
            visited: r.u64("visited")?,
            skipped: r.u64("skipped")?,
            work: WorkCounts {
                scalar_ops: r.u64("scalar_ops")?,
                vector_ops: r.u64("vector_ops")?,
                seq_bytes: r.u64("seq_bytes")?,
                rand_accesses: r.u64("rand_accesses")?,
                rand_accesses_small: r.u64("rand_accesses_small")?,
                write_bytes: r.u64("write_bytes")?,
                intersections: r.u64("intersections")?,
                simd_blocks: r.u64("simd_blocks")?,
                simd_tail_elems: r.u64("simd_tail_elems")?,
            },
            wall_nanos: r.u64("wall_nanos")?,
        }),
        OP_ERROR => WorkerMsg::Error(r.str("error message")?),
        op => {
            return Err(DecodeError::Invalid {
                field: "shard opcode",
                value: u64::from(op),
            })
        }
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_round_trips() {
        let msgs = [
            WorkerMsg::Hello {
                version: SHARD_WIRE_VERSION,
                shard: 3,
                start: 1_000,
                end: 5_000,
            },
            WorkerMsg::Counts(vec![0, 1, u32::MAX, 7]),
            WorkerMsg::Counts(Vec::new()),
            WorkerMsg::Report("{\"enabled\":true}".into()),
            WorkerMsg::Done(ShardTally {
                rebuilds: 1,
                visited: 2,
                skipped: 3,
                work: WorkCounts {
                    scalar_ops: 4,
                    vector_ops: 5,
                    seq_bytes: 6,
                    rand_accesses: 7,
                    rand_accesses_small: 8,
                    write_bytes: 9,
                    intersections: 10,
                    simd_blocks: 11,
                    simd_tail_elems: 12,
                },
                wall_nanos: 13,
            }),
            WorkerMsg::Error("worker died: out of cheese".into()),
        ];
        for msg in &msgs {
            let bytes = encode_msg(msg);
            assert!(bytes.len() < MAX_FRAME, "{msg:?} overflows a frame");
            assert_eq!(&decode_msg(&bytes).expect("round trip"), msg);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_msg(&[]).is_err(), "empty payload");
        assert!(decode_msg(&[99]).is_err(), "unknown opcode");
        // Truncated Hello.
        let mut hello = encode_msg(&WorkerMsg::Hello {
            version: 1,
            shard: 0,
            start: 0,
            end: 1,
        });
        hello.pop();
        assert!(decode_msg(&hello).is_err(), "truncated hello");
        // Counts chunk whose declared length exceeds the cap.
        let mut huge = vec![super::OP_COUNTS];
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(decode_msg(&huge).is_err(), "oversized counts");
        // A 5-byte frame claiming a full chunk: refused by the count check
        // before the chunk is reserved.
        let mut claim = vec![OP_COUNTS];
        claim.extend_from_slice(&(COUNTS_PER_FRAME as u32).to_le_bytes());
        assert_eq!(
            decode_msg(&claim),
            Err(DecodeError::Truncated("counts length"))
        );
        // Opcode 3 carried mirror writes before wire version 3 and stays
        // unassigned: a stale frame is an invalid opcode.
        let stale = [3, 0, 0, 0, 0];
        assert_eq!(
            decode_msg(&stale),
            Err(DecodeError::Invalid {
                field: "shard opcode",
                value: 3
            })
        );
        // Trailing garbage.
        let mut noisy = encode_msg(&WorkerMsg::Counts(vec![1]));
        noisy.push(0);
        assert!(decode_msg(&noisy).is_err(), "trailing bytes");
    }
}
