//! The wire protocol: length-prefixed frames with fixed little-endian
//! payloads (DESIGN §3g).
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload (len bytes) |
//! +----------------+---------------------+
//! ```
//!
//! `len` counts payload bytes only and must not exceed [`MAX_FRAME`];
//! oversized lengths are rejected *before* any allocation, so a malformed
//! prefix cannot balloon server memory (framing lives in
//! [`crate::framing`] and is shared with the shard wire protocol).
//! Request payloads start with an opcode byte, response payloads with a
//! status byte; integers are little-endian (`u32` unless noted).
//!
//! | opcode | request | payload after opcode |
//! |--------|---------|----------------------|
//! | 1 | `count(u, v)` | `u: u32, v: u32` |
//! | 2 | `topk(k)` | `k: u32` |
//! | 3 | `scan(threshold)` | `threshold: u32` |
//! | 4 | `stats` | — |
//! | 5 | `shutdown` | — |
//!
//! | status | meaning | payload after status |
//! |--------|---------|----------------------|
//! | 0 | OK | per-request body (below) |
//! | 1 | overloaded | UTF-8 message |
//! | 2 | not an edge | UTF-8 message |
//! | 3 | bad request | UTF-8 message |
//! | 4 | shutting down | UTF-8 message |
//!
//! OK bodies: `count` → `u32`; `topk`/`scan` → `total: u64, returned: u32`
//! then `returned` × `(u: u32, v: u32, count: u32)` triples; `stats` →
//! UTF-8 cnc-metrics v1 JSON; `shutdown` → empty.
//!
//! Decoding is strict and goes through the one checked codec,
//! `cnc_graph::codec`: unknown opcode/status bytes, short payloads, an edge
//! count the payload cannot hold and trailing bytes all yield a typed
//! [`DecodeError`] naming the field — never a panic, and never an
//! allocation larger than the payload — so a server can answer garbage with
//! status 3 and move on.

use cnc_core::EdgeCount;
use cnc_graph::codec::{DecodeError, Reader, Writer};

pub use crate::framing::{read_frame, write_frame, FrameRead, MAX_FRAME};

/// Generation of the wire layout. Version 2 widened the `topk`/`scan`
/// `total` field to `u64` (a graph can hold ≥ 2³² matching edges; the old
/// `u32` field wrapped silently). The protocol is pre-1.0: peers must be
/// built from the same generation, and mixed-version conversations are not
/// supported or detected.
pub const PROTOCOL_VERSION: u32 = 2;

/// Largest number of `(u, v, count)` triples one response carries; `scan`
/// responses report the untruncated total alongside.
pub const MAX_REPLY_EDGES: usize = 65_536;

const OP_COUNT: u8 = 1;
const OP_TOPK: u8 = 2;
const OP_SCAN: u8 = 3;
const OP_STATS: u8 = 4;
const OP_SHUTDOWN: u8 = 5;

const ST_OK: u8 = 0;
const ST_OVERLOADED: u8 = 1;
const ST_NOT_AN_EDGE: u8 = 2;
const ST_BAD_REQUEST: u8 = 3;
const ST_SHUTTING_DOWN: u8 = 4;

/// A client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `|N(u) ∩ N(v)|` for one edge (input-graph vertex ids, any order).
    Count {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// The `k` highest-count edges.
    TopK {
        /// How many edges to return.
        k: u32,
    },
    /// Every edge with `count >= threshold`.
    Scan {
        /// Minimum count.
        threshold: u32,
    },
    /// The server's cnc-metrics v1 JSON snapshot.
    Stats,
    /// Drain in-flight batches and stop the server.
    Shutdown,
}

/// Why a request was refused (response statuses 1–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The admission queue is full — retry later (backpressure, not
    /// failure).
    Overloaded,
    /// The queried pair is not an edge of the graph.
    NotAnEdge,
    /// The frame decoded to no valid request.
    BadRequest,
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

impl Refusal {
    fn status(self) -> u8 {
        match self {
            Refusal::Overloaded => ST_OVERLOADED,
            Refusal::NotAnEdge => ST_NOT_AN_EDGE,
            Refusal::BadRequest => ST_BAD_REQUEST,
            Refusal::ShuttingDown => ST_SHUTTING_DOWN,
        }
    }

    /// Human label (used in error displays).
    pub fn label(self) -> &'static str {
        match self {
            Refusal::Overloaded => "overloaded",
            Refusal::NotAnEdge => "not_an_edge",
            Refusal::BadRequest => "bad_request",
            Refusal::ShuttingDown => "shutting_down",
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// OK body of a `count` request.
    Count(u32),
    /// OK body of a `topk`/`scan` request: the untruncated total plus the
    /// (possibly truncated) matching edges.
    Edges {
        /// Total matches, before response truncation. 64-bit on the wire:
        /// a directed edge count can exceed `u32` long before the reply
        /// edge list does.
        total: u64,
        /// Up to [`MAX_REPLY_EDGES`] matches.
        edges: Vec<EdgeCount>,
    },
    /// OK body of a `stats` request: cnc-metrics v1 JSON.
    Stats(String),
    /// OK body of a `shutdown` request.
    ShutdownAck,
    /// Any non-OK status, with its diagnostic message.
    Refused {
        /// Which status byte was sent.
        refusal: Refusal,
        /// Diagnostic message (may be empty).
        message: String,
    },
}

// --- encoding ----------------------------------------------------------

/// Encode a request payload (no frame prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::with_capacity(9);
    match *req {
        Request::Count { u, v } => {
            w.u8(OP_COUNT);
            w.u32(u);
            w.u32(v);
        }
        Request::TopK { k } => {
            w.u8(OP_TOPK);
            w.u32(k);
        }
        Request::Scan { threshold } => {
            w.u8(OP_SCAN);
            w.u32(threshold);
        }
        Request::Stats => w.u8(OP_STATS),
        Request::Shutdown => w.u8(OP_SHUTDOWN),
    }
    w.into_bytes()
}

/// Encode a response payload (no frame prefix).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut w = Writer::with_capacity(16);
    match reply {
        Reply::Count(c) => {
            w.u8(ST_OK);
            w.u32(*c);
        }
        Reply::Edges { total, edges } => {
            w.u8(ST_OK);
            w.u64(*total);
            w.count(edges.len());
            for e in edges {
                w.u32(e.u);
                w.u32(e.v);
                w.u32(e.count);
            }
        }
        Reply::Stats(json) => {
            w.u8(ST_OK);
            w.bytes(json.as_bytes());
        }
        Reply::ShutdownAck => w.u8(ST_OK),
        Reply::Refused { refusal, message } => {
            w.u8(refusal.status());
            w.bytes(message.as_bytes());
        }
    }
    w.into_bytes()
}

// --- decoding ----------------------------------------------------------

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut r = Reader::new(payload);
    let req = match r.u8("request opcode")? {
        OP_COUNT => Request::Count {
            u: r.u32("count.u")?,
            v: r.u32("count.v")?,
        },
        OP_TOPK => Request::TopK {
            k: r.u32("topk.k")?,
        },
        OP_SCAN => Request::Scan {
            threshold: r.u32("scan.threshold")?,
        },
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        op => {
            return Err(DecodeError::Invalid {
                field: "request opcode",
                value: u64::from(op),
            })
        }
    };
    r.finish()?;
    Ok(req)
}

/// Decode a response payload. OK bodies are request-shaped, so the decoder
/// needs the request this response answers.
pub fn decode_reply(payload: &[u8], request: &Request) -> Result<Reply, DecodeError> {
    let mut r = Reader::new(payload);
    let refusal = match r.u8("response status")? {
        ST_OK => {
            let reply = match request {
                Request::Count { .. } => Reply::Count(r.u32("count")?),
                Request::TopK { .. } | Request::Scan { .. } => {
                    let total = r.u64("total")?;
                    let returned = r.count(MAX_REPLY_EDGES, 12, "returned")?;
                    let mut edges = Vec::with_capacity(returned);
                    for _ in 0..returned {
                        edges.push(EdgeCount {
                            u: r.u32("edge.u")?,
                            v: r.u32("edge.v")?,
                            count: r.u32("edge.count")?,
                        });
                    }
                    Reply::Edges { total, edges }
                }
                Request::Stats => Reply::Stats(r.rest_str("stats json")?),
                Request::Shutdown => Reply::ShutdownAck,
            };
            r.finish()?;
            return Ok(reply);
        }
        ST_OVERLOADED => Refusal::Overloaded,
        ST_NOT_AN_EDGE => Refusal::NotAnEdge,
        ST_BAD_REQUEST => Refusal::BadRequest,
        ST_SHUTTING_DOWN => Refusal::ShuttingDown,
        st => {
            return Err(DecodeError::Invalid {
                field: "response status",
                value: u64::from(st),
            })
        }
    };
    let message = r.rest_str("refusal message")?;
    Ok(Reply::Refused { refusal, message })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Count { u: 7, v: 123456 },
            Request::TopK { k: 10 },
            Request::Scan { threshold: 3 },
            Request::Stats,
            Request::Shutdown,
        ] {
            assert_eq!(decode_request(&encode_request(&req)), Ok(req));
        }
    }

    #[test]
    fn replies_round_trip() {
        let cases: Vec<(Request, Reply)> = vec![
            (Request::Count { u: 0, v: 1 }, Reply::Count(42)),
            (
                Request::TopK { k: 2 },
                Reply::Edges {
                    total: 9,
                    edges: vec![
                        EdgeCount {
                            u: 1,
                            v: 2,
                            count: 8,
                        },
                        EdgeCount {
                            u: 0,
                            v: 9,
                            count: 7,
                        },
                    ],
                },
            ),
            (
                Request::Scan { threshold: 1 },
                Reply::Edges {
                    total: 0,
                    edges: vec![],
                },
            ),
            (Request::Stats, Reply::Stats("{\"schema\":1}".to_string())),
            (Request::Shutdown, Reply::ShutdownAck),
            (
                Request::Count { u: 0, v: 1 },
                Reply::Refused {
                    refusal: Refusal::Overloaded,
                    message: "queue full".to_string(),
                },
            ),
        ];
        for (req, reply) in cases {
            assert_eq!(decode_reply(&encode_reply(&reply), &req), Ok(reply));
        }
    }

    #[test]
    fn malformed_payloads_yield_typed_errors() {
        assert_eq!(
            decode_request(&[]),
            Err(DecodeError::Truncated("request opcode"))
        );
        assert_eq!(
            decode_request(&[99]),
            Err(DecodeError::Invalid {
                field: "request opcode",
                value: 99
            })
        );
        assert_eq!(
            decode_request(&[OP_COUNT, 1, 2]),
            Err(DecodeError::Truncated("count.u"))
        );
        assert_eq!(
            decode_request(&[OP_STATS, 0]),
            Err(DecodeError::TrailingBytes(1))
        );
        assert_eq!(
            decode_reply(&[7], &Request::Stats),
            Err(DecodeError::Invalid {
                field: "response status",
                value: 7
            })
        );
        assert_eq!(
            decode_reply(&[ST_OK, 1], &Request::Count { u: 0, v: 0 }),
            Err(DecodeError::Truncated("count"))
        );
    }

    #[test]
    fn an_edge_count_the_payload_cannot_hold_is_refused_before_allocation() {
        // 13 bytes claiming the maximum 65 536 edges: refused as truncated
        // by the count check, before any edge vector is reserved.
        let mut claim = vec![ST_OK];
        claim.extend_from_slice(&0u64.to_le_bytes());
        claim.extend_from_slice(&(MAX_REPLY_EDGES as u32).to_le_bytes());
        assert_eq!(
            decode_reply(&claim, &Request::TopK { k: 1 }),
            Err(DecodeError::Truncated("returned"))
        );
        claim[9..].copy_from_slice(&(MAX_REPLY_EDGES as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_reply(&claim, &Request::Scan { threshold: 0 }),
            Err(DecodeError::TooLong {
                field: "returned",
                ..
            })
        ));
    }

    #[test]
    fn edge_totals_survive_past_u32() {
        // The regression the u64 widening exists for: a total that the old
        // u32 field would have wrapped to 1.
        let reply = Reply::Edges {
            total: (1u64 << 32) + 1,
            edges: vec![],
        };
        let back = decode_reply(&encode_reply(&reply), &Request::Scan { threshold: 0 });
        assert_eq!(back, Ok(reply));
    }
}
