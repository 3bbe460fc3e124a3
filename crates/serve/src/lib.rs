//! `cnc-serve`: a resident query service for all-edge common neighbor
//! counting.
//!
//! The repo can prepare, cache, mmap, schedule and count faster than it can
//! be *asked*: a process launch per query pays preparation and a full pass
//! for one answer. This crate keeps an `Arc<PreparedGraph>` resident behind
//! a planned [`BatchSession`](cnc_core::BatchSession) and answers point
//! queries over a length-prefixed socket protocol ([`protocol`]), applying
//! the paper's scheduling insight to *batches of queries*: requests
//! arriving within a coalescing window are deduplicated, sorted by source
//! vertex, and executed as one source-aligned cost-balanced schedule, so a
//! flood of small queries costs close to one bulk pass over their edges.
//!
//! * [`serve`] starts the daemon ([`Endpoint::Tcp`] or [`Endpoint::Unix`]);
//! * [`Client`] is the matching blocking client;
//! * backpressure is typed, never a hang: a bounded admission queue refuses
//!   with [`Refusal::Overloaded`] the moment it is full;
//! * metrics are the existing cnc-metrics v1 schema with the `serve.*`
//!   counters and a `serve → batch → execute` span level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

mod client;
pub mod framing;
pub mod protocol;
mod server;

pub use client::Client;
pub use cnc_graph::codec::DecodeError;
pub use framing::{read_frame, write_frame, FrameRead, MAX_FRAME};
pub use protocol::{Refusal, Reply, Request, MAX_REPLY_EDGES, PROTOCOL_VERSION};
pub use server::{serve, Endpoint, ServeConfig, ServerHandle};

use cnc_core::PlanError;

/// Everything that can go wrong starting, running, or talking to a server.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure.
    Io(std::io::Error),
    /// Malformed bytes on the wire.
    Protocol(DecodeError),
    /// The session could not be planned (bad kernel config, non-CPU
    /// platform, non-CNC workload).
    Plan(PlanError),
    /// The server refused the request (a protocol answer surfaced as an
    /// error by the typed client helpers).
    Refused {
        /// Which status the server sent.
        refusal: Refusal,
        /// The server's diagnostic message.
        message: String,
    },
    /// The server closed the connection instead of replying.
    ConnectionClosed,
    /// The server answered with a reply shape the request cannot have.
    UnexpectedReply(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Plan(e) => write!(f, "cannot plan serving session: {e}"),
            ServeError::Refused { refusal, message } => {
                write!(f, "server refused ({}): {message}", refusal.label())
            }
            ServeError::ConnectionClosed => write!(f, "server closed the connection"),
            ServeError::UnexpectedReply(got) => write!(f, "unexpected reply shape: {got}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            ServeError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}
