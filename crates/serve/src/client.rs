//! A blocking client for the serve protocol (one request in flight per
//! connection). Used by `cnc query`, the CI smoke clients, and the e2e
//! tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;

use cnc_core::EdgeCount;

use crate::protocol::{
    decode_reply, encode_request, read_frame, write_frame, FrameRead, Refusal, Reply, Request,
    MAX_FRAME,
};
use crate::server::Endpoint;
use crate::{DecodeError, ServeError};

trait Stream: Read + Write + Send {}
impl Stream for TcpStream {}
impl Stream for UnixStream {}

/// One connection to a running daemon.
pub struct Client {
    stream: Box<dyn Stream>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish()
    }
}

impl Client {
    /// Connect over TCP (`host:port`).
    pub fn connect_tcp(addr: &str) -> Result<Self, ServeError> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Self {
            stream: Box::new(s),
        })
    }

    /// Connect to a unix-domain socket.
    pub fn connect_unix(path: &Path) -> Result<Self, ServeError> {
        Ok(Self {
            stream: Box::new(UnixStream::connect(path)?),
        })
    }

    /// Connect to whichever endpoint the server was started on.
    pub fn connect(endpoint: &Endpoint) -> Result<Self, ServeError> {
        match endpoint {
            Endpoint::Tcp(addr) => Self::connect_tcp(addr),
            Endpoint::Unix(path) => Self::connect_unix(path),
        }
    }

    /// Send one request and wait for its reply. Refusals (overloaded,
    /// not-an-edge, …) come back as `Ok(Reply::Refused { .. })` — they are
    /// protocol answers, not transport failures.
    pub fn request(&mut self, req: &Request) -> Result<Reply, ServeError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        match read_frame(&mut self.stream)? {
            FrameRead::Payload(payload) => Ok(decode_reply(&payload, req)?),
            FrameRead::Closed => Err(ServeError::ConnectionClosed),
            FrameRead::TooLarge(len) => Err(ServeError::Protocol(DecodeError::TooLong {
                field: "frame length",
                len: u64::from(len),
                max: MAX_FRAME as u64,
            })),
        }
    }

    /// `count(u, v)`: `Ok(Some(count))` for an edge, `Ok(None)` for a
    /// non-edge, `Err` for transport trouble or a refusal.
    pub fn count(&mut self, u: u32, v: u32) -> Result<Option<u32>, ServeError> {
        match self.request(&Request::Count { u, v })? {
            Reply::Count(c) => Ok(Some(c)),
            Reply::Refused {
                refusal: Refusal::NotAnEdge,
                ..
            } => Ok(None),
            Reply::Refused { refusal, message } => Err(ServeError::Refused { refusal, message }),
            other => Err(ServeError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// `topk(k)`: `(untruncated candidate total, highest-count edges)`.
    /// The total counts every candidate edge, not the (possibly
    /// server-clamped) reply length.
    pub fn topk(&mut self, k: u32) -> Result<(u64, Vec<EdgeCount>), ServeError> {
        match self.request(&Request::TopK { k })? {
            Reply::Edges { total, edges } => Ok((total, edges)),
            Reply::Refused { refusal, message } => Err(ServeError::Refused { refusal, message }),
            other => Err(ServeError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// `scan(threshold)`: `(untruncated total, matching edges)`.
    pub fn scan(&mut self, threshold: u32) -> Result<(u64, Vec<EdgeCount>), ServeError> {
        match self.request(&Request::Scan { threshold })? {
            Reply::Edges { total, edges } => Ok((total, edges)),
            Reply::Refused { refusal, message } => Err(ServeError::Refused { refusal, message }),
            other => Err(ServeError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// `stats`: the server's cnc-metrics v1 JSON.
    pub fn stats(&mut self) -> Result<String, ServeError> {
        match self.request(&Request::Stats)? {
            Reply::Stats(json) => Ok(json),
            Reply::Refused { refusal, message } => Err(ServeError::Refused { refusal, message }),
            other => Err(ServeError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// `shutdown`: drain and stop the server.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Shutdown)? {
            Reply::ShutdownAck => Ok(()),
            Reply::Refused { refusal, message } => Err(ServeError::Refused { refusal, message }),
            other => Err(ServeError::UnexpectedReply(format!("{other:?}"))),
        }
    }
}
