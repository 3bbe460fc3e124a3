//! The daemon: listener + connection threads + one batching executor.
//!
//! The batching state machine (DESIGN §3g):
//!
//! ```text
//! connection threads                 batcher thread
//! ──────────────────                 ──────────────────────────────
//! count(u,v) ──admit──▶ queue ──▶ IDLE: wait until queue non-empty
//!        (full? reply overloaded)   COALESCE: sleep batch_window
//!                                   DRAIN: take the whole queue
//!                                   EXECUTE: dedup + sort + one
//!                                     source-aligned balanced pass
//!                                   REPLY: answer every waiter
//! ```
//!
//! * **Admission control**: the queue is bounded (`queue_cap`). A full
//!   queue refuses with status `overloaded` *immediately* — callers get
//!   backpressure, never a hang.
//! * **Coalescing**: everything admitted during one window executes as a
//!   single [`BatchSession::count_batch`] — duplicates are answered by one
//!   kernel probe, and per-source kernel state is built once per source
//!   per batch instead of once per request.
//! * **Graceful shutdown**: the `shutdown` request flips a flag; the
//!   batcher drains every admitted request (skipping the coalescing sleep)
//!   before exiting, so no admitted query goes unanswered.
//!
//! `topk` / `scan` / `stats` are answered directly on connection threads —
//! they read cached whole-pass state and never enter the point-query queue.
//!
//! Observability: the batcher installs the server's [`ObsContext`] and
//! nests `serve → batch → execute` spans (`execute` comes from
//! [`BatchSession::count_batch`]); `serve.*` counters record admissions,
//! batches, coalesced requests and the deepest queue occupancy.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use cnc_core::BatchSession;
use cnc_obs::{Counter, MetricsFile, ObsContext, RunReport};

use crate::protocol::{
    decode_request, encode_reply, read_frame, write_frame, FrameRead, Refusal, Reply, Request,
    MAX_FRAME, MAX_REPLY_EDGES,
};
use crate::ServeError;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`host:port`; port 0 picks a free port — see
    /// [`ServerHandle::local_addr`]).
    Tcp(String),
    /// A unix-domain socket path (created on start, removed on join).
    Unix(PathBuf),
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Coalescing window: how long the batcher waits after the first
    /// admission before draining the queue (`--batch-window-us`).
    pub batch_window: Duration,
    /// Admission-queue bound; a full queue refuses with `overloaded`.
    pub queue_cap: usize,
    /// Cap on edges returned per `topk`/`scan` response (≤
    /// [`MAX_REPLY_EDGES`]).
    pub reply_limit: usize,
    /// Label identifying the served graph in metrics output.
    pub graph_label: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch_window: Duration::from_micros(200),
            queue_cap: 1024,
            reply_limit: 1000,
            graph_label: "graph".to_string(),
        }
    }
}

/// One admitted point query waiting for its batch.
struct Pending {
    u: u32,
    v: u32,
    reply: mpsc::Sender<Option<u32>>,
}

struct Shared {
    session: BatchSession,
    cfg: ServeConfig,
    obs: Arc<ObsContext>,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    queue_depth_max: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The admission queue, recovering from poisoning. The queue is a plain
    /// `VecDeque` mutated only by whole-value `push_back`/`drain`, so a
    /// thread that panicked while holding the lock cannot have left it
    /// half-updated — propagating the poison would turn one dead connection
    /// handler into a cascading daemon death for no integrity gain.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Pending>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit one point query, or refuse with backpressure / drain status.
    fn admit(&self, u: u32, v: u32) -> Result<mpsc::Receiver<Option<u32>>, Refusal> {
        if self.shutting_down() {
            return Err(Refusal::ShuttingDown);
        }
        let (tx, rx) = mpsc::channel();
        let depth = {
            let mut q = self.lock_queue();
            if q.len() >= self.cfg.queue_cap {
                return Err(Refusal::Overloaded);
            }
            q.push_back(Pending { u, v, reply: tx });
            q.len() as u64
        };
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
        self.obs.add(Counter::ServeRequests, 1);
        self.queue_cv.notify_one();
        Ok(rx)
    }

    /// Current observability snapshot with the queue-depth high-water mark
    /// stamped in (it lives in an atomic, not the counter registry, so it
    /// can be a max instead of a sum).
    fn report(&self) -> RunReport {
        let mut r = RunReport::from_context(&self.obs);
        r.counters.set(
            Counter::ServeQueueDepthMax,
            self.queue_depth_max.load(Ordering::Relaxed),
        );
        r
    }

    /// The cnc-metrics v1 envelope for this server, with the whole span
    /// tree (the `--metrics` file).
    fn metrics_json(&self) -> String {
        self.envelope(&self.report())
    }

    /// The `stats` reply: the same envelope with every counter, but only as
    /// much of the span tree as fits one frame. A long-lived daemon records
    /// up to 65,536 spans, several MiB of JSON; the trimmed ones are counted
    /// in `spans_dropped`.
    fn stats_json(&self) -> String {
        let mut report = self.report();
        let mut keep = report.span_count();
        loop {
            let json = self.envelope(&report);
            // The reply payload is one status byte plus the JSON.
            if json.len() < MAX_FRAME || keep == 0 {
                return json;
            }
            // Spans are nearly all of the bytes: scale the kept share down
            // to the cap, and always by at least one span.
            keep = (keep * (MAX_FRAME - 1) / json.len()).min(keep - 1);
            report.truncate_spans(keep);
        }
    }

    fn envelope(&self, report: &RunReport) -> String {
        let mut f = MetricsFile::new();
        f.begin_run();
        f.field_str("graph", &self.cfg.graph_label);
        f.field_str("platform", "serve");
        f.field_str("algorithm", self.session.plan().algorithm.label());
        f.end_run(report);
        f.finish()
    }
}

/// The batcher loop: IDLE → COALESCE → DRAIN → EXECUTE → REPLY.
fn batcher(shared: &Arc<Shared>) {
    let _guard = shared.obs.install();
    let serve_span = shared.obs.span("serve");
    loop {
        // IDLE: wait for work (or for shutdown with an empty queue).
        {
            let mut q = shared.lock_queue();
            while q.is_empty() && !shared.shutting_down() {
                // Same poison-recovery reasoning as `lock_queue`: the wait
                // re-acquires the same always-consistent mutex.
                q = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            if q.is_empty() {
                break; // shutdown with nothing left: fully drained.
            }
        }
        // COALESCE: let the window fill (skipped while draining — latency
        // no longer matters, admitted work does).
        if !shared.shutting_down() {
            std::thread::sleep(shared.cfg.batch_window);
        }
        // DRAIN.
        let items: Vec<Pending> = {
            let mut q = shared.lock_queue();
            q.drain(..).collect()
        };
        if items.is_empty() {
            continue;
        }
        // EXECUTE: one deduplicated, source-aligned, cost-balanced pass.
        let mut batch_span = shared.obs.span("batch");
        batch_span.set_items(items.len() as u64);
        let queries: Vec<(u32, u32)> = items.iter().map(|p| (p.u, p.v)).collect();
        let out = shared.session.count_batch(&queries);
        shared.obs.add(Counter::ServeBatches, 1);
        shared.obs.add(
            Counter::ServeCoalesced,
            (items.len() - out.unique_pairs) as u64,
        );
        drop(batch_span);
        // REPLY: a send error only means the waiter's connection died.
        for (p, answer) in items.iter().zip(out.answers) {
            let _ = p.reply.send(answer);
        }
    }
    drop(serve_span);
}

/// A stream the connection loop can serve (TCP or unix).
trait Conn: Read + Write + Send {}
impl Conn for TcpStream {}
impl Conn for UnixStream {}

/// Reader adapter that retries timeout-flavored errors until shutdown,
/// then reports EOF — connection threads never block past a drain.
struct Patient<'a> {
    inner: &'a mut dyn Conn,
    shared: &'a Shared,
}

impl Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        loop {
            match self.inner.read(buf) {
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                    if self.shared.shutting_down() {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

/// Serve one connection until it closes, errors, or the server drains.
fn connection(shared: &Arc<Shared>, mut stream: Box<dyn Conn>) {
    loop {
        let frame = {
            let mut r = Patient {
                inner: stream.as_mut(),
                shared,
            };
            match read_frame(&mut r) {
                Ok(f) => f,
                // Truncated frame or dead socket: nothing to answer.
                Err(_) => return,
            }
        };
        let reply = match frame {
            FrameRead::Closed => return,
            FrameRead::TooLarge(len) => {
                // Framing sync is lost after an oversized prefix: answer
                // once, then close.
                let reply = refuse(
                    Refusal::BadRequest,
                    &format!("frame length {len} exceeds the cap"),
                );
                let _ = write_frame(&mut stream, &encode_reply(&reply));
                return;
            }
            FrameRead::Payload(payload) => match decode_request(&payload) {
                Err(e) => refuse(Refusal::BadRequest, &e.to_string()),
                Ok(req) => answer(shared, req),
            },
        };
        if write_frame(&mut stream, &encode_reply(&reply)).is_err() {
            return;
        }
    }
}

fn refuse(refusal: Refusal, message: &str) -> Reply {
    Reply::Refused {
        refusal,
        message: message.to_string(),
    }
}

/// Dispatch one decoded request to its reply.
fn answer(shared: &Arc<Shared>, req: Request) -> Reply {
    match req {
        Request::Count { u, v } => match shared.admit(u, v) {
            Err(r) => refuse(r, "admission refused"),
            Ok(rx) => match rx.recv() {
                Ok(Some(count)) => Reply::Count(count),
                Ok(None) => refuse(Refusal::NotAnEdge, &format!("({u},{v}) is not an edge")),
                // The batcher dropped the sender without answering: only
                // possible if it died; report drain instead of hanging.
                Err(_) => refuse(Refusal::ShuttingDown, "server stopped"),
            },
        },
        Request::TopK { k } => {
            let limit = (k as usize)
                .min(shared.cfg.reply_limit)
                .min(MAX_REPLY_EDGES);
            // The session reports the candidate total before the limit
            // clamps the edge list — `edges.len()` here would understate
            // whenever the reply is truncated.
            let (total, edges) = shared.session.topk(limit);
            Reply::Edges {
                total: total as u64,
                edges,
            }
        }
        Request::Scan { threshold } => {
            let limit = shared.cfg.reply_limit.min(MAX_REPLY_EDGES);
            let (total, edges) = shared.session.scan(threshold, limit);
            Reply::Edges {
                total: total as u64,
                edges,
            }
        }
        Request::Stats => Reply::Stats(shared.stats_json()),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            shared.queue_cv.notify_all();
            Reply::ShutdownAck
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl ListenerKind {
    /// Accept one connection if one is pending (listeners are
    /// non-blocking), configured with the read timeout the shutdown poll
    /// depends on.
    fn try_accept(&self) -> std::io::Result<Option<Box<dyn Conn>>> {
        use std::io::ErrorKind::WouldBlock;
        const READ_TIMEOUT: Duration = Duration::from_millis(50);
        match self {
            ListenerKind::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_read_timeout(Some(READ_TIMEOUT))?;
                    s.set_nodelay(true)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            ListenerKind::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_read_timeout(Some(READ_TIMEOUT))?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// Accept loop: poll for connections until shutdown, then join every
/// connection thread (they exit once drained — see [`Patient`]).
fn listener(shared: &Arc<Shared>, kind: ListenerKind) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutting_down() {
        match kind.try_accept() {
            Ok(Some(stream)) => {
                let shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || connection(&shared, stream)));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
    }
    for c in conns {
        let _ = c.join();
    }
}

/// A running daemon: the handle to query its address, stop it, and collect
/// its final report.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound TCP address (for `Endpoint::Tcp` with port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Ask the server to drain and stop (idempotent; `shutdown` requests
    /// over the wire do the same).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
    }

    /// The server's cnc-metrics v1 JSON at this instant.
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }

    /// Block until shutdown is requested — over the wire or via
    /// [`ServerHandle::shutdown`] from another thread — without initiating
    /// one. The foreground daemon (`cnc serve`) parks here.
    pub fn wait(&self) {
        while !self.shared.shutting_down() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Signal shutdown, wait for every batch to drain and every thread to
    /// exit, and return the final observability report.
    pub fn join(mut self) -> RunReport {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        self.shared.report()
    }
}

/// Start a daemon serving `session` on `endpoint`.
pub fn serve(
    endpoint: &Endpoint,
    session: BatchSession,
    cfg: ServeConfig,
) -> Result<ServerHandle, ServeError> {
    let (kind, local_addr, unix_path) = match endpoint {
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            l.set_nonblocking(true)?;
            let bound = l.local_addr()?;
            (ListenerKind::Tcp(l), Some(bound), None)
        }
        Endpoint::Unix(path) => {
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            (ListenerKind::Unix(l), None, Some(path.clone()))
        }
    };
    let shared = Arc::new(Shared {
        session,
        cfg,
        obs: Arc::new(ObsContext::new()),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        queue_depth_max: AtomicU64::new(0),
    });
    let mut threads = Vec::with_capacity(2);
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || batcher(&shared)));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || listener(&shared, kind)));
    }
    Ok(ServerHandle {
        shared,
        threads,
        local_addr,
        unix_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use cnc_core::{Algorithm, Platform, Runner};
    use cnc_graph::{CsrGraph, PreparedGraph};

    /// A deliberately panicked thread poisons the queue mutex while holding
    /// it; admission and the batcher must recover via `into_inner` and keep
    /// answering — one dead handler must not cascade into daemon death.
    #[test]
    fn poisoned_queue_mutex_leaves_the_server_answering() {
        // 0-1-2 triangle: count(0, 1) == 1.
        let g = CsrGraph::from_undirected_pairs(3, [(0u32, 1), (0, 2), (1, 2)].into_iter());
        let runner = Runner::new(Platform::cpu_parallel(), Algorithm::mps());
        let pg = PreparedGraph::from_csr(g, runner.reorder_policy());
        let session = BatchSession::new(runner, pg).expect("plannable session");
        let handle = serve(
            &Endpoint::Tcp("127.0.0.1:0".to_string()),
            session,
            ServeConfig::default(),
        )
        .expect("server starts");
        let addr = handle.local_addr().expect("tcp address").to_string();
        // Poison: panic while holding the queue lock, exactly what a
        // panicking handler that raced the admission path would do.
        let shared = Arc::clone(&handle.shared);
        let poisoner = std::thread::spawn(move || {
            let _q = shared.queue.lock().expect("first locker sees no poison");
            panic!("deliberate poison");
        });
        assert!(poisoner.join().is_err(), "poisoner must have panicked");
        assert!(
            handle.shared.queue.lock().is_err(),
            "mutex must actually be poisoned for the test to mean anything"
        );
        // The server still admits, batches, and answers.
        let mut client = Client::connect_tcp(&addr).expect("connect");
        assert_eq!(client.count(0, 1).expect("count after poison"), Some(1));
        let report = handle.join();
        assert_eq!(report.counter(Counter::ServeRequests), 1);
    }
}
