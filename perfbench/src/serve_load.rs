//! Serving: `cnc serve`'s default daemon started through `cnc_serve::serve`
//! on a unix socket, an open-loop point-query generator, a closed-loop
//! capacity probe and a closed-loop `topk` probe.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cnc_core::{BatchSession, EdgeCount, PreparedGraph};
use cnc_obs::RunReport;
use cnc_serve::{serve, Client, Endpoint, ServeConfig, ServerHandle};

use crate::gate::{Ledger, Query, Reference, TOPK};
use crate::host::{self, Timing};
use crate::passes::Kernel;

/// A `topk` reply: the candidate total and the highest-count edges.
pub type TopK = (u64, Vec<EdgeCount>);

/// A running daemon and the client connections the load generator uses.
pub struct Daemon {
    handle: ServerHandle,
    pub clients: Vec<Client>,
    /// The first `topk` reply, which filled the bulk-count cache.
    pub first_topk: TopK,
}

impl Daemon {
    /// `BatchSession::new`, `serve`, connect `connections` clients and send
    /// the first `topk`: everything a daemon needs before its first timed
    /// query.
    pub fn start(pg: Arc<PreparedGraph>, sock: &Path, connections: usize) -> Result<Self, String> {
        let session = BatchSession::new(Kernel::BmpRf.runner(), pg).map_err(|e| e.to_string())?;
        let endpoint = Endpoint::Unix(sock.to_path_buf());
        let handle =
            serve(&endpoint, session, ServeConfig::default()).map_err(|e| e.to_string())?;
        let mut clients = Vec::with_capacity(connections);
        for _ in 0..connections {
            clients.push(Client::connect(&endpoint).map_err(|e| e.to_string())?);
        }
        let first_topk = clients[0].topk(TOPK as u32).map_err(|e| e.to_string())?;
        Ok(Self {
            handle,
            clients,
            first_topk,
        })
    }

    /// Close the connections, drain the daemon and join its threads;
    /// returns the daemon's final report (the counters its `stats` reply
    /// carries).
    pub fn stop(self) -> RunReport {
        drop(self.clients);
        self.handle.join()
    }
}

/// SplitMix64: the benchmark's own seeded stream, so the drawn queries
/// depend on the seed alone.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `n` queries drawn uniformly (with replacement) from `edges`.
pub fn draw(edges: &[Query], rng: &mut SplitMix, n: usize) -> Vec<Query> {
    (0..n).map(|_| edges[rng.below(edges.len())]).collect()
}

/// One open-loop request: when it was due, sent and answered.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub due: Instant,
    pub send: Instant,
    pub reply: Instant,
}

/// One `count(u, v)`, checked against the reference.
fn ask(client: &mut Client, q: &Query, ledger: &mut Ledger) {
    let ok = matches!(client.count(q.u, q.v), Ok(Some(c)) if c == q.want);
    ledger.check("count", ok);
}

/// Open loop: each client on its own generator thread sends all of its
/// queries on a fixed schedule at `total_rate / clients` per second,
/// sleeping (never spinning) until each request is due. A request whose
/// predecessor is still outstanding is sent late; its latency still counts
/// from its due time.
pub fn open_loop(
    clients: &mut [Client],
    queries: &[Vec<Query>],
    total_rate: f64,
    ledger: &mut Ledger,
) -> Vec<Timed> {
    let per_client = clients.len() as f64;
    let period = Duration::from_secs_f64(per_client / total_rate);
    let start = Instant::now() + Duration::from_millis(1);
    let runs: Vec<(Vec<Timed>, Ledger)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(queries)
            .enumerate()
            .map(|(i, (client, qs))| {
                // Interleave the clients' schedules evenly.
                let offset = period.mul_f64(i as f64 / per_client);
                scope.spawn(move || {
                    let mut timed = Vec::with_capacity(qs.len());
                    let mut ledger = Ledger::default();
                    for (k, q) in qs.iter().enumerate() {
                        let due = start + offset + period.mul_f64(k as f64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let send = Instant::now();
                        ask(client, q, &mut ledger);
                        let reply = Instant::now();
                        timed.push(Timed { due, send, reply });
                    }
                    (timed, ledger)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop generator thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for (timed, thread_ledger) in runs {
        all.extend(timed);
        ledger.absorb(thread_ledger);
    }
    all.sort_by_key(|t| t.due);
    all
}

/// What one closed-loop slice measured.
pub struct ClosedLoop {
    /// Completion rate (per second) of each run of `chunk` consecutive
    /// completions across clients.
    pub rates: Vec<f64>,
    /// CPU time of the whole process (client and daemon threads) per
    /// completed query, in microseconds; `None` when nothing completed.
    pub cpu_us_per_query: Option<f64>,
}

/// Closed loop: every client sends its next query as soon as the previous one
/// is answered, until `dur` has passed.
pub fn closed_loop(
    clients: &mut [Client],
    queries: &[Vec<Query>],
    dur: Duration,
    chunk: usize,
    ledger: &mut Ledger,
) -> ClosedLoop {
    let cpu0 = host::process_cpu_ms();
    let end = Instant::now() + dur;
    let runs: Vec<(Vec<Instant>, Ledger)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(queries)
            .map(|(client, qs)| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut ledger = Ledger::default();
                    for q in qs.iter().cycle() {
                        if Instant::now() >= end {
                            break;
                        }
                        ask(client, q, &mut ledger);
                        done.push(Instant::now());
                    }
                    (done, ledger)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let cpu_ms = host::process_cpu_ms() - cpu0;
    let mut done = Vec::new();
    for (d, thread_ledger) in runs {
        done.extend(d);
        ledger.absorb(thread_ledger);
    }
    done.sort();
    let rates = done
        .chunks_exact(chunk.max(2))
        .map(|c| (c.len() - 1) as f64 / c[c.len() - 1].duration_since(c[0]).as_secs_f64())
        .filter(|r| r.is_finite())
        .collect();
    ClosedLoop {
        rates,
        cpu_us_per_query: (!done.is_empty()).then(|| cpu_ms * 1e3 / done.len() as f64),
    }
}

/// `topk(100)` back to back on one connection until `dur` has
/// passed (at least `min_samples` times), each call timed. With one request
/// in flight, the process's CPU time during a call is the connection
/// thread's work plus the client's.
pub fn topk_loop(
    client: &mut Client,
    reference: &Reference,
    dur: Duration,
    min_samples: usize,
    ledger: &mut Ledger,
) -> Vec<Timing> {
    let end = Instant::now() + dur;
    let mut lat = Vec::new();
    while lat.len() < min_samples || Instant::now() < end {
        let (reply, timing) = host::timed(|| client.topk(TOPK as u32));
        lat.push(timing);
        let ok = matches!(&reply, Ok((total, edges)) if reference.is_topk(*total, edges));
        ledger.check("topk", ok);
    }
    lat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_seeded() {
        let stream = |seed| {
            let mut r = SplitMix::new(seed);
            (0..4).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }
}
