//! End-to-end protocol tests: a real daemon on a real socket, concurrent
//! clients, malformed bytes, backpressure, and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use cnc_core::{verify::reference_counts, Algorithm, BatchSession, Platform, Runner};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::{CsrGraph, PreparedGraph};
use cnc_obs::Counter;
use cnc_serve::{
    serve, Client, Endpoint, Refusal, Reply, Request, ServeConfig, ServerHandle, MAX_FRAME,
};

/// A daemon over the tw-s tiny analogue on a fresh TCP port, plus the
/// sequential oracle its answers must match byte-for-byte.
fn start_tcp(cfg: ServeConfig) -> (ServerHandle, String, CsrGraph, Vec<u32>) {
    let runner = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf());
    let g = Dataset::TwS.build(Scale::Tiny);
    let want = reference_counts(&g);
    let pg = PreparedGraph::from_csr(g.clone(), runner.reorder_policy());
    let session = BatchSession::new(runner, pg).expect("plannable session");
    let handle =
        serve(&Endpoint::Tcp("127.0.0.1:0".to_string()), session, cfg).expect("server starts");
    let addr = handle.local_addr().expect("tcp has an address").to_string();
    (handle, addr, g, want)
}

#[test]
fn eight_concurrent_clients_match_the_oracle() {
    let (handle, addr, g, want) = start_tcp(ServeConfig {
        batch_window: Duration::from_millis(5),
        ..ServeConfig::default()
    });
    let edges: Vec<(usize, u32, u32)> = g.iter_edges().collect();
    let per_client = 50.min(edges.len() / 8);
    let mut workers = Vec::new();
    for c in 0..8usize {
        let addr = addr.clone();
        let want = want.clone();
        let slice: Vec<(usize, u32, u32)> = edges
            .iter()
            .cycle()
            .skip(c * 37) // deliberately overlapping: cross-client dedup
            .take(per_client)
            .copied()
            .collect();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("connect");
            for (eid, u, v) in slice {
                let got = client.count(u, v).expect("count");
                assert_eq!(got, Some(want[eid]), "({u},{v})");
            }
        }));
    }
    for w in workers {
        w.join().expect("client thread");
    }
    let total = (8 * per_client) as u64;
    let report = handle.join();
    assert_eq!(report.counter(Counter::ServeRequests), total);
    let batches = report.counter(Counter::ServeBatches);
    assert!(batches >= 1);
    assert!(
        batches < total,
        "coalescing must happen: {batches} batches for {total} requests"
    );
    assert!(report.counter(Counter::ServeQueueDepthMax) >= 1);
    // The span levels of the serving layer.
    let serve_span = report
        .spans
        .iter()
        .find(|s| s.name == "serve")
        .expect("serve span");
    let batch_span = serve_span
        .children
        .iter()
        .find(|s| s.name == "batch")
        .expect("batch span under serve");
    assert!(
        batch_span.children.iter().any(|s| s.name == "execute"),
        "execute span under batch"
    );
    assert_eq!(serve_span.children.len() as u64, batches);
}

#[test]
fn malformed_frames_get_typed_errors_never_a_panic() {
    let (handle, addr, _g, _want) = start_tcp(ServeConfig::default());
    // Unknown opcode: typed bad_request, connection stays usable.
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(&1u32.to_le_bytes()).expect("len");
    raw.write_all(&[0xAB]).expect("opcode");
    let reply = read_raw_reply(&mut raw);
    assert_refused(&reply, Refusal::BadRequest);
    // Same connection: a short count payload is also typed.
    raw.write_all(&3u32.to_le_bytes()).expect("len");
    raw.write_all(&[1, 0, 0]).expect("half a count");
    let reply = read_raw_reply(&mut raw);
    assert_refused(&reply, Refusal::BadRequest);
    drop(raw);
    // Oversized length prefix: answered, then closed (framing lost).
    let mut big = TcpStream::connect(&addr).expect("connect");
    big.write_all(&((MAX_FRAME as u32) + 1).to_le_bytes())
        .expect("huge len");
    let reply = read_raw_reply(&mut big);
    assert_refused(&reply, Refusal::BadRequest);
    let mut probe = [0u8; 1];
    assert_eq!(big.read(&mut probe).expect("read EOF"), 0, "server closes");
    // A frame truncated by disconnect must not take the server down.
    let mut cut = TcpStream::connect(&addr).expect("connect");
    cut.write_all(&100u32.to_le_bytes()).expect("len");
    cut.write_all(&[1, 2, 3]).expect("partial payload");
    drop(cut);
    // Server still serves.
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let stats = client.stats().expect("stats after abuse");
    assert!(stats.contains("\"schema\":\"cnc-metrics\""));
    handle.join();
}

fn read_raw_reply(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("reply prefix");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("reply payload");
    payload
}

fn assert_refused(payload: &[u8], refusal: Refusal) {
    // Any request shape decodes refusal statuses identically.
    let reply = cnc_serve::protocol::decode_reply(payload, &Request::Stats).expect("decodes");
    match reply {
        Reply::Refused { refusal: got, .. } => assert_eq!(got, refusal),
        other => panic!("expected {refusal:?}, got {other:?}"),
    }
}

#[test]
fn full_queue_refuses_with_overloaded_not_a_hang() {
    let (handle, addr, g, want) = start_tcp(ServeConfig {
        batch_window: Duration::from_millis(400),
        queue_cap: 1,
        ..ServeConfig::default()
    });
    let (eid, u, v) = g.iter_edges().next().expect("an edge");
    // First query occupies the whole queue for the long window.
    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            Client::connect_tcp(&addr)
                .expect("connect")
                .count(u, v)
                .expect("admitted count")
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    // Second query: refused immediately, no hang.
    let t0 = std::time::Instant::now();
    let refused = Client::connect_tcp(&addr)
        .expect("connect")
        .request(&Request::Count { u, v })
        .expect("transport ok");
    assert!(
        matches!(
            refused,
            Reply::Refused {
                refusal: Refusal::Overloaded,
                ..
            }
        ),
        "got {refused:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(300),
        "backpressure must be immediate, took {:?}",
        t0.elapsed()
    );
    assert_eq!(first.join().expect("first client"), Some(want[eid]));
    let report = handle.join();
    assert_eq!(
        report.counter(Counter::ServeRequests),
        1,
        "refused requests are not admissions"
    );
}

#[test]
fn graceful_shutdown_drains_in_flight_batches() {
    let (handle, addr, g, want) = start_tcp(ServeConfig {
        batch_window: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let edges: Vec<(usize, u32, u32)> = g.iter_edges().filter(|&(_, u, v)| u < v).collect();
    let mut waiters = Vec::new();
    for k in 0..6usize {
        let addr = addr.clone();
        let (eid, u, v) = edges[k % edges.len()];
        let expect = want[eid];
        waiters.push(std::thread::spawn(move || {
            let got = Client::connect_tcp(&addr)
                .expect("connect")
                .count(u, v)
                .expect("in-flight query must be answered");
            assert_eq!(got, Some(expect), "({u},{v})");
        }));
    }
    // Let every query be admitted into the open window, then shut down.
    std::thread::sleep(Duration::from_millis(120));
    Client::connect_tcp(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    for w in waiters {
        w.join().expect("drained waiter");
    }
    let report = handle.join();
    assert_eq!(report.counter(Counter::ServeRequests), 6);
    assert!(report.counter(Counter::ServeBatches) >= 1);
    // New connections after drain are refused or fail to connect, never
    // answered silently wrong.
    match Client::connect_tcp(&addr) {
        Err(_) => {}
        Ok(mut c) => match c.request(&Request::Count { u: 0, v: 1 }) {
            Ok(Reply::Refused { .. }) | Err(_) => {}
            Ok(other) => panic!("post-shutdown answer: {other:?}"),
        },
    }
}

/// The `total` regression suite: with `reply_limit` far below the match
/// count, both `topk` and `scan` must still report the sequential oracle's
/// *untruncated* totals — not the length of the clamped edge list — and
/// return the oracle's first edges. The BMP-RF daemon counts on the
/// degree-descending relabel, so its cached counts come back remapped.
#[test]
fn truncated_replies_report_untruncated_totals() {
    let (handle, addr, g, want) = start_tcp(ServeConfig {
        reply_limit: 2,
        ..ServeConfig::default()
    });
    let canonical: Vec<(u32, u32, u32)> = g
        .iter_edges()
        .filter(|&(_, u, v)| u < v)
        .map(|(eid, u, v)| (u, v, want[eid]))
        .collect();
    assert!(
        canonical.len() > 2,
        "the fixture must have more matches than the reply limit"
    );
    let triples = |edges: &[cnc_core::EdgeCount]| -> Vec<(u32, u32, u32)> {
        edges.iter().map(|e| (e.u, e.v, e.count)).collect()
    };
    let mut client = Client::connect_tcp(&addr).expect("connect");
    // topk: every canonical edge is a candidate; the reply carries the
    // best 2 (descending count, then ascending `(u, v)`).
    let mut best = canonical.clone();
    best.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));
    let (top_total, top) = client.topk(1000).expect("topk");
    assert_eq!(top_total, canonical.len() as u64);
    assert_eq!(triples(&top), best[..2]);
    // scan at threshold 0 matches every canonical edge; the reply carries
    // the first 2 in `(u, v)` order.
    let (scan_total, hits) = client.scan(0).expect("scan");
    assert_eq!(scan_total, canonical.len() as u64);
    assert_eq!(triples(&hits), canonical[..2]);
    // A selective threshold: the total still tracks the oracle, truncated
    // or not.
    let threshold = best[0].2;
    let oracle: Vec<(u32, u32, u32)> = canonical
        .iter()
        .filter(|e| e.2 >= threshold)
        .copied()
        .collect();
    let (sel_total, sel_hits) = client.scan(threshold).expect("selective scan");
    assert_eq!(sel_total, oracle.len() as u64);
    assert_eq!(triples(&sel_hits), oracle[..oracle.len().min(2)]);
    handle.join();
}

#[test]
fn unix_socket_topk_scan_and_stats_work_end_to_end() {
    let runner = Runner::new(Platform::cpu_parallel(), Algorithm::mps());
    let g = Dataset::LjS.build(Scale::Tiny);
    let want = reference_counts(&g);
    let pg = PreparedGraph::from_csr(g.clone(), runner.reorder_policy());
    let session = BatchSession::new(runner, pg).expect("plannable session");
    let path = std::env::temp_dir().join(format!("cnc-serve-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let handle = serve(
        &Endpoint::Unix(path.clone()),
        session,
        ServeConfig::default(),
    )
    .expect("unix server");
    let mut client = Client::connect_unix(&path).expect("connect");
    // Oracle-derived expectations.
    let mut all: Vec<(u32, u32, u32)> = g
        .iter_edges()
        .filter(|&(_, u, v)| u < v)
        .map(|(eid, u, v)| (want[eid], u, v))
        .collect();
    all.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| (a.1, a.2).cmp(&(b.1, b.2))));
    let (top_total, top) = client.topk(3).expect("topk");
    assert_eq!(top_total, all.len() as u64, "topk total is pre-truncation");
    assert_eq!(top.len(), 3.min(all.len()));
    for (got, &(count, u, v)) in top.iter().zip(&all) {
        assert_eq!((got.count, got.u, got.v), (count, u, v));
    }
    let threshold = top[0].count;
    let (total, hits) = client.scan(threshold).expect("scan");
    assert_eq!(
        total as usize,
        all.iter().filter(|e| e.0 >= threshold).count()
    );
    assert!(hits.iter().all(|e| e.count >= threshold));
    // Counts over unix transport match the oracle too.
    let (eid, u, v) = g.iter_edges().next().expect("edge");
    assert_eq!(client.count(u, v).expect("count"), Some(want[eid]));
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"schema\":\"cnc-metrics\""));
    assert!(stats.contains("\"version\":1"));
    assert!(stats.contains("\"serve.requests\":1"));
    client.shutdown().expect("shutdown");
    handle.join();
    assert!(!path.exists(), "socket file removed on join");
}

#[test]
fn stats_reply_fits_one_frame_after_many_batches() {
    // Every batch records a `batch` and an `execute` span, so a few
    // thousand one-query batches grow the full tree past one frame.
    let (handle, addr, g, want) = start_tcp(ServeConfig {
        batch_window: Duration::ZERO,
        ..ServeConfig::default()
    });
    let (eid, u, v) = g.iter_edges().next().expect("edge");
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let mut queries = 0u64;
    while handle.metrics_json().len() <= MAX_FRAME {
        assert!(queries < 200_000, "span tree never outgrew one frame");
        for _ in 0..1000 {
            assert_eq!(client.count(u, v).expect("count"), Some(want[eid]));
        }
        queries += 1000;
    }
    let stats = client.stats().expect("the stats reply decodes");
    assert!(stats.len() < MAX_FRAME);
    assert!(stats.contains("\"schema\":\"cnc-metrics\""));
    // Every counter survives the trim; the trimmed spans are counted.
    assert!(stats.contains(&format!("\"serve.requests\":{queries}")));
    let dropped: u64 = stats
        .split("\"spans_dropped\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("spans_dropped field");
    assert!(dropped > 0, "trimmed spans must be counted");
    // The connection is still in sync after the large reply.
    assert_eq!(client.count(u, v).expect("count"), Some(want[eid]));
    client.shutdown().expect("shutdown");
    let report = handle.join();
    assert_eq!(
        report.spans_dropped, 0,
        "the shutdown report keeps the tree"
    );
}
