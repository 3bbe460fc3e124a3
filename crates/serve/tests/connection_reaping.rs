//! A daemon serving one client after another keeps only its live
//! connections' threads mapped. This test has a binary of its own because
//! it reads the whole process's memory map, which concurrent tests would
//! disturb.

#![cfg(target_os = "linux")]

use cnc_core::{Algorithm, BatchSession, Platform, Runner};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::PreparedGraph;
use cnc_serve::{serve, Client, Endpoint, ServeConfig};

/// Entries in this process's memory map.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn finished_connection_threads_are_reaped() {
    let runner = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf());
    let g = Dataset::TwS.build(Scale::Tiny);
    let (_, u, v) = g.iter_edges().next().expect("an edge");
    let pg = PreparedGraph::from_csr(g, runner.reorder_policy());
    let session = BatchSession::new(runner, pg).expect("plannable session");
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let handle = serve(&endpoint, session, ServeConfig::default()).expect("server starts");
    let addr = handle.local_addr().expect("tcp has an address").to_string();
    let connect_count_close = || {
        let mut client = Client::connect_tcp(&addr).expect("connect");
        client.count(u, v).expect("count");
    };
    // The first connections map what every later one reuses.
    for _ in 0..5 {
        connect_count_close();
    }
    let before = mappings();
    for _ in 0..200 {
        connect_count_close();
    }
    let grown = mappings().saturating_sub(before);
    handle.shutdown();
    handle.join();
    // Kept handles hold two mappings per finished thread, its stack and its
    // guard page: about 400 here. The last few connections may still be
    // closing; they add two each.
    assert!(grown < 100, "{grown} new mappings over 200 connections");
}
