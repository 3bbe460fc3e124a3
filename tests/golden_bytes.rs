//! Golden bytes for every wire and file format.
//!
//! One encoded message of every serve request and reply kind and every shard
//! message kind, plus small `CNCCSR01`, `CNCCNT01`, `CNCRUN01` and `CNCPREP5`
//! images (both reorder policies, written in memory and streamed from text
//! and binary input), each compared with the hex bytes pinned in
//! `tests/fixtures/golden_bytes.txt`. A codec change that moves a single
//! byte of a well-formed message or image fails here.

use std::collections::BTreeMap;
use std::path::PathBuf;

use cnc_core::EdgeCount;
use cnc_graph::stream::{self, ExternalSorter, StreamConfig};
use cnc_graph::{generators, io, prepare, CsrGraph, PreparedGraph, ReorderPolicy};
use cnc_intersect::WorkCounts;
use cnc_serve::protocol::{encode_reply, encode_request};
use cnc_serve::{Refusal, Reply, Request};
use cnc_shard::{encode_msg, ShardTally, WorkerMsg};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_bytes.txt")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cnc-golden-{}-{tag}", std::process::id()))
}

fn serve_messages(out: &mut BTreeMap<String, Vec<u8>>) {
    let requests = [
        ("count", Request::Count { u: 7, v: 123_456 }),
        ("topk", Request::TopK { k: 10 }),
        ("scan", Request::Scan { threshold: 3 }),
        ("stats", Request::Stats),
        ("shutdown", Request::Shutdown),
    ];
    for (name, req) in &requests {
        out.insert(format!("serve.request.{name}"), encode_request(req));
    }
    let edges = vec![
        EdgeCount {
            u: 1,
            v: 2,
            count: 8,
        },
        EdgeCount {
            u: 0,
            v: 90_000,
            count: 7,
        },
    ];
    let replies = [
        ("count", Reply::Count(42)),
        (
            "edges",
            Reply::Edges {
                total: (1u64 << 32) + 1,
                edges,
            },
        ),
        (
            "edges_empty",
            Reply::Edges {
                total: 0,
                edges: Vec::new(),
            },
        ),
        ("stats", Reply::Stats("{\"schema\":\"cnc-metrics\"}".into())),
        ("shutdown", Reply::ShutdownAck),
    ];
    for (name, reply) in &replies {
        out.insert(format!("serve.reply.{name}"), encode_reply(reply));
    }
    for refusal in [
        Refusal::Overloaded,
        Refusal::NotAnEdge,
        Refusal::BadRequest,
        Refusal::ShuttingDown,
    ] {
        let reply = Reply::Refused {
            refusal,
            message: format!("refused: {}", refusal.label()),
        };
        out.insert(
            format!("serve.reply.refused.{}", refusal.label()),
            encode_reply(&reply),
        );
    }
}

fn shard_messages(out: &mut BTreeMap<String, Vec<u8>>) {
    let messages = [
        (
            "hello",
            WorkerMsg::Hello {
                version: 2,
                shard: 3,
                start: 1_000,
                end: 5_000_000_000,
            },
        ),
        ("counts", WorkerMsg::Counts(vec![0, 1, u32::MAX, 7])),
        ("counts_empty", WorkerMsg::Counts(Vec::new())),
        ("report", WorkerMsg::Report("{\"enabled\":true}".into())),
        (
            "done",
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
                wall_nanos: u64::MAX,
            }),
        ),
        (
            "error",
            WorkerMsg::Error("worker died: out of cheese".into()),
        ),
    ];
    for (name, msg) in &messages {
        out.insert(format!("shard.{name}"), encode_msg(msg));
    }
}

fn file_images(out: &mut BTreeMap<String, Vec<u8>>) {
    let el = generators::gnm(12, 30, 5);
    let g = CsrGraph::from_edge_list(&el);
    let mut csr = Vec::new();
    io::write_csr(&g, &mut csr).expect("write CNCCSR01");
    out.insert("file.csr".into(), csr.clone());

    let counts: Vec<u32> = (0..g.num_directed_edges() as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mut cnt = Vec::new();
    io::write_counts(&counts, &mut cnt).expect("write CNCCNT01");
    out.insert("file.counts".into(), cnt);

    let mut text = Vec::new();
    io::write_edge_list(&el, &mut text).expect("write SNAP text");
    let (text_in, csr_in) = (temp_path("in.txt"), temp_path("in.bin"));
    std::fs::write(&text_in, &text).expect("write text input");
    std::fs::write(&csr_in, &csr).expect("write binary input");
    for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
        let mut prep = Vec::new();
        prepare::write_prepared(&PreparedGraph::from_edge_list(&el, policy), &mut prep)
            .expect("write CNCPREP5");
        out.insert(format!("file.prep.{}", policy.tag()), prep);
        for (source, input) in [("text", &text_in), ("csr", &csr_in)] {
            let image = temp_path(&format!("{source}-{}.prep", policy.tag()));
            let budget = StreamConfig {
                mem_budget: Some(4096),
                spill_dir: None,
            };
            stream::prepare_file(input, &image, policy, &budget).expect("stream prepare");
            out.insert(
                format!("file.prep.{}.streamed_from_{source}", policy.tag()),
                std::fs::read(&image).expect("read streamed image"),
            );
            let _ = std::fs::remove_file(&image);
        }
    }
    let _ = std::fs::remove_file(&text_in);
    let _ = std::fs::remove_file(&csr_in);

    // The smallest budget buffers 512 pairs; the 513th push spills the
    // first run, sorted and deduplicated.
    let mut sorter = ExternalSorter::new(&StreamConfig {
        mem_budget: Some(1),
        spill_dir: None,
    })
    .expect("sorter");
    let pairs = generators::gnm(400, 600, 11);
    for (u, v) in pairs.iter() {
        sorter.push(v, u).expect("push");
    }
    assert!(sorter.spill_runs() >= 1, "the budget must spill a run");
    let run = std::fs::read(sorter.spill_dir().join("run-0.cncrun")).expect("read spill run");
    out.insert("file.run".into(), run);
}

#[test]
fn every_format_keeps_its_golden_bytes() {
    let mut got = BTreeMap::new();
    serve_messages(&mut got);
    shard_messages(&mut got);
    file_images(&mut got);

    let fixture = std::fs::read_to_string(fixture_path()).expect("golden fixture");
    let want: BTreeMap<String, String> = fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, bytes) = l.split_once(' ').expect("`name hex` line");
            (name.to_string(), bytes.to_string())
        })
        .collect();
    let got: BTreeMap<String, String> = got.into_iter().map(|(k, v)| (k, hex(&v))).collect();
    let names = |m: &BTreeMap<String, String>| m.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want), "golden entries differ");
    let moved: Vec<&String> = got
        .iter()
        .filter(|(name, bytes)| want.get(*name) != Some(*bytes))
        .map(|(name, _)| name)
        .collect();
    assert!(moved.is_empty(), "bytes moved for {moved:?}");
}
