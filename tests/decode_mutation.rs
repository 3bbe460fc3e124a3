//! Deterministic byte-mutation harness over every decoder of untrusted
//! bytes.
//!
//! Each decoder is seeded with well-formed encodings (every serve request
//! and reply, every shard message, `CNCCSR01`, `CNCCNT01` and `CNCPREP5`
//! images under both reorder policies, SNAP text) and fed mutations of
//! them: bit flips, boundary bytes, `u32`/`u64` boundary values written at
//! any offset, truncation and insertion. Seeds and iteration counts are
//! fixed, so every run checks the same inputs.
//!
//! The invariant: a decoder never panics. A wire decoder's `Ok` value, a
//! `CNCCSR01` graph and a `CNCCNT01` array re-encode to exactly their
//! input, and a file decoder's `Ok` graph passes `validate()` (the shard
//! worker's one-CSR loader's with a consistent reverse index too). The
//! streaming preparer accepts a `CNCCSR01` file exactly when
//! `io::read_csr` does, and then writes the image of the same graph.
//! (The `CNCRUN01` spill-run reader is private; the same loop runs as a
//! unit test in `cnc_graph::stream`.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use cnc_core::EdgeCount;
use cnc_graph::stream::{self, StreamConfig};
use cnc_graph::{generators, io, prepare, CsrGraph, PreparedGraph, ReorderPolicy};
use cnc_intersect::WorkCounts;
use cnc_serve::protocol::{decode_reply, decode_request, encode_reply, encode_request};
use cnc_serve::{Refusal, Reply, Request};
use cnc_shard::{decode_msg, encode_msg, ShardTally, WorkerMsg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const U32_EDGES: [u32; 6] = [0, 1, 0x7fff_ffff, 0x8000_0000, u32::MAX - 1, u32::MAX];
const U64_EDGES: [u64; 7] = [
    0,
    1,
    1 << 32,
    i64::MAX as u64,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
];

/// Write `value` at `at`, clipped to the end of `bytes`.
fn overwrite(bytes: &mut [u8], at: usize, value: &[u8]) {
    for (slot, &b) in bytes.iter_mut().skip(at).zip(value) {
        *slot = b;
    }
}

/// One to three random edits of `seed`.
fn mutate(rng: &mut StdRng, seed: &[u8]) -> Vec<u8> {
    let mut b = seed.to_vec();
    for _ in 0..rng.gen_range(1u32..4) {
        let at = rng.gen_range(0..b.len() + 1);
        match rng.gen_range(0u32..6) {
            0 if at < b.len() => b[at] ^= 1u8 << rng.gen_range(0u32..8),
            1 if at < b.len() => b[at] = [0x00, 0x7f, 0x80, 0xff][rng.gen_range(0usize..4)],
            2 => {
                let v = U32_EDGES[rng.gen_range(0..U32_EDGES.len())];
                overwrite(&mut b, at, &v.to_le_bytes());
            }
            3 => {
                let v = U64_EDGES[rng.gen_range(0..U64_EDGES.len())];
                overwrite(&mut b, at, &v.to_le_bytes());
            }
            4 => b.truncate(at),
            _ => {
                let n = rng.gen_range(1usize..9);
                let extra: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
                b.splice(at..at, extra);
            }
        }
    }
    b
}

/// Run `check` on `rounds` mutations of every seed; collect panics and
/// broken invariants, then fail listing the first few inputs.
fn fuzz(
    name: &str,
    rng_seed: u64,
    rounds: usize,
    seeds: &[Vec<u8>],
    check: impl Fn(&[u8]) -> Result<(), String>,
) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut failures = Vec::new();
    for seed in seeds {
        check(seed).unwrap_or_else(|e| panic!("{name}: an unmutated seed fails: {e}"));
        for _ in 0..rounds {
            let input = mutate(&mut rng, seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| check(&input)))
                .unwrap_or_else(|_| Err("panicked".into()));
            if let Err(why) = outcome {
                let hex: String = input.iter().map(|b| format!("{b:02x}")).collect();
                failures.push(format!("{why} on {hex}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{name}: {} bad inputs, first: {:?}",
        failures.len(),
        &failures[..failures.len().min(3)]
    );
}

fn same_bytes(input: &[u8], reencoded: &[u8]) -> Result<(), String> {
    if input == reencoded {
        Ok(())
    } else {
        Err("decoded value does not re-encode to its input".into())
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cnc-mutation-{}-{tag}", std::process::id()))
}

fn requests() -> Vec<Request> {
    vec![
        Request::Count { u: 7, v: 123_456 },
        Request::TopK { k: 10 },
        Request::Scan { threshold: 3 },
        Request::Stats,
        Request::Shutdown,
    ]
}

#[test]
fn serve_requests_and_replies_survive_mutation() {
    let seeds: Vec<Vec<u8>> = requests().iter().map(encode_request).collect();
    fuzz(
        "decode_request",
        1,
        20_000,
        &seeds,
        |input| match decode_request(input) {
            Ok(req) => same_bytes(input, &encode_request(&req)),
            Err(_) => Ok(()),
        },
    );

    let edge = |u, v, count| EdgeCount { u, v, count };
    let replies = [
        Reply::Count(42),
        Reply::Edges {
            total: 9,
            edges: vec![edge(1, 2, 8), edge(0, 9, 7), edge(3, 4, 0)],
        },
        Reply::Edges {
            total: 1 << 40,
            edges: Vec::new(),
        },
        Reply::Stats("{\"schema\":\"cnc-metrics\"}".into()),
        Reply::ShutdownAck,
        Reply::Refused {
            refusal: Refusal::Overloaded,
            message: "queue full".into(),
        },
    ];
    let seeds: Vec<Vec<u8>> = replies.iter().map(encode_reply).collect();
    fuzz("decode_reply", 2, 10_000, &seeds, |input| {
        for req in requests() {
            if let Ok(reply) = decode_reply(input, &req) {
                same_bytes(input, &encode_reply(&reply))?;
            }
        }
        Ok(())
    });
}

#[test]
fn shard_messages_survive_mutation() {
    let messages = [
        WorkerMsg::Hello {
            version: 2,
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
                intersections: 10,
                ..WorkCounts::default()
            },
            wall_nanos: 13,
        }),
        WorkerMsg::Error("worker died".into()),
    ];
    let seeds: Vec<Vec<u8>> = messages.iter().map(encode_msg).collect();
    fuzz("decode_msg", 3, 10_000, &seeds, |input| {
        match decode_msg(input) {
            Ok(msg) => same_bytes(input, &encode_msg(&msg)),
            Err(_) => Ok(()),
        }
    });
}

fn small_graphs() -> Vec<CsrGraph> {
    vec![
        CsrGraph::from_edge_list(&generators::gnm(12, 30, 5)),
        CsrGraph::from_edge_list(&generators::hub_web(20, 3.0, 2, 0.5, 4)),
    ]
}

fn valid(g: &CsrGraph) -> Result<(), String> {
    g.validate()
        .map_err(|e| format!("accepted an invalid graph: {e}"))
}

/// A valid graph whose reverse index maps every slot `e(u, v)` to `e(v, u)`.
fn valid_with_reverse_index(g: &CsrGraph) -> Result<(), String> {
    valid(g)?;
    let rev = g.reverse_index();
    match g.iter_edges().find(|&(eid, u, v)| {
        let r = rev[eid] as usize;
        !g.offset_range(v).contains(&r) || g.dst()[r] != u
    }) {
        Some((eid, ..)) => Err(format!("accepted a wrong reverse index at slot {eid}")),
        None => Ok(()),
    }
}

fn valid_prepared(pg: &PreparedGraph) -> Result<(), String> {
    valid(pg.graph())?;
    pg.reordered().map_or(Ok(()), |r| valid(&r.graph))
}

#[test]
fn csr_and_counts_files_survive_mutation() {
    let seeds: Vec<Vec<u8>> = small_graphs()
        .iter()
        .map(|g| {
            let mut bytes = Vec::new();
            io::write_csr(g, &mut bytes).expect("write");
            bytes
        })
        .collect();
    fuzz("read_csr", 4, 20_000, &seeds, |input| {
        let Ok(g) = io::read_csr(input) else {
            return Ok(());
        };
        valid(&g)?;
        let mut again = Vec::new();
        io::write_csr(&g, &mut again).map_err(|e| e.to_string())?;
        same_bytes(input, &again)
    });

    let counts: Vec<u32> = (0..40u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let mut seed = Vec::new();
    io::write_counts(&counts, &mut seed).expect("write");
    fuzz("read_counts", 5, 20_000, &[seed], |input| {
        let Ok(counts) = io::read_counts(input) else {
            return Ok(());
        };
        let mut again = Vec::new();
        io::write_counts(&counts, &mut again).map_err(|e| e.to_string())?;
        same_bytes(input, &again)
    });
}

#[test]
fn prepared_images_survive_mutation() {
    let mut seeds = Vec::new();
    for g in small_graphs() {
        for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            let mut bytes = Vec::new();
            prepare::write_prepared(&PreparedGraph::from_csr(g.clone(), policy), &mut bytes)
                .expect("write");
            seeds.push(bytes);
        }
    }
    fuzz("read_prepared", 6, 5_000, &seeds, |input| {
        prepare::read_prepared(input).map_or(Ok(()), |pg| valid_prepared(&pg))
    });
    let path = tmp("map.prep");
    fuzz("map_prepared", 7, 500, &seeds, |input| {
        std::fs::write(&path, input).map_err(|e| e.to_string())?;
        prepare::map_prepared(&path).map_or(Ok(()), |pg| valid_prepared(&pg))
    });
    let _ = std::fs::remove_file(&path);
    // The shard worker's loader, on the inputs `map_prepared` just saw.
    let path = tmp("map-execution.prep");
    fuzz("map_execution_csr", 7, 500, &seeds, |input| {
        std::fs::write(&path, input).map_err(|e| e.to_string())?;
        for reorder in [false, true] {
            if let Ok(g) = prepare::map_execution_csr(&path, reorder) {
                valid_with_reverse_index(&g)?;
            }
        }
        Ok(())
    });
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snap_text_survives_mutation() {
    let mut text = b"# SNAP header\n% mirror comment\n\n".to_vec();
    io::write_edge_list(&generators::gnm(20, 40, 6), &mut text).expect("write");
    text.extend_from_slice(b"  7\t  8  \n4294967295 0\n");
    fuzz("read_edge_list", 8, 10_000, &[text], |input| {
        let Ok(el) = io::read_edge_list(input) else {
            return Ok(());
        };
        let in_range = el
            .edges
            .iter()
            .all(|&(u, v)| (v as usize) < el.num_vertices && u < v);
        match in_range && el.is_normalized() {
            true => Ok(()),
            false => Err("accepted an edge list that is not normalized".into()),
        }
    });
}

/// The streamer accepts a `CNCCSR01` file exactly when `read_csr` does,
/// and writes the image of the graph `read_csr` returns.
#[test]
fn streamed_csr_preparation_follows_read_csr() {
    let seeds: Vec<Vec<u8>> = small_graphs()
        .iter()
        .map(|g| {
            let mut bytes = Vec::new();
            io::write_csr(g, &mut bytes).expect("write");
            bytes
        })
        .collect();
    let (input, out) = (tmp("stream.bin"), tmp("stream.prep"));
    let config = StreamConfig {
        mem_budget: Some(4096),
        spill_dir: None,
    };
    fuzz("prepare_file", 9, 300, &seeds, |bytes| {
        std::fs::write(&input, bytes).map_err(|e| e.to_string())?;
        let policy = ReorderPolicy::DegreeDescending;
        let streamed = stream::prepare_file(&input, &out, policy, &config);
        match (io::read_csr(bytes), streamed) {
            (Ok(g), Ok(_)) => {
                let mut want = Vec::new();
                prepare::write_prepared(&PreparedGraph::from_csr(g, policy), &mut want)
                    .map_err(|e| e.to_string())?;
                let got = std::fs::read(&out).map_err(|e| e.to_string())?;
                same_bytes(&want, &got)
            }
            (Err(_), Err(_)) => Ok(()),
            (Ok(_), Err(e)) => Err(format!("streamer refused what read_csr accepts: {e}")),
            (Err(e), Ok(_)) => Err(format!("streamer accepted what read_csr refuses: {e}")),
        }
    });
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&out);
}

/// The mutation stream is a function of its seed alone, so every run
/// checks the same inputs.
#[test]
fn mutations_are_deterministic() {
    let seed = encode_request(&Request::TopK { k: 10 });
    let draw = |s| {
        let mut rng = StdRng::seed_from_u64(s);
        (0..50).map(|_| mutate(&mut rng, &seed)).collect::<Vec<_>>()
    };
    assert_eq!(draw(11), draw(11));
    assert_ne!(draw(11), draw(12));
}
