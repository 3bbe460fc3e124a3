//! One `CNCCSR01` acceptance rule at both entry points.
//!
//! `io::read_csr` (what `cnc count g.bin` loads) and `stream::prepare_file`
//! (what `cnc prepare g.bin` streams) must refuse the same files with the
//! same message. Each crafted file below breaks one CSR invariant behind a
//! well-formed header.

use std::path::PathBuf;

use cnc_graph::stream::{self, StreamConfig};
use cnc_graph::{generators, io, prepare, CsrGraph, PreparedGraph, ReorderPolicy};

/// A `CNCCSR01` file with the given raw offsets and adjacency.
fn csr_file(offsets: &[u64], dst: &[u32]) -> Vec<u8> {
    let mut bytes = b"CNCCSR01".to_vec();
    bytes.extend_from_slice(&(offsets.len() as u64 - 1).to_le_bytes());
    bytes.extend_from_slice(&(dst.len() as u64).to_le_bytes());
    for o in offsets {
        bytes.extend_from_slice(&o.to_le_bytes());
    }
    for d in dst {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    bytes
}

/// A `CNCCSR01` file holding `rows` as its adjacency lists.
fn rows_file(rows: &[&[u32]]) -> Vec<u8> {
    let mut offsets = vec![0u64];
    for row in rows {
        offsets.push(offsets.last().copied().unwrap_or(0) + row.len() as u64);
    }
    csr_file(&offsets, &rows.concat())
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cnc-csr-acceptance-{}-{tag}", std::process::id()))
}

/// Prepare `bytes` through the streamer under both policies, spilling and
/// not: each run's image bytes or error message. A refusal must be
/// `InvalidData` and leave no image behind.
fn stream_outcome(tag: &str, bytes: &[u8]) -> Vec<Result<Vec<u8>, String>> {
    let input = tmp(&format!("{tag}.bin"));
    std::fs::write(&input, bytes).expect("write input");
    let mut outcomes = Vec::new();
    for policy in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
        for budget in [None, Some(4096)] {
            let out = tmp(&format!("{tag}-{}.prep", policy.tag()));
            let config = StreamConfig {
                mem_budget: budget,
                spill_dir: None,
            };
            let outcome = match stream::prepare_file(&input, &out, policy, &config) {
                Ok(_) => Ok(std::fs::read(&out).expect("read image")),
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{tag}: {e}");
                    assert!(!out.exists(), "{tag}: a refused file left an image");
                    Err(e.to_string())
                }
            };
            let _ = std::fs::remove_file(&out);
            outcomes.push(outcome);
        }
    }
    let _ = std::fs::remove_file(&input);
    outcomes
}

#[test]
fn both_readers_refuse_each_broken_csr_with_one_message() {
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "id-out-of-range",
            csr_file(&[0, 1, 2, 3], &[1, 0, 1_000_000]),
            "neighbor 1000000 of 2 out of range",
        ),
        (
            "offsets-not-monotone",
            csr_file(&[0, 5, 1, 6], &[1, 2, 0, 2, 0, 1]),
            "offsets not monotone",
        ),
        (
            "missing-mirror",
            rows_file(&[&[1], &[]]),
            "edge (0,1) not symmetric",
        ),
        (
            "row-not-ascending",
            rows_file(&[&[2, 1], &[0], &[0]]),
            "neighbors of 0 not strictly ascending",
        ),
        ("self-loop", rows_file(&[&[0, 1], &[0]]), "self-loop at 0"),
        (
            "degrees-match-symmetrized",
            rows_file(&[&[2], &[3], &[1], &[0]]),
            "edge (0,2) not symmetric",
        ),
    ];
    for (tag, bytes, fragment) in cases {
        let err = io::read_csr(bytes.as_slice()).expect_err(tag);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}");
        let message = err.to_string();
        assert!(
            message.contains(fragment),
            "{tag}: read_csr said {message:?}"
        );
        for outcome in stream_outcome(tag, &bytes) {
            assert_eq!(outcome, Err(message.clone()), "{tag}: streamer disagrees");
        }
    }
}

#[test]
fn both_readers_accept_a_valid_csr_as_the_same_graph() {
    // Isolated vertices after the last edge are part of the declared |V|.
    let mut el = generators::chung_lu(200, 6.0, 2.3, 8);
    el.num_vertices += 3;
    let g = CsrGraph::from_edge_list(&el);
    let mut bytes = Vec::new();
    io::write_csr(&g, &mut bytes).expect("write");
    let back = io::read_csr(bytes.as_slice()).expect("read_csr accepts");
    assert_eq!(back, g);
    let outcomes = stream_outcome("valid", &bytes);
    for (i, policy) in [ReorderPolicy::None, ReorderPolicy::DegreeDescending]
        .into_iter()
        .enumerate()
    {
        let mut want = Vec::new();
        prepare::write_prepared(&PreparedGraph::from_csr(g.clone(), policy), &mut want)
            .expect("write image");
        for outcome in &outcomes[2 * i..2 * i + 2] {
            assert_eq!(outcome.as_ref().ok(), Some(&want), "{policy:?}");
        }
    }
}
