//! # cnc-shard — multi-process sharded execution
//!
//! Scatter-gather execution of all-edge common neighbor counting across
//! worker *processes*: the coordinator cuts the directed edge range into
//! cost-balanced source-aligned blocks (`cnc_cpu::cut_source_blocks`; a
//! process cannot claim another's work, so the cut is priced up front),
//! spawns one `cnc shard-worker` child per block against a single shared
//! prepared graph file, and gathers per-shard count sections over the
//! `cnc-serve` length-prefixed frame protocol.
//!
//! The layer's acceptance property is *byte-identity*: for any worker
//! count, the assembled per-edge array equals a single-process run of the
//! same plan bit for bit. The symmetric assignment makes this nontrivial —
//! a canonical `u < v` pair's mirror slot can live in another shard — so a
//! worker ships only its own section (see [`protocol`]), and the
//! coordinator fills every `u > v` slot from its twin in one pass over the
//! assembled array.
//!
//! Fault tolerance is deliberately small: a worker that dies mid-stream is
//! retried once; a repeat failure surfaces as a typed [`ShardError`]. The
//! coordinator mirrors progress into the ambient `ObsContext` under a
//! `shard → execute` span level with the `shard.*` counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod coordinator;
pub mod protocol;
pub mod worker;

pub use coordinator::{run_sharded, ShardConfig, ShardOutput};
pub use protocol::{decode_msg, encode_msg, ShardTally, WorkerMsg, SHARD_WIRE_VERSION};
pub use worker::{worker_main, WorkerArgs, FAIL_ENV};

use cnc_core::{Algorithm, PlanError, RfChoice};
use cnc_intersect::MpsConfig;

/// Why a sharded run failed.
#[derive(Debug)]
pub enum ShardError {
    /// The run could not be planned (invalid kernel configuration).
    Plan(PlanError),
    /// The algorithm cannot be expressed as a worker command line.
    Algorithm(String),
    /// A worker process could not be spawned at all (not retried).
    Spawn {
        /// Index of the shard whose worker failed to start.
        shard: usize,
        /// The spawn error.
        error: String,
    },
    /// A worker failed on every allowed attempt.
    Worker {
        /// Index of the failing shard.
        shard: usize,
        /// Attempts made (always the retry budget, currently 2).
        attempts: usize,
        /// The last failure's reason.
        reason: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Plan(e) => write!(f, "cannot plan sharded run: {e}"),
            ShardError::Algorithm(msg) => write!(f, "{msg}"),
            ShardError::Spawn { shard, error } => {
                write!(f, "cannot spawn worker for shard {shard}: {error}")
            }
            ShardError::Worker {
                shard,
                attempts,
                reason,
            } => write!(
                f,
                "shard {shard} failed after {attempts} attempts: {reason}"
            ),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for ShardError {
    fn from(e: PlanError) -> Self {
        ShardError::Plan(e)
    }
}

/// The wire token a coordinator passes workers as `--algo`, so both sides
/// plan the same kernel. Custom MPS configurations have no token (the
/// command line would need the whole config); sharding rejects them
/// explicitly rather than silently running the default.
pub fn algo_token(algorithm: Algorithm) -> Result<String, ShardError> {
    match algorithm {
        Algorithm::MergeBaseline => Ok("m".into()),
        Algorithm::Mps(cfg) if cfg == MpsConfig::default() => Ok("mps".into()),
        Algorithm::Mps(_) => Err(ShardError::Algorithm(
            "sharded runs support the default MPS configuration only \
             (a custom config has no worker command-line token)"
                .into(),
        )),
        Algorithm::Bmp(RfChoice::Off) => Ok("bmp".into()),
        Algorithm::Bmp(RfChoice::Scaled) => Ok("bmp-rf".into()),
        Algorithm::Bmp(RfChoice::Ratio(r)) => Ok(format!("bmp-rf:{r}")),
    }
}

/// Decode an `--algo` wire token back into the algorithm (the worker-side
/// inverse of [`algo_token`]).
pub fn parse_algo_token(token: &str) -> Result<Algorithm, String> {
    match token {
        "m" => Ok(Algorithm::MergeBaseline),
        "mps" => Ok(Algorithm::mps()),
        "bmp" => Ok(Algorithm::bmp()),
        "bmp-rf" => Ok(Algorithm::bmp_rf()),
        other => match other.strip_prefix("bmp-rf:") {
            Some(ratio) => ratio
                .parse::<usize>()
                .map(|r| Algorithm::Bmp(RfChoice::Ratio(r)))
                .map_err(|_| format!("bad range-filter ratio in algo token {other:?}")),
            None => Err(format!("unknown algo token {other:?}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_tokens_round_trip() {
        for algo in [
            Algorithm::MergeBaseline,
            Algorithm::mps(),
            Algorithm::bmp(),
            Algorithm::bmp_rf(),
            Algorithm::Bmp(RfChoice::Ratio(64)),
        ] {
            let token = algo_token(algo).expect("tokenizable");
            assert_eq!(parse_algo_token(&token), Ok(algo), "token {token}");
        }
    }

    #[test]
    fn custom_mps_and_junk_tokens_are_rejected() {
        let custom = Algorithm::Mps(MpsConfig {
            skew_threshold: 7,
            ..MpsConfig::default()
        });
        assert!(matches!(algo_token(custom), Err(ShardError::Algorithm(_))));
        assert!(parse_algo_token("nope").is_err());
        assert!(parse_algo_token("bmp-rf:x").is_err());
    }
}
