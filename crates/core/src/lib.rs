//! # aecnc — All-Edge Common Neighbor Counting on three processors
//!
//! The public API of this reproduction of Che et al., *Accelerating
//! All-Edge Common Neighbor Counting on Three Processors* (ICPP 2019).
//!
//! Given an undirected graph, compute `cnt[e(u,v)] = |N(u) ∩ N(v)|` for
//! every edge, using either of the paper's two algorithm families (**MPS**,
//! **BMP**) on any of its three processors — the real multicore CPU
//! (`std::thread` workers claiming tasks), the modeled KNL, or the
//! simulated GPU:
//!
//! ```
//! use cnc_core::{Algorithm, Platform, Runner};
//! use cnc_graph::{generators, CsrGraph};
//!
//! let g = CsrGraph::from_edge_list(&generators::clique_chain(4, 8));
//! let result = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf())
//!     .reorder(true)
//!     .run(&g);
//!
//! // Exact counts for every directed edge slot, plus derived analytics.
//! let view = result.view(&g);
//! assert_eq!(view.triangle_count(), 4 * 56); // four K8 cliques
//! ```
//!
//! The building blocks are exposed by the sibling crates:
//! `cnc-graph` (CSR storage, generators, datasets), `cnc-intersect`
//! (set-intersection kernels), `cnc-cpu` (parallel drivers), `cnc-machine`
//! (machine models), `cnc-knl` (modeled KNL), and `cnc-gpu` (GPU
//! simulator).

#![forbid(unsafe_code)]
// Lib code must surface failures as typed errors, not panics: unwrap()
// is allowed in tests only (CI runs clippy with -D warnings).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod analytics;
pub mod backend;
pub mod batch;
pub mod plan;
pub mod remap;
pub mod runner;
pub mod scan;
pub mod truss;
pub mod verify;

pub use analytics::CncView;
pub use backend::{
    Backend, CpuParBackend, CpuSeqBackend, Execution, GpuSimBackend, ModeledBackend,
};
pub use batch::{BatchAnswers, BatchSession, EdgeCount};
pub use cnc_graph::{PreparedGraph, ReorderPolicy};
pub use cnc_workload::{WorkloadError, WorkloadKind, WorkloadOutput};
pub use plan::{KernelSubstitution, Plan, PlanError};
pub use runner::{
    Algorithm, CncResult, Platform, RfChoice, RunDetail, RunOutput, RunStats, Runner,
};
pub use scan::{try_scan, Role, ScanError, ScanResult};
pub use truss::{truss_decomposition, TrussError, TrussResult};
pub use verify::{reference_counts, verify_counts, VerifyError};
