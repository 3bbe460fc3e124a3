//! Graph substrate for all-edge common neighbor counting.
//!
//! Provides everything the counting algorithms need below the kernel level:
//!
//! * [`EdgeList`] — raw undirected edge collections with normalization
//!   (self-loop removal, deduplication, symmetrization);
//! * [`CsrGraph`] — the *compressed sparse row* storage the paper uses
//!   (offset array + ascending-sorted neighbor array), including the
//!   `FindSrc` source-vertex search of Algorithm 3 and reverse-edge-offset
//!   lookup for the symmetric assignment technique;
//! * [`reorder`] — the degree-descending relabeling BMP requires so that
//!   `u < v ⇒ d_u ≥ d_v` and bitmaps are always built on the larger side;
//! * [`generators`] — seeded synthetic graph generators (G(n,m), Chung–Lu
//!   power law, R-MAT, hub-heavy web-like, near-uniform);
//! * [`datasets`] — scaled-down analogues of the paper's five evaluation
//!   graphs (livejournal, orkut, web-it, twitter, friendster);
//! * [`stats`] — the statistics of Tables 1 and 2 (sizes, degrees, fraction
//!   of highly skewed intersections);
//! * [`io`] — SNAP-style edge-list text I/O and a compact binary CSR format;
//! * [`prepare`] — the one-shot preparation pipeline ([`PreparedGraph`]):
//!   normalize → CSR → optional reorder → statistics, with a process-wide
//!   memory cache and a zero-copy on-disk cache (`CNCPREP4`) so every
//!   consumer shares one immutable result;
//! * [`mmap`] — in-tree `mmap(2)`/`flock(2)` bindings (the crate's only
//!   `unsafe`) backing the zero-copy cache and its cross-process locking;
//! * [`store`] — [`GraphStore`], the owned-or-mapped backing storage CSR
//!   arrays live behind.
//!
//! # Example
//!
//! ```
//! use cnc_graph::{generators, CsrGraph};
//!
//! let edges = generators::gnm(100, 400, 42);
//! let g = CsrGraph::from_edge_list(&edges);
//! assert_eq!(g.num_vertices(), 100);
//! assert!(g.validate().is_ok());
//! for v in g.neighbors(0) {
//!     assert!((*v as usize) < g.num_vertices());
//! }
//! ```

// `deny`, not `forbid`: the `mmap` module opts back in with a module-level
// `allow` — it is the single place in the workspace that holds `unsafe`
// (raw `mmap`/`munmap`/`flock` bindings and the typed mapped-slice views).
#![deny(unsafe_code)]
// Lib code must surface failures as typed errors, not panics: unwrap()
// is allowed in tests only (CI runs clippy with -D warnings).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

mod csr;
mod edgelist;

pub mod datasets;
pub mod generators;
pub mod io;
pub mod mmap;
pub mod prepare;
pub mod reorder;
pub mod stats;
pub mod store;
pub mod stream;

pub use csr::{CsrBuilder, CsrGraph};
pub use edgelist::EdgeList;
pub use prepare::{PreparedGraph, ReorderPolicy};
pub use store::GraphStore;
